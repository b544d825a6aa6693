#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs, one row per workload and metric.

    python3 bench_e2e/compare.py base.jsonl head.jsonl

Both files are written by run_e2e.sh: one JSON object per line,
{"workload": ..., "run": i, "seed": s, "result": <run.py's result line>}.
Run i of the base is paired with run i of the head. For every end-to-end
metric of BENCHMARK.json it prints each side's median and quartiles, the
head's wins over the pairs, and a verdict:

  improved    at least 10 pairs, the head better in at least 9/10 of them
              (ties count for neither side), and the medians further apart
              than the base's inter-quartile range
  regressed   the head's median worse than the base's by more than the
              metric's bound, with the base's spread within the bound or
              every head run worse than every base run
  unresolved  the base's spread (IQR / median) exceeds the bound and the
              runs do not separate; or an improvement on fewer than 10 pairs
  unchanged   otherwise

Exits 1 when any metric regressed.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], {})[r["run"]] = r["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, lower_is_better, bound):
    sign = 1 if lower_is_better else -1
    pairs = [(base[i], head[i]) for i in sorted(base) if i in head]
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    b_vals, h_vals = list(base.values()), list(head.values())
    b_q1, b_med, b_q3 = quartiles(b_vals)
    h_med = statistics.median(h_vals)
    iqr = b_q3 - b_q1
    spread = iqr / b_med if b_med else float("inf")
    worse_by = sign * (h_med - b_med) / b_med if b_med else 0.0
    all_better = all(sign * (h - b) < 0 for h in h_vals for b in b_vals)
    all_worse = all(sign * (h - b) > 0 for h in h_vals for b in b_vals)
    if pairs and wins >= 0.9 * len(pairs) and abs(h_med - b_med) > iqr \
            and worse_by < 0:
        return ("improved" if len(pairs) >= 10 else "unresolved"), wins, pairs
    if worse_by > bound and (spread <= bound or all_worse):
        return "regressed", wins, pairs
    if spread > bound and not all_better:
        return "unresolved", wins, pairs
    return "unchanged", wins, pairs


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} base.jsonl head.jsonl")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, head = load(sys.argv[1]), load(sys.argv[2])
    regressed = False
    print(f"{'workload':<18} {'metric':<16} {'base median [q1, q3]':>34} "
          f"{'head median [q1, q3]':>34} {'change':>8} {'wins':>7}  verdict")
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in base or w not in head:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            b = {i: r["metrics"][name]["value"] for i, r in base[w].items()}
            h = {i: r["metrics"][name]["value"] for i, r in head[w].items()}
            v, wins, pairs = verdict(b, h, m["better"] == "lower", m["bound"])
            regressed |= v == "regressed"
            bq1, bmed, bq3 = quartiles(list(b.values()))
            hq1, hmed, hq3 = quartiles(list(h.values()))
            change = (hmed - bmed) / bmed * 100 if bmed else 0.0
            print(f"{w:<18} {name:<16} "
                  f"{f'{bmed:.6g} [{bq1:.6g}, {bq3:.6g}]':>34} "
                  f"{f'{hmed:.6g} [{hq1:.6g}, {hq3:.6g}]':>34} "
                  f"{change:>+7.2f}% {f'{wins}/{len(pairs)}':>7}  {v}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
