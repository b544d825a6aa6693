#!/usr/bin/env bash
# Full verification: configure, build, run every test, every benchmark and
# every example. Exits non-zero on the first failure.
#
#   scripts/check.sh            normal mode (includes the bench_e2e smoke
#                               test, `ctest -L bench` in .bench_build/)
#   scripts/check.sh sanitize   ASan+UBSan build (separate build dir,
#                               tests selected via `ctest -L sanitize`),
#                               then the bench_e2e smoke run built with
#                               the same sanitizers (.bench_build-sanitize/)
#   scripts/check.sh chaos      fault-tolerance suite (`ctest -L chaos`)
#                               swept under three fixed seed offsets, each
#                               a different deterministic fault universe
#   scripts/check.sh stress     seed-sweepable suites (`ctest -L stress`)
#                               under three seed offsets: randomized
#                               cancellation points plus the executor
#                               exactness sweep
#   scripts/check.sh recovery   crash-safety suite (`ctest -L recovery`)
#                               under three seed offsets: a crash injected
#                               after every WAL append and at every
#                               compaction stage, each recovery verified
#                               bit-identical to a rebuild
#   scripts/check.sh serving-chaos
#                               serving-tier chaos suite
#                               (`ctest -L serving-chaos`) under three seed
#                               offsets: churn traces with write faults,
#                               torn WAL tails, read faults and overload,
#                               every completed query verified
#                               bit-identical to a rebuild at its
#                               admission epoch
#   scripts/check.sh bench      native Release build (TEXTJOIN_NATIVE=ON),
#                               kernel bit-identity gate + throughput
#                               measurement, refreshes BENCH_kernels.json
#                               via scripts/bench_json.sh
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "sanitize" ]; then
  cmake -B build-sanitize -G Ninja -DTEXTJOIN_SANITIZE=ON
  cmake --build build-sanitize
  ctest --test-dir build-sanitize -L sanitize --output-on-failure
  # The wall-clock benchmark's smoke run under the same sanitizers: every
  # workload, with every executor forced, at benchmark shapes. bench_e2e
  # is its own CMake project, so the flags go in through the cache.
  san="-fsanitize=address,undefined -fno-omit-frame-pointer -fno-sanitize-recover=all"
  cmake -S bench_e2e -B .bench_build-sanitize -G Ninja \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${san}" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build .bench_build-sanitize
  .bench_build-sanitize/bench_e2e --smoke
  echo "SANITIZE CHECKS PASSED"
  exit 0
fi

if [ "${1:-}" = "chaos" ]; then
  cmake -B build -G Ninja
  cmake --build build
  for seed in 0 7919 104729; do
    echo "== chaos sweep, seed offset ${seed} =="
    TEXTJOIN_CHAOS_SEED=${seed} \
      ctest --test-dir build -L chaos --output-on-failure
  done
  echo "CHAOS CHECKS PASSED"
  exit 0
fi

if [ "${1:-}" = "stress" ]; then
  cmake -B build -G Ninja
  cmake --build build
  for seed in 0 7919 104729; do
    echo "== stress sweep, seed offset ${seed} =="
    TEXTJOIN_STRESS_SEED=${seed} \
      ctest --test-dir build -L stress --output-on-failure
  done
  echo "STRESS CHECKS PASSED"
  exit 0
fi

if [ "${1:-}" = "recovery" ]; then
  cmake -B build -G Ninja
  cmake --build build
  for seed in 0 7919 104729; do
    echo "== recovery sweep, seed offset ${seed} =="
    TEXTJOIN_CHAOS_SEED=${seed} \
      ctest --test-dir build -L recovery --output-on-failure
  done
  echo "RECOVERY CHECKS PASSED"
  exit 0
fi

if [ "${1:-}" = "serving-chaos" ]; then
  cmake -B build -G Ninja
  cmake --build build
  for seed in 0 7919 104729; do
    echo "== serving-chaos sweep, seed offset ${seed} =="
    TEXTJOIN_CHAOS_SEED=${seed} \
      ctest --test-dir build -L serving-chaos --output-on-failure
  done
  echo "SERVING-CHAOS CHECKS PASSED"
  exit 0
fi

if [ "${1:-}" = "bench" ]; then
  # Separate native build dir: -march=x86-64-v3 binaries would poison the
  # portable tier-1 build. The kernel benchmark gates on scalar-vs-SIMD
  # bit-identity before timing anything, so this doubles as the
  # bit-identity check under the exact flags the measurements use.
  cmake -B build-native -G Ninja -DCMAKE_BUILD_TYPE=Release -DTEXTJOIN_NATIVE=ON
  cmake --build build-native --target bench_kernels kernel_test
  ./build-native/tests/kernel_test
  scripts/bench_json.sh build-native/bench/bench_kernels
  echo "BENCH CHECKS PASSED"
  exit 0
fi

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# The wall-clock benchmark's smoke run (its own CMake project): traced,
# forced-executor and isolated results must be bit-identical.
cmake -S bench_e2e -B .bench_build -DCMAKE_BUILD_TYPE=Release
cmake --build .bench_build -j
ctest --test-dir .bench_build -L bench --output-on-failure

for b in build/bench/bench_*; do
  [ -x "$b" ] || continue
  echo "== $b =="
  "$b"
done

for e in build/examples/example_*; do
  [ -x "$e" ] || continue
  echo "== $e =="
  "$e"
done

echo "ALL CHECKS PASSED"
