// CPU-cost extension (Section 7 further-work item "develop cost formulas
// that include CPU cost"): compares the analytic CPU model against the
// executors' metered operation counts, and shows a case where adding CPU
// to the ranking changes the winner even though I/O alone would tie.

#include <cstdio>

#include "storage/disk_manager.h"
#include "bench_util.h"
#include "common/logging.h"
#include "cost/cpu_model.h"
#include "cost/statistics.h"
#include "index/inverted_file.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "obs/query_stats.h"
#include "sim/synthetic.h"

namespace textjoin {
namespace {

constexpr int64_t kPage = 512;

void ModelVsMeasured() {
  std::printf("\n-- analytic CPU model vs metered executors --\n");
  SimulatedDisk disk(kPage);
  SyntheticSpec s1{500, 14.0, 900, 1.0, 0, 21};
  SyntheticSpec s2{350, 10.0, 900, 1.0, 0, 22};
  auto c1 = GenerateCollection(&disk, "cpu.c1", s1);
  auto c2 = GenerateCollection(&disk, "cpu.c2", s2);
  TEXTJOIN_CHECK_OK(c1.status());
  TEXTJOIN_CHECK_OK(c2.status());
  auto i1 = InvertedFile::Build(&disk, "cpu.i1", *c1);
  auto i2 = InvertedFile::Build(&disk, "cpu.i2", *c2);
  TEXTJOIN_CHECK_OK(i1.status());
  TEXTJOIN_CHECK_OK(i2.status());
  auto simctx = SimilarityContext::Create(*c1, *c2, {});
  TEXTJOIN_CHECK_OK(simctx.status());

  JoinContext ctx;
  ctx.inner = &c1.value();
  ctx.outer = &c2.value();
  ctx.inner_index = &i1.value();
  ctx.outer_index = &i2.value();
  ctx.similarity = &simctx.value();
  ctx.sys = SystemParams{80, kPage, 5.0};

  // The model describes the paper's executors, so they run unpruned.
  JoinSpec spec;
  spec.lambda = 10;
  spec.prune = false;

  CostInputs in;
  in.c1 = StatisticsOf(*c1);
  in.c2 = StatisticsOf(*c2);
  in.sys = ctx.sys;
  in.query.lambda = spec.lambda;
  in.query.delta = MeasuredDelta(*c1, *c2);
  in.q = MeasuredTermOverlap(*c2, *c1);
  spec.delta = in.query.delta;  // model and executor budget identically

  std::printf("df skew: C1=%.2f C2=%.2f, q=%.3f, delta=%.3f\n",
              in.c1.df_skew, in.c2.df_skew, in.q, in.query.delta);
  std::printf("%-8s %14s %14s %14s %14s %14s %14s\n", "algo",
              "accum(model)", "accum(meas)", "compares(mod)", "compares(meas)",
              "decoded(model)", "decoded(meas)");

  auto report = [&](const char* name, TextJoinAlgorithm& algo,
                    const CpuEstimate& est) {
    QueryStatsCollector collector(&disk);
    ctx.stats = &collector;
    auto r = algo.Run(ctx, spec);
    TEXTJOIN_CHECK_OK(r.status());
    const CpuStats cpu = collector.Finish().root.cpu;
    std::printf("%-8s %14.0f %14lld %14.0f %14lld %14.0f %14lld\n", name,
                est.accumulations,
                static_cast<long long>(cpu.accumulations),
                est.cell_compares,
                static_cast<long long>(cpu.cell_compares),
                est.cells_decoded,
                static_cast<long long>(cpu.cells_decoded));
  };
  HhnlJoin hhnl;
  HvnlJoin hvnl;
  VvmJoin vvm;
  report("HHNL", hhnl, HhnlCpuCost(in));
  report("HVNL", hvnl, HvnlCpuCost(in));
  report("VVM", vvm, VvmCpuCost(in));
}

void CombinedRanking() {
  std::printf(
      "\n-- combined I/O+CPU ranking (FR-shaped statistics, B large enough "
      "that\n   I/O nearly ties HHNL and VVM; CPU breaks the tie) --\n");
  CollectionStatistics s = ToStatistics(FrProfile());
  // Group-5 shape where vvs == hhs is possible.
  s = RescaledStatistics(s, 64);
  CostInputs in = bench_util::MakeInputs(s, s);
  CostComparison io = CompareCosts(in);
  CpuEstimate cpu_h = HhnlCpuCost(in);
  CpuEstimate cpu_v = VvmCpuCost(in);
  std::printf("%-10s %14s %18s %18s\n", "algo", "io(seq)",
              "cpu ops (model)", "combined @1e5 ops/page");
  std::printf("%-10s %14.0f %18.3e %18.0f\n", "HHNL", io.hhnl.seq,
              cpu_h.Total(), CombinedCost(io.hhnl, cpu_h, 1e5));
  std::printf("%-10s %14.0f %18.3e %18.0f\n", "VVM", io.vvm.seq,
              cpu_v.Total(), CombinedCost(io.vvm, cpu_v, 1e5));
  const char* io_winner = io.hhnl.seq <= io.vvm.seq ? "HHNL" : "VVM";
  const char* combined_winner =
      CombinedCost(io.hhnl, cpu_h, 1e5) <= CombinedCost(io.vvm, cpu_v, 1e5)
          ? "HHNL"
          : "VVM";
  std::printf("I/O-only winner: %s; combined winner: %s\n", io_winner,
              combined_winner);
}

}  // namespace
}  // namespace textjoin

int main() {
  std::printf("== CPU cost extension: model vs measurement ==\n");
  textjoin::ModelVsMeasured();
  textjoin::CombinedRanking();
  return 0;
}
