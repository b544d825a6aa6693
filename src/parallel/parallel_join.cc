#include "parallel/parallel_join.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "common/math_util.h"
#include "exec/governor.h"
#include "obs/query_stats.h"
#include "sim/synthetic.h"

namespace textjoin {

double ParallelJoinReport::MakespanCost(double alpha) const {
  double makespan = 0;
  for (const IoStats& io : worker_io) {
    makespan = std::max(makespan, io.Cost(alpha));
  }
  return makespan;
}

double ParallelJoinReport::TotalCost(double alpha) const {
  double total = 0;
  for (const IoStats& io : worker_io) total += io.Cost(alpha);
  return total;
}

Result<ParallelJoinReport> ParallelTextJoin::Run(const JoinContext& ctx,
                                                 const JoinSpec& spec) const {
  TEXTJOIN_RETURN_IF_ERROR(ValidateJoinInputs(ctx, spec));
  if (!spec.outer_subset.empty()) {
    return Status::Unimplemented(
        "parallel join partitions the outer collection itself; apply the "
        "selection before partitioning");
  }
  const int64_t workers =
      std::min<int64_t>(std::max<int64_t>(options_.workers, 1),
                        std::max<int64_t>(ctx.outer->num_documents(), 1));
  const bool needs_inner_index = options_.algorithm != Algorithm::kHhnl;
  const bool needs_outer_index = options_.algorithm == Algorithm::kVvm;
  if (needs_inner_index && ctx.inner_index == nullptr) {
    return Status::InvalidArgument("algorithm needs the inverted file on C1");
  }

  Disk* disk = ctx.outer->disk();
  ParallelJoinReport report;
  TEXTJOIN_RETURN_IF_ERROR(GovernorCheckpoint(ctx, "parallel setup"));
  const IoStats before_setup = disk->stats();

  // Partition C2 into contiguous physical fragments, each on its own
  // "drive" (file). Fragment w holds original documents
  // [w*per_worker, ...); its local ids are offsets into that range.
  const int64_t n2 = ctx.outer->num_documents();
  const int64_t per_worker = CeilDiv(std::max<int64_t>(n2, 1), workers);
  std::vector<DocumentCollection> fragments;
  std::vector<int64_t> offsets;
  {
    auto scan = ctx.outer->Scan();
    for (int64_t w = 0; w < workers; ++w) {
      const int64_t lo = w * per_worker;
      const int64_t hi = std::min(n2, (w + 1) * per_worker);
      offsets.push_back(lo);
      CollectionBuilder builder(
          disk, ctx.outer->name() + ".part" + std::to_string(w));
      for (int64_t i = lo; i < hi; ++i) {
        TEXTJOIN_ASSIGN_OR_RETURN(Document d, scan.Next());
        TEXTJOIN_RETURN_IF_ERROR(builder.AddDocument(d).status());
      }
      TEXTJOIN_ASSIGN_OR_RETURN(DocumentCollection frag, builder.Finish());
      fragments.push_back(std::move(frag));
    }
  }

  // Per-fragment inverted files where the algorithm needs them.
  std::vector<InvertedFile> fragment_indexes;
  if (needs_outer_index) {
    for (int64_t w = 0; w < workers; ++w) {
      TEXTJOIN_ASSIGN_OR_RETURN(
          InvertedFile inv,
          InvertedFile::Build(disk, fragments[w].name() + ".inv",
                              fragments[w]));
      fragment_indexes.push_back(std::move(inv));
    }
  }
  report.setup_io = disk->stats() - before_setup;

  // Run the workers one at a time, metering each in isolation. Each
  // shared-nothing node brings its own memory, so every worker gets the
  // full buffer budget.
  for (int64_t w = 0; w < workers; ++w) {
    // A worker's similarity context: idf against the GLOBAL collections
    // (so scores equal the serial join), norms local to the fragment.
    SimilarityContext worker_sim;
    worker_sim.config = ctx.similarity->config;
    worker_sim.idf = IdfWeights(*ctx.inner, *ctx.outer,
                                ctx.similarity->config);
    TEXTJOIN_ASSIGN_OR_RETURN(
        worker_sim.inner_norms,
        DocumentNorms::Create(*ctx.inner, worker_sim.idf,
                              ctx.similarity->config));
    TEXTJOIN_ASSIGN_OR_RETURN(
        worker_sim.outer_norms,
        DocumentNorms::Create(fragments[w], worker_sim.idf,
                              ctx.similarity->config));

    JoinContext worker_ctx;
    worker_ctx.inner = ctx.inner;
    worker_ctx.outer = &fragments[w];
    worker_ctx.inner_index = ctx.inner_index;
    worker_ctx.outer_index =
        needs_outer_index ? &fragment_indexes[w] : nullptr;
    worker_ctx.similarity = &worker_sim;
    worker_ctx.sys = ctx.sys;
    QueryStatsCollector worker_stats(disk);
    worker_ctx.stats = &worker_stats;

    JoinSpec worker_spec = spec;

    // Each worker runs under a child governor: shared cancellation flag
    // (cancelling the query stops every worker) and the query's remaining
    // makespan deadline — workers model parallel nodes, so each gets the
    // full remainder, not a divided slice.
    std::optional<QueryGovernor> worker_governor;
    std::optional<ScopedDiskGovernor> worker_disk_governor;
    if (ctx.governor != nullptr) {
      TEXTJOIN_RETURN_IF_ERROR(ctx.governor->Checkpoint("parallel worker"));
      worker_governor.emplace(ctx.governor->SpawnWorker());
      worker_ctx.governor = &*worker_governor;
      worker_disk_governor.emplace(disk, &*worker_governor);
    }

    disk->ResetHeads();  // this worker's drives are its own
    const IoStats before = disk->stats();
    Result<JoinResult> r =
        RunAlgorithm(options_.algorithm, false, worker_ctx, worker_spec);
    if (!r.ok()) {
      // Partial-failure surfacing: name the worker that died and how much
      // of the join had completed. Results from finished workers are
      // discarded — an error Status is the whole answer, never a partial
      // JoinResult.
      const Status& st = r.status();
      return Status(st.code(),
                    "parallel worker " + std::to_string(w + 1) + "/" +
                        std::to_string(workers) + " failed (" +
                        std::to_string(w) +
                        " workers completed, partial results discarded): " +
                        st.message());
    }
    report.worker_io.push_back(disk->stats() - before);
    report.worker_cpu.push_back(worker_stats.Finish().root.cpu);

    // Remap the fragment-local outer ids back to the original numbering.
    for (OuterMatches& om : *r) {
      om.outer_doc = static_cast<DocId>(om.outer_doc + offsets[w]);
      report.result.push_back(std::move(om));
    }
  }
  return report;
}

}  // namespace textjoin
