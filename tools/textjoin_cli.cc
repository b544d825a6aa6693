// textjoin_cli — command-line front end for the library.
//
//   textjoin_cli join <inner.txt> <outer.txt> [--lambda N] [--algo A]
//                [--buffer PAGES] [--cosine] [--idf]
//       Joins two text files (one document per line): for every line of
//       the outer file, prints the lambda most similar inner lines.
//       --algo auto|hhnl|hvnl|vvm (default auto = the integrated
//       algorithm's cost-based choice).
//
//   textjoin_cli estimate --n1 N --k1 K --t1 T --n2 N --k2 K --t2 T
//                [--buffer PAGES] [--alpha A] [--lambda L] [--delta D]
//                [--m PARTICIPATING] [--random-outer]
//       Evaluates the paper's six cost formulas for the given collection
//       statistics and prints the comparison.
//
//   textjoin_cli stats <file.txt>
//       Tokenizes a file (one document per line) and prints the
//       statistics the cost model consumes.
//
//   textjoin_cli serve <corpus.txt> [--queries N] [--rate QPS] ...
//       Indexes the corpus and replays a seeded Poisson query stream
//       through the multi-tenant serving scheduler, printing outcome
//       counts, cache/shared-scan statistics and the latency tail.
//       With --write-frac the corpus becomes a dynamic collection and a
//       fraction of the events are inserts/deletes; --compact-every N
//       folds the churn into a new generation every N applied writes
//       (background unless --foreground-compact).
//
//   textjoin_cli recover <db.tjsn>
//       Opens a database snapshot, replaying every dynamic collection's
//       WAL, and prints one replay-progress line per collection plus a
//       summary. Exit status: 0 on success, 1 on corruption (DATA_LOSS),
//       2 on any other failure.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/reliable_disk.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "exec/admission.h"
#include "exec/governor.h"
#include "cost/cost_model.h"
#include "cost/statistics.h"
#include "dynamic/dynamic_collection.h"
#include "index/inverted_file.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "planner/planner.h"
#include "common/random.h"
#include "relational/database.h"
#include "serve/scheduler.h"
#include "text/tokenizer.h"
#include "text/trec_loader.h"

namespace textjoin {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  textjoin_cli join <inner.txt> <outer.txt> [--lambda N] "
               "[--algo auto|hhnl|hvnl|vvm]\n"
               "               [--buffer PAGES] [--cosine] [--idf] "
               "[--trec]\n"
               "               [--compression none|varint|group-varint]\n"
               "      --compression: posting-list encoding for both "
               "inverted files\n"
               "        (default none = fixed-width i-cells; group-varint "
               "decodes through\n"
               "        the dispatched SIMD kernels)\n"
               "               [--fault-rate R] [--fault-seed S] "
               "[--retries N]\n"
               "      --trec: inputs are TREC SGML files "
               "(<DOC><DOCNO><TEXT>) instead of one document per line\n"
               "      --fault-rate: chaos mode — inject transient read "
               "errors and silent\n"
               "        corruption at rate R (e.g. 0.01) during the join; "
               "--fault-seed picks\n"
               "        the deterministic schedule, --retries the read "
               "attempts (1 = no retry)\n"
               "               [--deadline-ms D] [--max-concurrent N] "
               "[--mem-budget PAGES]\n"
               "      --deadline-ms: cancel the join once D milliseconds "
               "elapse (DEADLINE_EXCEEDED)\n"
               "      --max-concurrent: run the query through an admission "
               "controller with N run slots\n"
               "      --mem-budget: cap the join's buffer pages; joins "
               "degrade (smaller batches,\n"
               "        more merge passes) instead of failing\n"
               "  textjoin_cli estimate --n1 N --k1 K --t1 T --n2 N --k2 K "
               "--t2 T\n"
               "               [--buffer PAGES] [--alpha A] [--lambda L] "
               "[--delta D] [--m M] [--random-outer]\n"
               "  textjoin_cli stats <file.txt>\n"
               "  textjoin_cli serve <corpus.txt> [--queries N] [--rate "
               "QPS] [--lambda N]\n"
               "               [--tenants N] [--pool PAGES] [--cache "
               "ENTRIES] [--no-shared-scans]\n"
               "               [--max-concurrent N] [--queue N] "
               "[--queue-timeout-ms D]\n"
               "               [--repeat-frac F] [--seed S] [--cosine] "
               "[--idf]\n"
               "               [--write-frac F] [--compact-every N] "
               "[--foreground-compact]\n"
               "      Indexes the corpus (one document per line) and "
               "replays a seeded Poisson\n"
               "      stream of N events at QPS (simulated time) through "
               "the serving\n"
               "      scheduler: admission control, per-tenant buffer "
               "quotas, shared scans\n"
               "      and the result cache. --repeat-frac is the fraction "
               "of queries drawn\n"
               "      from a small hot set (repeats exercise the cache).\n"
               "      --write-frac: serve the corpus as a dynamic "
               "collection and make\n"
               "        fraction F of the events inserts/deletes "
               "interleaved with the queries\n"
               "      --compact-every: fold the churn into a new base "
               "generation every N\n"
               "        applied writes — background slices unless "
               "--foreground-compact, which\n"
               "        stalls the whole service for each rewrite\n"
               "  textjoin_cli recover <db.tjsn>\n"
               "      Validates a database snapshot and replays every "
               "dynamic collection's\n"
               "      WAL, printing per-collection replay progress "
               "(records replayed / torn\n"
               "      tail bytes discarded / final epoch). Exits 1 on "
               "corruption (DATA_LOSS),\n"
               "      2 on any other failure.\n");
  return 2;
}

// Minimal flag scanner: --name value or boolean --name.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  std::optional<std::string> Flag(const std::string& name) {
    for (size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == "--" + name) return args_[i + 1];
    }
    return std::nullopt;
  }

  bool Bool(const std::string& name) const {
    for (const auto& a : args_) {
      if (a == "--" + name) return true;
    }
    return false;
  }

  // Int/Double exit with a one-line error on malformed values (e.g.
  // `--fault-rate abc`, `--buffer 12x` or `--rate nan`) instead of
  // throwing.
  int64_t Int(const std::string& name, int64_t def) {
    auto v = Flag(name);
    if (!v) return def;
    errno = 0;
    char* end = nullptr;
    const long long parsed = std::strtoll(v->c_str(), &end, 10);
    if (errno != 0 || end == v->c_str() || *end != '\0') {
      BadValue(name, *v, "an integer");
    }
    return parsed;
  }

  double Double(const std::string& name, double def) {
    auto v = Flag(name);
    if (!v) return def;
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(v->c_str(), &end);
    // strtod also accepts "inf" and "nan".
    if (errno != 0 || end == v->c_str() || *end != '\0' ||
        !std::isfinite(parsed)) {
      BadValue(name, *v, "a finite number");
    }
    return parsed;
  }

  // Positional arguments (not starting with --, not a flag's value).
  std::vector<std::string> Positional() const {
    std::vector<std::string> out;
    for (size_t i = 0; i < args_.size(); ++i) {
      if (args_[i].rfind("--", 0) == 0) {
        // Boolean flags have no value; numeric flags consume the next
        // token. Heuristic: skip the next token unless it also starts
        // with "--" or the flag is a known boolean.
        if (args_[i] == "--cosine" || args_[i] == "--idf" ||
            args_[i] == "--random-outer" || args_[i] == "--trec" ||
            args_[i] == "--no-shared-scans" ||
            args_[i] == "--foreground-compact") {
          continue;
        }
        ++i;
        continue;
      }
      out.push_back(args_[i]);
    }
    return out;
  }

 private:
  [[noreturn]] static void BadValue(const std::string& name,
                                    const std::string& value,
                                    const char* expected) {
    std::fprintf(stderr, "textjoin_cli: invalid value '%s' for --%s (expected %s)\n",
                 value.c_str(), name.c_str(), expected);
    std::exit(2);
  }

  std::vector<std::string> args_;
};

Result<std::vector<std::string>> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.empty()) return Status::InvalidArgument(path + " is empty");
  return lines;
}

Result<DocumentCollection> BuildFromLines(
    Disk* disk, const std::string& name,
    const std::vector<std::string>& lines, Vocabulary* vocab,
    const Tokenizer& tokenizer) {
  CollectionBuilder builder(disk, name);
  for (const std::string& line : lines) {
    TEXTJOIN_ASSIGN_OR_RETURN(Document doc,
                              tokenizer.MakeDocument(line, vocab));
    TEXTJOIN_RETURN_IF_ERROR(builder.AddDocument(doc).status());
  }
  return builder.Finish();
}

int RunJoin(Args& args) {
  auto positional = args.Positional();
  if (positional.size() != 2) return Usage();
  const int64_t lambda = args.Int("lambda", 3);
  const int64_t buffer = args.Int("buffer", 1000);
  const std::string algo = args.Flag("algo").value_or("auto");
  const bool trec = args.Bool("trec");
  const double fault_rate = args.Double("fault-rate", 0.0);
  const uint64_t fault_seed = static_cast<uint64_t>(args.Int("fault-seed", 1));
  const int retries = static_cast<int>(args.Int("retries", 4));
  const double deadline_ms = args.Double("deadline-ms", 0.0);
  const int64_t mem_budget = args.Int("mem-budget", 0);
  const int64_t max_concurrent = args.Int("max-concurrent", 0);
  const std::string compression_name =
      args.Flag("compression").value_or("none");
  PostingCompression compression = PostingCompression::kNone;
  if (compression_name == "varint") {
    compression = PostingCompression::kDeltaVarint;
  } else if (compression_name == "group-varint") {
    compression = PostingCompression::kGroupVarint;
  } else if (compression_name != "none") {
    std::fprintf(stderr,
                 "textjoin_cli: invalid value '%s' for --compression "
                 "(expected none|varint|group-varint)\n",
                 compression_name.c_str());
    return 2;
  }
  if (fault_rate < 0 || fault_rate >= 1 || retries < 1) return Usage();
  if (deadline_ms < 0 || mem_budget < 0 || max_concurrent < 0 ||
      lambda < 1 || buffer < 1) {
    return Usage();
  }

  SimulatedDisk base(4096);
  RetryPolicy policy;
  policy.max_attempts = retries;
  ReliableDisk disk(&base, policy);
  Vocabulary vocab;
  Tokenizer tokenizer;
  Result<DocumentCollection> inner(Status::Internal("unset"));
  Result<DocumentCollection> outer(Status::Internal("unset"));
  // Display labels per outer/inner document.
  std::vector<std::string> inner_labels, outer_labels;

  if (trec) {
    auto in = LoadTrecCollectionFromFile(&disk, "inner", positional[0],
                                         &vocab, tokenizer);
    auto out = LoadTrecCollectionFromFile(&disk, "outer", positional[1],
                                          &vocab, tokenizer);
    if (!in.ok() || !out.ok()) {
      std::fprintf(
          stderr, "%s\n",
          (!in.ok() ? in.status() : out.status()).ToString().c_str());
      return 1;
    }
    inner_labels = in->docnos;
    outer_labels = out->docnos;
    inner = std::move(in->collection);
    outer = std::move(out->collection);
  } else {
    auto inner_lines = ReadLines(positional[0]);
    auto outer_lines = ReadLines(positional[1]);
    if (!inner_lines.ok() || !outer_lines.ok()) {
      std::fprintf(stderr, "%s\n",
                   (!inner_lines.ok() ? inner_lines.status()
                                      : outer_lines.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    inner_labels = *inner_lines;
    outer_labels = *outer_lines;
    inner = BuildFromLines(&disk, "inner", *inner_lines, &vocab, tokenizer);
    outer = BuildFromLines(&disk, "outer", *outer_lines, &vocab, tokenizer);
  }
  TEXTJOIN_CHECK_OK(inner.status());
  TEXTJOIN_CHECK_OK(outer.status());
  InvertedFile::BuildOptions index_options;
  index_options.compression = compression;
  auto inner_index =
      InvertedFile::Build(&disk, "inner.inv", *inner, index_options);
  auto outer_index =
      InvertedFile::Build(&disk, "outer.inv", *outer, index_options);
  TEXTJOIN_CHECK_OK(inner_index.status());
  TEXTJOIN_CHECK_OK(outer_index.status());

  SimilarityConfig config;
  config.cosine_normalize = args.Bool("cosine");
  config.use_idf = args.Bool("idf");
  auto simctx = SimilarityContext::Create(*inner, *outer, config);
  TEXTJOIN_CHECK_OK(simctx.status());

  JoinContext ctx;
  ctx.inner = &inner.value();
  ctx.outer = &outer.value();
  ctx.inner_index = &inner_index.value();
  ctx.outer_index = &outer_index.value();
  ctx.similarity = &simctx.value();
  ctx.sys = SystemParams{buffer, 4096, 5.0};

  JoinSpec spec;
  spec.lambda = lambda;
  spec.similarity = config;

  if (fault_rate > 0) {
    // Chaos mode: fault the query, not the build — the collections and
    // indexes above were written cleanly.
    FaultSchedule schedule;
    schedule.seed = fault_seed;
    schedule.transient_rate = fault_rate;
    schedule.corruption_rate = fault_rate;
    base.set_fault_schedule(schedule);
    std::printf("chaos: fault rate %.4f, seed %llu, %d read attempts\n\n",
                fault_rate, static_cast<unsigned long long>(fault_seed),
                retries);
  }

  // Lifecycle governance: admission first (a single CLI query always gets
  // a free slot, but the grant can shrink the memory budget), then the
  // governor carrying the deadline and page budget through the join and
  // the storage layer.
  std::optional<AdmissionController> admission;
  AdmissionGrant grant;
  int64_t effective_budget = mem_budget;
  if (max_concurrent > 0) {
    AdmissionOptions aopts;
    aopts.max_concurrent = max_concurrent;
    aopts.memory_budget_pages = mem_budget;
    aopts.default_deadline_ms = deadline_ms;
    admission.emplace(aopts);
    auto g = admission->Submit(/*predicted_cost_pages=*/0, buffer,
                               deadline_ms);
    if (!g.ok()) {
      std::fprintf(stderr, "query shed: %s\n", g.status().ToString().c_str());
      return 1;
    }
    grant = *g;
    if (mem_budget > 0 && grant.memory_granted_pages > 0 &&
        grant.memory_granted_pages < buffer) {
      effective_budget = grant.memory_granted_pages;
    }
  }
  std::optional<QueryGovernor> governor;
  std::optional<ScopedDiskGovernor> disk_governor;
  if (deadline_ms > 0 || effective_budget > 0) {
    governor.emplace(GovernorLimits{deadline_ms, effective_budget});
    ctx.governor = &*governor;
    disk_governor.emplace(&disk, &*governor);
  }

  disk.ResetStats();
  Result<JoinResult> result(Status::OK());
  if (algo == "auto") {
    JoinPlanner planner;
    PlanChoice plan;
    result = planner.Execute(ctx, spec, &plan);
    if (result.ok()) std::printf("%s\n\n", plan.explanation.c_str());
  } else if (algo == "hhnl") {
    HhnlJoin join;
    result = join.Run(ctx, spec);
  } else if (algo == "hvnl") {
    HvnlJoin join;
    result = join.Run(ctx, spec);
  } else if (algo == "vvm") {
    VvmJoin join;
    result = join.Run(ctx, spec);
  } else {
    return Usage();
  }
  if (admission) {
    admission->Release(grant.ticket, governor ? governor->ElapsedMs() : 0.0);
  }
  if (!result.ok()) {
    const char* what =
        IsCancellation(result.status()) ? "join cancelled" : "join failed";
    std::fprintf(stderr, "%s: %s\n", what,
                 result.status().ToString().c_str());
    return 1;
  }
  for (const OuterMatches& om : *result) {
    std::printf("outer %u: %.60s\n", om.outer_doc,
                outer_labels[om.outer_doc].c_str());
    for (const Match& m : om.matches) {
      std::printf("  %8.3f  inner %u: %.60s\n", m.score, m.doc,
                  inner_labels[m.doc].c_str());
    }
  }
  std::printf("\njoin I/O: %s\n", disk.stats().ToString().c_str());
  if (disk.retry_stats().any()) {
    std::printf("recovery: %s\n", disk.retry_stats().ToString().c_str());
  }
  if (governor) {
    std::printf("governance: %s; checkpoints=%lld io_polls=%lld%s\n",
                admission ? AdmissionOutcomeName(grant.outcome) : "admitted",
                static_cast<long long>(governor->checkpoints()),
                static_cast<long long>(governor->io_polls()),
                governor->degraded() ? " [degraded]" : "");
  }
  return 0;
}

int RunEstimate(Args& args) {
  CostInputs in;
  in.c1.num_documents = args.Int("n1", 0);
  in.c1.avg_terms_per_doc = args.Double("k1", 0);
  in.c1.num_distinct_terms = args.Int("t1", 0);
  in.c2.num_documents = args.Int("n2", 0);
  in.c2.avg_terms_per_doc = args.Double("k2", 0);
  in.c2.num_distinct_terms = args.Int("t2", 0);
  if (in.c1.num_documents <= 0 || in.c2.num_documents <= 0 ||
      in.c1.num_distinct_terms <= 0 || in.c2.num_distinct_terms <= 0) {
    return Usage();
  }
  in.sys.buffer_pages = args.Int("buffer", 10000);
  in.sys.alpha = args.Double("alpha", 5.0);
  in.query.lambda = args.Int("lambda", 20);
  in.query.delta = args.Double("delta", 0.1);
  in.participating_outer = args.Int("m", -1);
  in.outer_reads_random = args.Bool("random-outer");
  in.q = EstimateTermOverlap(in.c2.num_distinct_terms,
                             in.c1.num_distinct_terms);

  CostComparison c = CompareCosts(in);
  std::printf("q = %.3f\n", in.q);
  std::printf("%-8s %14s %14s   %s\n", "algo", "sequential", "random",
              "note");
  auto row = [&](Algorithm a) {
    const AlgorithmCost& cost = c.of(a);
    if (cost.feasible) {
      std::printf("%-8s %14.0f %14.0f   %s\n", AlgorithmName(a), cost.seq,
                  cost.rand, cost.note.c_str());
    } else {
      std::printf("%-8s %14s %14s   %s\n", AlgorithmName(a), "infeasible",
                  "infeasible", cost.note.c_str());
    }
  };
  row(Algorithm::kHhnl);
  row(Algorithm::kHvnl);
  row(Algorithm::kVvm);
  std::printf("best (sequential model): %s\n",
              AlgorithmName(c.BestSequential()));
  std::printf("best (random model):     %s\n",
              AlgorithmName(c.BestRandom()));
  return 0;
}

int RunStats(Args& args) {
  auto positional = args.Positional();
  if (positional.size() != 1) return Usage();
  auto lines = ReadLines(positional[0]);
  if (!lines.ok()) {
    std::fprintf(stderr, "%s\n", lines.status().ToString().c_str());
    return 1;
  }
  SimulatedDisk disk(4096);
  Vocabulary vocab;
  Tokenizer tokenizer;
  auto col = BuildFromLines(&disk, "c", *lines, &vocab, tokenizer);
  TEXTJOIN_CHECK_OK(col.status());
  CollectionStatistics s = StatisticsOf(*col);
  std::printf("documents (N):        %lld\n",
              static_cast<long long>(s.num_documents));
  std::printf("terms per doc (K):    %.2f\n", s.avg_terms_per_doc);
  std::printf("distinct terms (T):   %lld\n",
              static_cast<long long>(s.num_distinct_terms));
  std::printf("df skew:              %.2f\n", s.df_skew);
  std::printf("collection pages (D): %.2f (at P=4096)\n",
              s.CollectionPages(4096));
  std::printf("doc pages (S):        %.4f\n", s.AvgDocPages(4096));
  std::printf("entry pages (J):      %.4f\n", s.AvgEntryPages(4096));
  std::printf("B+tree pages (Bt):    %.2f\n", s.BTreePages(4096));
  return 0;
}

int RunServe(Args& args) {
  auto positional = args.Positional();
  if (positional.size() != 1) return Usage();
  const int64_t queries = args.Int("queries", 200);
  const double rate = args.Double("rate", 100.0);
  const int64_t lambda = args.Int("lambda", 5);
  const int64_t tenants = args.Int("tenants", 2);
  const int64_t pool_pages = args.Int("pool", 128);
  const int64_t cache_entries = args.Int("cache", 64);
  const int64_t max_concurrent = args.Int("max-concurrent", 4);
  const int64_t max_queue = args.Int("queue", 16);
  const double queue_timeout = args.Double("queue-timeout-ms", 0.0);
  const double repeat_frac = args.Double("repeat-frac", 0.5);
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed", 42));
  const double write_frac = args.Double("write-frac", 0.0);
  const int64_t compact_every = args.Int("compact-every", 0);
  const bool foreground_compact = args.Bool("foreground-compact");
  if (queries < 1 || rate <= 0 || lambda < 1 || tenants < 1 ||
      pool_pages < tenants || cache_entries < 0 || max_concurrent < 1 ||
      max_queue < 0 || queue_timeout < 0 || repeat_frac < 0 ||
      repeat_frac > 1 || write_frac < 0 || write_frac >= 1 ||
      compact_every < 0) {
    return Usage();
  }
  const bool churn = write_frac > 0 || compact_every > 0;

  auto lines = ReadLines(positional[0]);
  if (!lines.ok()) {
    std::fprintf(stderr, "%s\n", lines.status().ToString().c_str());
    return 1;
  }
  SimulatedDisk disk(4096);
  Vocabulary vocab;
  Tokenizer tokenizer;
  Result<DocumentCollection> col(Status::Internal("unset"));
  Result<InvertedFile> index(Status::Internal("unset"));
  std::unique_ptr<DynamicCollection> dyn;
  if (churn) {
    std::vector<Document> docs;
    for (const std::string& line : *lines) {
      auto doc = tokenizer.MakeDocument(line, &vocab);
      TEXTJOIN_CHECK_OK(doc.status());
      docs.push_back(std::move(*doc));
    }
    auto created = DynamicCollection::Create(&disk, "corpus", docs);
    TEXTJOIN_CHECK_OK(created.status());
    dyn = std::move(*created);
  } else {
    col = BuildFromLines(&disk, "corpus", *lines, &vocab, tokenizer);
    TEXTJOIN_CHECK_OK(col.status());
    index = InvertedFile::Build(&disk, "corpus.inv", *col);
    TEXTJOIN_CHECK_OK(index.status());
  }

  ServeOptions options;
  options.admission.max_concurrent = max_concurrent;
  options.admission.max_queue = max_queue;
  options.admission.queue_timeout_ms = queue_timeout;
  options.result_cache_entries = cache_entries;
  options.shared_scans = !args.Bool("no-shared-scans");
  options.buffer_pool_pages = pool_pages;
  for (int64_t t = 0; t < tenants; ++t) {
    options.tenants.push_back(
        {"tenant" + std::to_string(t), pool_pages / tenants});
  }
  QueryScheduler scheduler(&disk, &vocab, options);
  if (churn) {
    TEXTJOIN_CHECK_OK(scheduler.AddDynamicCollection("corpus", dyn.get()));
  } else {
    TEXTJOIN_CHECK_OK(scheduler.AddCollection("corpus", &col.value(),
                                              &index.value()));
  }

  SimilarityConfig config;
  config.cosine_normalize = args.Bool("cosine");
  config.use_idf = args.Bool("idf");

  // The event stream: corpus lines replayed as queries, with a
  // --write-frac slice of the events replaced by inserts/deletes against
  // the dynamic collection. A --repeat-frac slice of the queries comes
  // from a small Zipf-skewed hot set (repeats hit the result cache); the
  // rest are uniform draws over the whole corpus.
  //
  // Writes apply in arrival order, so key assignment is predictable:
  // the initial docs hold keys 1..N and the k-th submitted insert gets
  // key N+k. Tracking that lets deletes target keys that are still live.
  Rng rng(seed);
  const uint64_t hot = std::max<uint64_t>(
      1, std::min<uint64_t>(8, lines->size()));
  ZipfSampler hot_sampler(hot, 1.0);
  std::vector<DocKey> live_keys;
  for (uint64_t k = 1; k <= lines->size(); ++k) live_keys.push_back(k);
  DocKey next_key = static_cast<DocKey>(lines->size()) + 1;
  int64_t applied_writes = 0;
  double clock_ms = 0;
  for (int64_t i = 0; i < queries; ++i) {
    clock_ms += -std::log(1.0 - rng.NextDouble()) * 1000.0 / rate;
    if (churn && rng.NextDouble() < write_frac) {
      ServeWrite write;
      write.collection = "corpus";
      write.arrival_ms = clock_ms;
      // Deletes are a third of the writes (when anything is live), so
      // the collection keeps growing and compactions have work to fold.
      if (!live_keys.empty() && rng.NextDouble() < 1.0 / 3.0) {
        write.kind = ServeWrite::Kind::kDelete;
        const uint64_t pick = rng.NextBounded(live_keys.size());
        write.key = live_keys[pick];
        live_keys[pick] = live_keys.back();
        live_keys.pop_back();
      } else {
        write.kind = ServeWrite::Kind::kInsert;
        write.text = (*lines)[rng.NextBounded(lines->size())];
        live_keys.push_back(next_key++);
      }
      TEXTJOIN_CHECK_OK(scheduler.SubmitWrite(write).status());
      ++applied_writes;
      if (compact_every > 0 && applied_writes % compact_every == 0) {
        ServeWrite compact;
        compact.kind = ServeWrite::Kind::kCompact;
        compact.collection = "corpus";
        compact.foreground = foreground_compact;
        compact.arrival_ms = clock_ms;
        TEXTJOIN_CHECK_OK(scheduler.SubmitWrite(compact).status());
      }
      continue;
    }
    ServeQuery query;
    query.tenant = "tenant" + std::to_string(rng.NextBounded(
                                  static_cast<uint64_t>(tenants)));
    query.collection = "corpus";
    const uint64_t line = rng.NextDouble() < repeat_frac
                              ? hot_sampler.Sample(&rng)
                              : rng.NextBounded(lines->size());
    query.text = (*lines)[line];
    query.lambda = lambda;
    query.similarity = config;
    query.arrival_ms = clock_ms;
    TEXTJOIN_CHECK_OK(scheduler.Submit(query).status());
  }
  auto records = scheduler.Run();
  TEXTJOIN_CHECK_OK(records.status());
  const std::vector<WriteRecord> write_records =
      scheduler.TakeWriteRecords();

  int64_t completed = 0, shed = 0, failed = 0, hits = 0;
  double max_queue_wait = 0, last_finish = 0;
  std::vector<double> latencies;
  for (const QueryRecord& r : *records) {
    max_queue_wait = std::max(max_queue_wait, r.queue_wait_ms);
    last_finish = std::max(last_finish, r.finish_ms);
    if (r.outcome == "completed") {
      ++completed;
      if (r.cache_hit) ++hits;
      latencies.push_back(r.latency_ms);
    } else if (r.outcome == "shed") {
      ++shed;
    } else {
      ++failed;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const auto& cache_stats = scheduler.cache()->stats();
  std::printf("served %lld queries at %.0f qps offered "
              "(%.1f ms simulated makespan)\n",
              static_cast<long long>(records->size()), rate, last_finish);
  std::printf("outcomes: %lld completed, %lld shed, %lld other\n",
              static_cast<long long>(completed),
              static_cast<long long>(shed), static_cast<long long>(failed));
  std::printf("cache: %lld hits / %lld lookups (%.1f%% of completed); "
              "%lld invalidated, %lld evicted\n",
              static_cast<long long>(cache_stats.hits),
              static_cast<long long>(cache_stats.hits + cache_stats.misses),
              completed > 0 ? 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(completed)
                            : 0.0,
              static_cast<long long>(cache_stats.invalidations),
              static_cast<long long>(cache_stats.evictions));
  std::printf("shared scans: %lld piggybacked / %lld fetched\n",
              static_cast<long long>(scheduler.registrar().total_shared()),
              static_cast<long long>(scheduler.registrar().total_fetches()));
  std::printf("latency ms: p50=%s p99=%s p999=%s max_queue_wait=%.2f\n",
              Percentile(latencies, 0.50).c_str(),
              Percentile(latencies, 0.99).c_str(),
              Percentile(latencies, 0.999).c_str(), max_queue_wait);
  if (churn) {
    int64_t inserts = 0, deletes = 0, compacts = 0, wfailed = 0;
    int64_t slices = 0;
    for (const WriteRecord& w : write_records) {
      if (w.outcome != "applied") {
        ++wfailed;
      } else if (w.kind == "insert") {
        ++inserts;
      } else if (w.kind == "delete") {
        ++deletes;
      } else {
        ++compacts;
        slices += w.slices;
      }
    }
    std::printf("writes: %lld inserts, %lld deletes, %lld compactions "
                "(%lld slices, %s), %lld failed/aborted\n",
                static_cast<long long>(inserts),
                static_cast<long long>(deletes),
                static_cast<long long>(compacts),
                static_cast<long long>(slices),
                foreground_compact ? "foreground" : "background",
                static_cast<long long>(wfailed));
    std::printf("collection: epoch %lld, generation %lld, %lld live "
                "documents\n",
                static_cast<long long>(scheduler.epoch("corpus")),
                static_cast<long long>(dyn->generation()),
                static_cast<long long>(dyn->num_live_documents()));
  }
  return 0;
}

int RunRecover(Args& args) {
  auto positional = args.Positional();
  if (positional.size() != 1) return Usage();
  auto db = Database::Open(positional[0]);
  if (!db.ok()) {
    std::fprintf(stderr, "recover failed: %s\n",
                 db.status().ToString().c_str());
    return db.status().code() == StatusCode::kDataLoss ? 1 : 2;
  }
  const std::vector<std::string> names = (*db)->dynamic_names();
  if (names.empty()) {
    std::printf("recovered: no dynamic collections\n");
    return 0;
  }
  int64_t replayed = 0, torn = 0;
  for (const std::string& name : names) {
    const DynamicCollection* dc = (*db)->dynamic_collection(name);
    const RecoveryReport& report = dc->last_recovery();
    std::printf("recovered %s: %lld records replayed, %lld torn tail "
                "bytes discarded, epoch %lld\n",
                name.c_str(),
                static_cast<long long>(report.records_replayed),
                static_cast<long long>(report.tail_bytes_discarded),
                static_cast<long long>(report.epoch));
    replayed += report.records_replayed;
    torn += report.tail_bytes_discarded;
  }
  std::printf("recovered: %lld collections, %lld records replayed, %lld "
              "torn tail bytes discarded\n",
              static_cast<long long>(names.size()),
              static_cast<long long>(replayed),
              static_cast<long long>(torn));
  return 0;
}

}  // namespace
}  // namespace textjoin

int main(int argc, char** argv) {
  using namespace textjoin;
  if (argc < 2) return Usage();
  Args args(argc - 2, argv + 2);
  const std::string command = argv[1];
  if (command == "join") return RunJoin(args);
  if (command == "estimate") return RunEstimate(args);
  if (command == "stats") return RunStats(args);
  if (command == "serve") return RunServe(args);
  if (command == "recover") return RunRecover(args);
  return Usage();
}
