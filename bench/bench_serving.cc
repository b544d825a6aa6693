// Serving-layer load bench: open-loop Poisson arrivals against the
// multi-tenant QueryScheduler (serve/scheduler.h) at several offered
// rates. Each load level submits the same seeded workload — a Zipf-skewed
// mix over a pool of distinct query vectors, so repeats hit the
// ResultCache — and reports completed QPS, shed fraction, cache hit rate
// and the latency tail in simulated ms (p50/p90/p99/p999; a percentile
// with fewer than ten samples beyond it prints as "-", since it would be
// the max or next to it). Because time is simulated, every number is
// deterministic: the tail shows exactly when the admission queue, the
// queue timeout and the per-tenant quotas start to bite.
//
// A second profile serves the same load UNDER CHURN: the collection is
// dynamic, a fraction of arrivals are inserts/deletes, and a compaction
// fires every K writes — once as a background sliced job and once
// foreground (synchronous at arrival). The two rows isolate what
// backgrounding buys: the foreground row's tail and max latency absorb
// the whole rewrite as a stall, the background row's do not.
//
//   bench_serving [--smoke]
//
// --smoke: a seconds-scale configuration for CI.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/random.h"
#include "dynamic/dynamic_collection.h"
#include "index/inverted_file.h"
#include "serve/scheduler.h"
#include "sim/synthetic.h"
#include "storage/disk_manager.h"

namespace textjoin {
namespace {

struct BenchConfig {
  int64_t num_documents = 4000;
  double avg_terms_per_doc = 40;
  int64_t vocabulary_size = 8000;
  // Arrivals per row: every row completes over 1000 queries, so its p99
  // has ten samples beyond it.
  int64_t num_queries = 4000;
  int64_t query_pool = 60;  // distinct query vectors (Zipf-sampled -> repeats)
  std::vector<double> rates_qps = {100, 400, 1600};
  uint64_t seed = 42;
  // Churn profile: offered rate, fraction of arrivals that are writes,
  // and a compaction every `compact_every` writes. At one per 40 writes the
  // foreground rewrites alone outrun the simulated clock, so that row never
  // completes 1000 queries however many arrive.
  double churn_rate_qps = 400;
  double churn_write_frac = 0.3;
  int64_t churn_compact_every = 60;
};

BenchConfig SmokeConfig() {
  BenchConfig c;
  c.num_documents = 400;
  c.avg_terms_per_doc = 20;
  c.vocabulary_size = 2000;
  c.num_queries = 120;
  c.query_pool = 20;
  c.rates_qps = {200, 800, 3200};
  c.churn_rate_qps = 800;
  c.churn_compact_every = 15;
  return c;
}

std::vector<DCell> SampleQueryCells(Rng* rng, const ZipfSampler& terms) {
  const int64_t len = rng->NextInRange(3, 8);
  std::vector<DCell> cells;
  cells.reserve(static_cast<size_t>(len));
  for (int64_t i = 0; i < len; ++i) {
    cells.push_back(
        DCell{static_cast<TermId>(terms.Sample(rng)),
              static_cast<Weight>(rng->NextInRange(1, 3))});
  }
  return cells;
}

// The latency columns both tables print, in simulated ms.
constexpr struct {
  const char* name;
  double q;
} kQuantiles[] = {{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99},
                  {"p999", 0.999}};

void PrintLatencyHeader() {
  for (const auto& column : kQuantiles) std::printf(" %8s", column.name);
}

void PrintLatencies(const std::vector<double>& sorted) {
  std::printf(" %6zu", sorted.size());
  for (const auto& column : kQuantiles) {
    std::printf(" %8s", Percentile(sorted, column.q).c_str());
  }
}

int RunBench(const BenchConfig& config) {
  SimulatedDisk disk(4096);
  SyntheticSpec spec;
  spec.num_documents = config.num_documents;
  spec.avg_terms_per_doc = config.avg_terms_per_doc;
  spec.vocabulary_size = config.vocabulary_size;
  spec.seed = config.seed;
  auto collection = GenerateCollection(&disk, "docs", spec);
  TEXTJOIN_CHECK_OK(collection.status());
  auto index = InvertedFile::Build(&disk, "docs.inv", *collection);
  TEXTJOIN_CHECK_OK(index.status());

  // The workload: one seeded pool of distinct query vectors; each arrival
  // Zipf-samples a pool slot, so a heavy-tailed fraction of the load are
  // repeats the ResultCache can absorb.
  Rng rng(config.seed);
  ZipfSampler term_sampler(static_cast<uint64_t>(config.vocabulary_size), 1.0);
  ZipfSampler pool_sampler(static_cast<uint64_t>(config.query_pool), 1.0);
  std::vector<std::vector<DCell>> pool;
  pool.reserve(static_cast<size_t>(config.query_pool));
  for (int64_t i = 0; i < config.query_pool; ++i) {
    pool.push_back(SampleQueryCells(&rng, term_sampler));
  }
  const char* tenants[] = {"alpha", "beta", "gamma", "delta"};

  std::printf(
      "serving load sweep: %lld docs, %lld queries/level, pool of %lld "
      "query vectors, 4 tenants\n\n",
      static_cast<long long>(config.num_documents),
      static_cast<long long>(config.num_queries),
      static_cast<long long>(config.query_pool));
  std::printf("latencies in simulated ms over n completed queries; \"-\" = "
              "fewer than 10 samples beyond\n");
  std::printf("%10s %10s %6s %6s %6s %6s", "offered", "done", "shed%",
              "hit%", "shr%", "n");
  PrintLatencyHeader();
  std::printf(" %8s\n", "maxq");

  for (double rate : config.rates_qps) {
    ServeOptions options;
    options.admission.max_concurrent = 4;
    options.admission.max_queue = 16;
    options.admission.queue_timeout_ms = 50;
    options.result_cache_entries = 32;
    options.shared_scans = true;
    options.buffer_pool_pages = 128;
    options.tenants = {{"alpha", 32}, {"beta", 32}, {"gamma", 32},
                       {"delta", 32}};
    // Paper-era device model: a page read costs ~1ms of simulated time,
    // so cold queries are I/O-bound and the admission queue is the
    // mechanism that shapes the tail.
    options.ms_per_page = 1.0;
    options.ms_per_step = 0.05;
    QueryScheduler scheduler(&disk, nullptr, options);
    TEXTJOIN_CHECK_OK(
        scheduler.AddCollection("docs", &collection.value(), &index.value()));

    // Open-loop Poisson arrivals: exponential gaps at `rate` QPS, fixed
    // per-level seed so every level sees the same query sequence.
    Rng arrivals(config.seed ^ 0x9e3779b97f4a7c15ull);
    double clock_ms = 0;
    for (int64_t i = 0; i < config.num_queries; ++i) {
      double u = arrivals.NextDouble();
      clock_ms += -std::log(1.0 - u) * 1000.0 / rate;
      ServeQuery query;
      query.tenant = tenants[arrivals.NextBounded(4)];
      query.collection = "docs";
      query.cells = pool[pool_sampler.Sample(&arrivals)];
      query.lambda = 10;
      query.arrival_ms = clock_ms;
      TEXTJOIN_CHECK_OK(scheduler.Submit(query).status());
    }
    auto records = scheduler.Run();
    TEXTJOIN_CHECK_OK(records.status());

    int64_t completed = 0, shed = 0, hits = 0, shared = 0, fetched = 0;
    double max_queue_wait = 0, first_arrival = -1, last_finish = 0;
    std::vector<double> latencies;
    for (const QueryRecord& r : *records) {
      if (first_arrival < 0 || r.arrival_ms < first_arrival) {
        first_arrival = r.arrival_ms;
      }
      last_finish = std::max(last_finish, r.finish_ms);
      max_queue_wait = std::max(max_queue_wait, r.queue_wait_ms);
      shared += r.serving.shared_scans;
      fetched += r.serving.scan_fetches;
      if (r.outcome == "completed") {
        ++completed;
        if (r.cache_hit) ++hits;
        latencies.push_back(r.latency_ms);
      } else if (r.outcome == "shed") {
        ++shed;
      }
    }
    std::sort(latencies.begin(), latencies.end());
    const double span_s = (last_finish - first_arrival) / 1000.0;
    const double done_qps =
        span_s > 0 ? static_cast<double>(completed) / span_s : 0;
    const double n = static_cast<double>(records->size());
    std::printf("%7.0fqps %7.0fqps %5.1f%% %5.1f%% %5.1f%%", rate, done_qps,
                100.0 * static_cast<double>(shed) / n,
                completed > 0
                    ? 100.0 * static_cast<double>(hits) /
                          static_cast<double>(completed)
                    : 0.0,
                shared + fetched > 0
                    ? 100.0 * static_cast<double>(shared) /
                          static_cast<double>(shared + fetched)
                    : 0.0);
    PrintLatencies(latencies);
    std::printf(" %8.2f\n", max_queue_wait);
  }
  std::printf(
      "\nshed%% and the latency tail grow with offered load as the\n"
      "admission queue saturates; hit%% holds (the cache keys on the query\n"
      "vector, not on load), pulling p50 down toward the cached-reply "
      "cost.\n");
  return 0;
}

// The churn profile: the same seeded query load against a DYNAMIC
// collection with interleaved inserts/deletes and periodic compactions,
// once backgrounded (sliced, pause-on-queue) and once foreground
// (synchronous at arrival). The foreground row's tail prices the rewrite
// stall; the background row's does not.
int RunChurnBench(const BenchConfig& config) {
  std::printf(
      "\nserving under churn: %.0f qps offered, %.0f%% writes, compaction "
      "every %lld writes\n\n",
      config.churn_rate_qps, 100.0 * config.churn_write_frac,
      static_cast<long long>(config.churn_compact_every));
  std::printf("latencies in simulated ms over n completed queries; \"-\" = "
              "fewer than 10 samples beyond\n");
  std::printf("%11s %10s %7s %8s %6s", "compaction", "done", "writes",
              "compacts", "n");
  PrintLatencyHeader();
  std::printf(" %8s\n", "max");

  for (const bool foreground : {false, true}) {
    // A fresh device per mode: the dynamic collection journals to it.
    SimulatedDisk disk(4096);
    SyntheticSpec spec;
    spec.num_documents = config.num_documents;
    spec.avg_terms_per_doc = config.avg_terms_per_doc;
    spec.vocabulary_size = config.vocabulary_size;
    spec.seed = config.seed;
    auto seeded = GenerateCollection(&disk, "seedcol", spec);
    TEXTJOIN_CHECK_OK(seeded.status());
    std::vector<Document> docs;
    docs.reserve(static_cast<size_t>(seeded->num_documents()));
    for (int64_t d = 0; d < seeded->num_documents(); ++d) {
      auto doc = seeded->ReadDocument(static_cast<DocId>(d));
      TEXTJOIN_CHECK_OK(doc.status());
      docs.push_back(std::move(doc).value());
    }
    auto dyn = DynamicCollection::Create(&disk, "docs", docs);
    TEXTJOIN_CHECK_OK(dyn.status());

    ServeOptions options;
    options.admission.max_concurrent = 4;
    options.admission.max_queue = 16;
    options.admission.queue_timeout_ms = 50;
    options.result_cache_entries = 32;
    options.shared_scans = true;
    options.buffer_pool_pages = 128;
    options.ms_per_page = 1.0;
    options.ms_per_step = 0.05;
    // Paper-era rewrite cost: copying a slice of documents costs real
    // simulated time, so a whole-collection rewrite is tens of ms — the
    // stall the foreground row makes visible.
    options.compact_docs_per_slice = 32;
    options.compact_ms_per_slice = 2.0;
    QueryScheduler scheduler(&disk, nullptr, options);
    TEXTJOIN_CHECK_OK(scheduler.AddDynamicCollection("docs", dyn->get()));

    // The same seeded trace in both modes; only the compaction placement
    // differs. Key prediction mirrors the scheduler: initial docs hold
    // keys 1..N, the k-th insert (arrival order) gets N+k.
    Rng arrivals(config.seed ^ 0x9e3779b97f4a7c15ull);
    ZipfSampler term_sampler(static_cast<uint64_t>(config.vocabulary_size),
                             1.0);
    ZipfSampler pool_sampler(static_cast<uint64_t>(config.query_pool), 1.0);
    std::vector<std::vector<DCell>> pool;
    for (int64_t i = 0; i < config.query_pool; ++i) {
      pool.push_back(SampleQueryCells(&arrivals, term_sampler));
    }
    std::vector<DocKey> live_keys;
    for (int64_t k = 1; k <= config.num_documents; ++k) {
      live_keys.push_back(static_cast<DocKey>(k));
    }
    DocKey next_key = static_cast<DocKey>(config.num_documents) + 1;
    double clock_ms = 0;
    int64_t writes = 0;
    for (int64_t i = 0; i < config.num_queries; ++i) {
      double u = arrivals.NextDouble();
      clock_ms += -std::log(1.0 - u) * 1000.0 / config.churn_rate_qps;
      if (arrivals.NextDouble() < config.churn_write_frac) {
        ServeWrite write;
        write.collection = "docs";
        write.arrival_ms = clock_ms;
        if (live_keys.size() > 8 && arrivals.NextBounded(3) == 0) {
          write.kind = ServeWrite::Kind::kDelete;
          const uint64_t pick = arrivals.NextBounded(live_keys.size());
          write.key = live_keys[pick];
          live_keys[pick] = live_keys.back();
          live_keys.pop_back();
        } else {
          write.kind = ServeWrite::Kind::kInsert;
          write.cells = SampleQueryCells(&arrivals, term_sampler);
          live_keys.push_back(next_key++);
        }
        TEXTJOIN_CHECK_OK(scheduler.SubmitWrite(write).status());
        if (++writes % config.churn_compact_every == 0) {
          ServeWrite compact;
          compact.kind = ServeWrite::Kind::kCompact;
          compact.collection = "docs";
          compact.foreground = foreground;
          compact.arrival_ms = clock_ms;
          TEXTJOIN_CHECK_OK(scheduler.SubmitWrite(compact).status());
        }
        continue;
      }
      ServeQuery query;
      query.collection = "docs";
      query.cells = pool[pool_sampler.Sample(&arrivals)];
      query.lambda = 10;
      query.arrival_ms = clock_ms;
      TEXTJOIN_CHECK_OK(scheduler.Submit(query).status());
    }
    auto records = scheduler.Run();
    TEXTJOIN_CHECK_OK(records.status());
    const std::vector<WriteRecord> wrecords = scheduler.TakeWriteRecords();

    int64_t completed = 0, applied = 0, compacts = 0;
    double first_arrival = -1, last_finish = 0;
    std::vector<double> latencies;
    for (const QueryRecord& r : *records) {
      if (first_arrival < 0 || r.arrival_ms < first_arrival) {
        first_arrival = r.arrival_ms;
      }
      last_finish = std::max(last_finish, r.finish_ms);
      if (r.outcome == "completed") {
        ++completed;
        latencies.push_back(r.latency_ms);
      }
    }
    for (const WriteRecord& r : wrecords) {
      if (r.outcome != "applied") continue;
      if (r.kind == "compact") {
        ++compacts;
      } else {
        ++applied;
      }
    }
    std::sort(latencies.begin(), latencies.end());
    const double span_s = (last_finish - first_arrival) / 1000.0;
    std::printf("%11s %7.0fqps %7lld %8lld",
                foreground ? "foreground" : "background",
                span_s > 0 ? static_cast<double>(completed) / span_s : 0,
                static_cast<long long>(applied),
                static_cast<long long>(compacts));
    PrintLatencies(latencies);
    std::printf(" %8.2f\n", latencies.empty() ? 0.0 : latencies.back());
  }
  std::printf(
      "\nsame trace, same writes: the foreground row absorbs each rewrite\n"
      "as a head-of-line stall (tail/max), the background row slices it\n"
      "between rounds and pauses it while queries queue.\n");
  return 0;
}

}  // namespace
}  // namespace textjoin

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const textjoin::BenchConfig config =
      smoke ? textjoin::SmokeConfig() : textjoin::BenchConfig();
  int rc = textjoin::RunBench(config);
  if (rc == 0) rc = textjoin::RunChurnBench(config);
  return rc;
}
