// The multi-tenant serving layer (serve/scheduler.h): result-cache
// bit-identity and epoch invalidation, shared-scan bit-identity with
// fewer page reads, per-tenant quota isolation with bit-identical
// degraded execution, cache hit rates on repeated workloads, and a
// seeded randomized interleaving sweep.
//
// `scripts/check.sh stress` re-runs this binary under several values of
// TEXTJOIN_STRESS_SEED; the interleaving sweep below draws its workload
// from it, so each sweep explores different arrival orders, tenants and
// cancellation points.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "dynamic/dynamic_collection.h"
#include "index/inverted_file.h"
#include "join/similarity.h"
#include "join/topk.h"
#include "serve/result_cache.h"
#include "serve/scheduler.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BuildCollection;
using testing_util::DocumentNamedBy;
using testing_util::RandomCollection;

uint64_t SeedOffset() {
  const char* s = std::getenv("TEXTJOIN_STRESS_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 0;
}

// Independent reference scorer: one query vector against the collection,
// document-at-a-time. Accumulation per document runs in ascending term
// order — the same floating-point addition sequence as the scheduler's
// term-at-a-time accumulator — so agreement here is exact, not
// approximate.
std::vector<Match> ReferenceTopLambda(const DocumentCollection& col,
                                      const std::vector<DCell>& raw_query,
                                      int64_t lambda,
                                      const SimilarityConfig& config) {
  auto qdoc = Document::FromUnsorted(raw_query);
  TEXTJOIN_CHECK_OK(qdoc.status());
  const std::vector<DCell>& q = qdoc.value().cells();
  IdfWeights idf(col, col, config);
  auto norms = DocumentNorms::Create(col, idf, config);
  TEXTJOIN_CHECK_OK(norms.status());
  double query_norm = 1;
  if (config.cosine_normalize) {
    double sum = 0;
    for (const DCell& c : q) {
      double w = static_cast<double>(c.weight);
      sum += w * w * idf.Squared(c.term);
    }
    query_norm = std::sqrt(sum);
  }

  TopKAccumulator topk(lambda);
  for (int64_t d = 0; d < col.num_documents(); ++d) {
    auto doc = col.ReadDocument(static_cast<DocId>(d));
    TEXTJOIN_CHECK_OK(doc.status());
    const std::vector<DCell>& cells = doc.value().cells();
    double acc = 0;
    for (const DCell& qc : q) {
      auto it = std::lower_bound(
          cells.begin(), cells.end(), qc.term,
          [](const DCell& c, TermId t) { return c.term < t; });
      if (it == cells.end() || it->term != qc.term) continue;
      acc += static_cast<double>(qc.weight) *
             static_cast<double>(it->weight) * idf.Squared(qc.term);
    }
    if (acc <= 0) continue;
    double score = acc;
    if (config.cosine_normalize) {
      double denom = norms.value().of(static_cast<DocId>(d)) * query_norm;
      score = denom > 0 ? acc / denom : 0.0;
    }
    topk.Add(static_cast<DocId>(d), score);
  }
  return topk.TakeSorted();
}

class ServingTest : public ::testing::Test {
 protected:
  void UseCollection(DocumentCollection col) {
    col_.emplace(std::move(col));
    auto index = InvertedFile::Build(&disk_, "docs.inv", *col_);
    TEXTJOIN_CHECK_OK(index.status());
    index_.emplace(std::move(index).value());
  }

  std::unique_ptr<QueryScheduler> NewScheduler(const ServeOptions& options) {
    auto s = std::make_unique<QueryScheduler>(&disk_, nullptr, options);
    TEXTJOIN_CHECK_OK(s->AddCollection("docs", &*col_, &*index_));
    return s;
  }

  ServeQuery MakeQuery(std::vector<DCell> cells, int64_t lambda = 5,
                       double arrival_ms = 0) {
    ServeQuery q;
    q.collection = "docs";
    q.cells = std::move(cells);
    q.lambda = lambda;
    q.arrival_ms = arrival_ms;
    return q;
  }

  SimulatedDisk disk_{256};
  std::optional<DocumentCollection> col_;
  std::optional<InvertedFile> index_;
};

// ---------------------------------------------------------------------------
// Result cache: hits are bit-identical, epoch bumps invalidate.

TEST_F(ServingTest, CacheHitIsBitIdenticalIncludingTieBreaks) {
  // Documents 0 and 2 are identical: the query ties them exactly, and the
  // tie must break by ascending document id in both the cold run and the
  // cached reply.
  UseCollection(BuildCollection(&disk_, "docs",
                                {{{1, 2}, {2, 1}},
                                 {{3, 4}},
                                 {{1, 2}, {2, 1}},
                                 {{1, 1}, {3, 1}}}));
  ServeOptions options;
  options.result_cache_entries = 8;
  auto s = NewScheduler(options);

  std::vector<DCell> query = {{2, 1}, {1, 2}};  // unsorted on purpose
  ASSERT_TRUE(s->Submit(MakeQuery(query, 3, 0)).ok());
  ASSERT_TRUE(s->Submit(MakeQuery(query, 3, 10)).ok());
  auto records = s->Run();
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 2u);

  const QueryRecord& cold = (*records)[0];
  const QueryRecord& warm = (*records)[1];
  EXPECT_EQ(cold.outcome, "completed");
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(warm.outcome, "completed");
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.matches, cold.matches) << "cached reply differs from cold run";

  auto reference = ReferenceTopLambda(*col_, query, 3, SimilarityConfig{});
  EXPECT_EQ(cold.matches, reference);
  ASSERT_GE(cold.matches.size(), 2u);
  // The tie: docs 0 and 2 score identically, ascending id order.
  EXPECT_EQ(cold.matches[0].score, cold.matches[1].score);
  EXPECT_EQ(cold.matches[0].doc, 0u);
  EXPECT_EQ(cold.matches[1].doc, 2u);

  // A bag-of-words key: the differently-ordered vector is the same query.
  EXPECT_EQ(s->cache()->stats().hits, 1);
  EXPECT_EQ(s->cache()->stats().insertions, 1);
}

TEST_F(ServingTest, EpochBumpInvalidatesCachedResults) {
  UseCollection(RandomCollection(&disk_, "docs", 40, 5, 30, 17));
  ServeOptions options;
  options.result_cache_entries = 8;
  auto s = NewScheduler(options);
  std::vector<DCell> query = {{0, 1}, {2, 2}};

  ASSERT_TRUE(s->Submit(MakeQuery(query)).ok());
  auto first = s->Run();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE((*first)[0].cache_hit);
  EXPECT_EQ(s->cache()->size(), 1);

  // The collection "changed": every dependent cached result dies with the
  // old epoch.
  const int64_t before = s->epoch("docs");
  ASSERT_TRUE(s->BumpEpoch("docs").ok());
  EXPECT_EQ(s->epoch("docs"), before + 1);
  EXPECT_EQ(s->cache()->size(), 0);
  EXPECT_GE(s->cache()->stats().invalidations, 1);

  ASSERT_TRUE(s->Submit(MakeQuery(query)).ok());
  auto second = s->Run();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE((*second)[0].cache_hit)
      << "epoch bump must force a cold re-execution";
  EXPECT_EQ((*second)[0].matches, (*first)[0].matches)
      << "collection unchanged on disk: the re-run must agree";

  // And the re-inserted result serves hits under the new epoch.
  ASSERT_TRUE(s->Submit(MakeQuery(query)).ok());
  auto third = s->Run();
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE((*third)[0].cache_hit);
}

TEST_F(ServingTest, ZeroCapacityCacheSurvivesBackToBackEpochBumps) {
  UseCollection(RandomCollection(&disk_, "docs", 40, 5, 30, 17));
  ServeOptions options;
  options.result_cache_entries = 0;  // caching disabled
  auto s = NewScheduler(options);
  std::vector<DCell> query = {{0, 1}, {2, 2}};

  ASSERT_TRUE(s->Submit(MakeQuery(query)).ok());
  auto first = s->Run();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE((*first)[0].cache_hit);

  // A write-heavy round can bump the epoch several times back to back;
  // with no cache the invalidations must be clean no-ops.
  const int64_t before = s->epoch("docs");
  ASSERT_TRUE(s->BumpEpoch("docs").ok());
  ASSERT_TRUE(s->BumpEpoch("docs").ok());
  EXPECT_EQ(s->epoch("docs"), before + 2);
  EXPECT_EQ(s->cache()->size(), 0);

  // Queries keep executing cold and agree with the pre-bump run.
  ASSERT_TRUE(s->Submit(MakeQuery(query)).ok());
  auto second = s->Run();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE((*second)[0].cache_hit);
  EXPECT_EQ((*second)[0].matches, (*first)[0].matches);
}

// ---------------------------------------------------------------------------
// Shared scans: same bits, fewer page reads.

TEST_F(ServingTest, SharedScansAreBitIdenticalAndReadFewerPages) {
  UseCollection(RandomCollection(&disk_, "docs", 200, 6, 50, 23));
  // Term 0 is Zipf-hot: its posting list spans several 256-byte pages,
  // more than the 2-page pool can hold, so every re-fetch pays real reads
  // unless it piggybacks on a same-round scan.
  std::vector<DCell> query = {{0, 1}, {1, 2}, {2, 1}};
  auto reference = ReferenceTopLambda(*col_, query, 5, SimilarityConfig{});

  auto run_with = [&](bool shared) {
    ServeOptions options;
    options.shared_scans = shared;
    options.result_cache_entries = 0;  // every query executes cold
    options.buffer_pool_pages = 2;
    auto s = NewScheduler(options);
    for (int i = 0; i < 3; ++i) {
      TEXTJOIN_CHECK_OK(s->Submit(MakeQuery(query, 5, 0)).status());
    }
    disk_.ResetStats();
    auto records = s->Run();
    TEXTJOIN_CHECK_OK(records.status());
    const int64_t reads = disk_.stats().total_reads();
    int64_t piggybacked = s->registrar().total_shared();
    for (const QueryRecord& r : *records) {
      EXPECT_EQ(r.outcome, "completed") << r.error;
      EXPECT_EQ(r.matches, reference)
          << (shared ? "shared" : "isolated") << " scan changed the result";
    }
    return std::pair<int64_t, int64_t>(reads, piggybacked);
  };

  auto [shared_reads, shared_count] = run_with(true);
  auto [isolated_reads, isolated_count] = run_with(false);
  EXPECT_GT(shared_count, 0) << "concurrent identical queries never shared";
  EXPECT_EQ(isolated_count, 0);
  EXPECT_LT(shared_reads, isolated_reads)
      << "piggybacked scans should save page reads under a tiny pool";
}

// ---------------------------------------------------------------------------
// Tenant quotas: hard isolation, degraded execution stays bit-identical.

TEST_F(ServingTest, TenantQuotasHoldAndSmallSlicesDegradeBitIdentically) {
  UseCollection(RandomCollection(&disk_, "docs", 200, 6, 50, 29));
  std::vector<DCell> query = {{0, 2}, {3, 1}, {5, 1}};
  auto reference = ReferenceTopLambda(*col_, query, 4, SimilarityConfig{});

  // 200 docs * 8 bytes / 256-byte pages = a 7-page accumulator; tenant a's
  // 2-page slice forces multi-partition (degraded) execution, tenant b's
  // 16 pages leave it whole.
  ServeOptions options;
  options.result_cache_entries = 0;
  options.buffer_pool_pages = 32;
  options.tenants = {{"a", 2}, {"b", 16}};
  auto s = NewScheduler(options);

  ServeQuery qa = MakeQuery(query, 4, 0);
  qa.tenant = "a";
  ServeQuery qb = MakeQuery(query, 4, 0);
  qb.tenant = "b";
  ASSERT_TRUE(s->Submit(qa).ok());
  ASSERT_TRUE(s->Submit(qb).ok());
  auto records = s->Run();
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 2u);

  const QueryRecord& ra = (*records)[0];
  const QueryRecord& rb = (*records)[1];
  ASSERT_EQ(ra.outcome, "completed") << ra.error;
  ASSERT_EQ(rb.outcome, "completed") << rb.error;
  EXPECT_EQ(ra.matches, reference)
      << "degraded (partitioned) execution changed the result";
  EXPECT_EQ(rb.matches, reference);
  EXPECT_TRUE(ra.governance.degraded)
      << "a 2-page slice of a 7-page accumulator must degrade";
  EXPECT_FALSE(rb.governance.degraded);
  // Degradation costs I/O, not correctness: the small slice re-fetched its
  // posting lists once per partition.
  EXPECT_GT(ra.serving.scan_fetches + ra.serving.shared_scans,
            rb.serving.scan_fetches + rb.serving.shared_scans);

  for (const QueryRecord& r : *records) {
    EXPECT_GT(r.serving.tenant_quota_pages, 0);
    EXPECT_LE(r.serving.tenant_peak_pages, r.serving.tenant_quota_pages)
        << "tenant " << r.tenant << " exceeded its hard quota";
  }
  EXPECT_GT(ra.serving.tenant_peak_pages, 0);
  EXPECT_EQ(s->pool()->pinned_frames(), 0) << "pins leaked past Run()";
}

// ---------------------------------------------------------------------------
// Repeated workload: the cache absorbs at least half the load.

TEST_F(ServingTest, RepeatedWorkloadHitsAtLeastHalfBitIdentically) {
  UseCollection(RandomCollection(&disk_, "docs", 60, 5, 40, 37));
  ServeOptions options;
  options.result_cache_entries = 16;
  auto s = NewScheduler(options);

  // 6 distinct query vectors, 48 arrivals: only the first occurrence of
  // each can miss.
  Rng rng(101);
  std::vector<std::vector<DCell>> pool;
  for (int i = 0; i < 6; ++i) {
    std::vector<DCell> cells;
    for (int t = 0; t < 3; ++t) {
      cells.push_back(DCell{static_cast<TermId>(rng.NextBounded(40)),
                            static_cast<Weight>(1 + rng.NextBounded(3))});
    }
    pool.push_back(std::move(cells));
  }
  std::vector<size_t> which;
  double arrival = 0;
  for (int i = 0; i < 48; ++i) {
    size_t idx = static_cast<size_t>(rng.NextBounded(pool.size()));
    which.push_back(idx);
    arrival += 1.0;
    ASSERT_TRUE(s->Submit(MakeQuery(pool[idx], 5, arrival)).ok());
  }
  auto records = s->Run();
  ASSERT_TRUE(records.ok()) << records.status();

  // Bit-identity across every repeat of the same vector.
  std::vector<std::optional<std::vector<Match>>> first_result(pool.size());
  int64_t hits = 0;
  for (size_t i = 0; i < records->size(); ++i) {
    const QueryRecord& r = (*records)[i];
    ASSERT_EQ(r.outcome, "completed") << r.error;
    if (r.cache_hit) ++hits;
    auto& expected = first_result[which[i]];
    if (!expected.has_value()) {
      expected = r.matches;
    } else {
      EXPECT_EQ(r.matches, *expected)
          << "repeat of query " << which[i] << " returned different bits";
    }
  }
  const auto& stats = s->cache()->stats();
  EXPECT_EQ(stats.hits, hits);
  EXPECT_GE(static_cast<double>(stats.hits),
            0.5 * static_cast<double>(stats.hits + stats.misses))
      << "repeated workload must be at least half absorbed by the cache";
}

// ---------------------------------------------------------------------------
// Input validation.

// A NaN or infinite arrival never becomes due, so Run() could not finish
// it: Submit and SubmitWrite reject it and enqueue nothing.
TEST_F(ServingTest, NonFiniteArrivalsAreRejected) {
  UseCollection(RandomCollection(&disk_, "docs", 40, 5, 30, 17));
  auto dc = DynamicCollection::Create(
      &disk_, "live", {Document::FromSortedCells({{1, 2}, {3, 1}})});
  ASSERT_TRUE(dc.ok()) << dc.status();
  auto s = NewScheduler(ServeOptions());
  ASSERT_TRUE(s->AddDynamicCollection("live", dc->get()).ok());
  const int64_t epoch = (*dc)->epoch();

  for (double arrival : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    ASSERT_EQ(s->Submit(MakeQuery({{0, 1}}, 5, arrival)).status().code(),
              StatusCode::kInvalidArgument)
        << arrival;
    ServeWrite write;
    write.collection = "live";
    write.cells = {{2, 1}};
    write.arrival_ms = arrival;
    ASSERT_EQ(s->SubmitWrite(write).status().code(),
              StatusCode::kInvalidArgument)
        << arrival;
  }
  auto records = s->Run();
  ASSERT_TRUE(records.ok()) << records.status();
  EXPECT_TRUE(records->empty());
  EXPECT_TRUE(s->TakeWriteRecords().empty());
  EXPECT_EQ((*dc)->epoch(), epoch) << "a rejected write must not apply";
}

// Decode bounds a posting's document number only by kMaxDocId. Serving a
// 10-document collection with the inverted file of a 30-document
// collection that shares its first ten documents is corruption: a query on
// the terms of documents 10-29 fails with DATA_LOSS naming one of them,
// rather than completing with those cells dropped.
TEST_F(ServingTest, PostingDocumentBeyondCollectionFailsTheQuery) {
  const DocumentCollection wide =
      RandomCollection(&disk_, "wide", 30, 5, 30, 41);
  std::vector<std::vector<DCell>> head;
  std::vector<DCell> query;
  for (DocId d = 0; d < 30; ++d) {
    auto doc = wide.ReadDocument(d);
    ASSERT_TRUE(doc.ok()) << doc.status();
    std::vector<DCell>& into = d < 10 ? head.emplace_back() : query;
    into.insert(into.end(), doc->cells().begin(), doc->cells().end());
  }
  col_.emplace(BuildCollection(&disk_, "docs", head));
  auto wide_index = InvertedFile::Build(&disk_, "wide.inv", wide);
  ASSERT_TRUE(wide_index.ok()) << wide_index.status();
  index_.emplace(std::move(wide_index).value());

  auto s = NewScheduler(ServeOptions());
  ASSERT_TRUE(s->Submit(MakeQuery(query)).ok());
  auto records = s->Run();
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 1u);
  const QueryRecord& r = records->front();
  EXPECT_EQ(r.outcome, "failed");
  EXPECT_TRUE(r.matches.empty());
  const int64_t named = DocumentNamedBy(Status::DataLoss(r.error));
  EXPECT_GE(named, 10) << r.error;
  EXPECT_LT(named, 30) << r.error;
}

// ---------------------------------------------------------------------------
// Randomized interleaving sweep (TEXTJOIN_STRESS_SEED).

TEST_F(ServingTest, InterleavingSweepKeepsEveryCompletionBitIdentical) {
  const uint64_t seed = 1234 + SeedOffset();
  UseCollection(
      RandomCollection(&disk_, "docs", 120, 5, 40, 9 + SeedOffset()));
  Rng rng(seed);

  SimilarityConfig config;
  config.cosine_normalize = rng.NextBounded(2) == 1;
  config.use_idf = rng.NextBounded(2) == 1;

  // Distinct query vectors with per-vector ground truth.
  std::vector<std::vector<DCell>> pool;
  std::vector<std::vector<Match>> reference;
  for (int i = 0; i < 10; ++i) {
    std::vector<DCell> cells;
    const uint64_t len = 1 + rng.NextBounded(4);
    for (uint64_t t = 0; t < len; ++t) {
      cells.push_back(DCell{static_cast<TermId>(rng.NextBounded(40)),
                            static_cast<Weight>(1 + rng.NextBounded(3))});
    }
    reference.push_back(ReferenceTopLambda(*col_, cells, 5, config));
    pool.push_back(std::move(cells));
  }

  ServeOptions options;
  options.result_cache_entries = 16;
  options.shared_scans = true;
  options.buffer_pool_pages = 24;
  options.tenants = {{"a", 8}, {"b", 8}};
  options.admission.max_concurrent = 3;
  options.admission.max_queue = 64;
  auto s = NewScheduler(options);

  std::vector<size_t> which;
  std::vector<bool> cancelled;
  double arrival = 0;
  for (int i = 0; i < 40; ++i) {
    arrival += static_cast<double>(rng.NextBounded(3));  // bursty arrivals
    size_t idx = static_cast<size_t>(rng.NextBounded(pool.size()));
    ServeQuery q = MakeQuery(pool[idx], 5, arrival);
    q.tenant = rng.NextBounded(2) == 0 ? "a" : "b";
    q.similarity = config;
    const bool cancel = rng.NextBounded(5) == 0;  // ~20% cancelled mid-run
    if (cancel) {
      q.cancel_at_checkpoint = 1 + static_cast<int64_t>(rng.NextBounded(4));
    }
    which.push_back(idx);
    cancelled.push_back(cancel);
    ASSERT_TRUE(s->Submit(q).ok());
  }

  auto records = s->Run();
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), which.size());
  int64_t completed = 0;
  for (size_t i = 0; i < records->size(); ++i) {
    const QueryRecord& r = (*records)[i];
    if (!cancelled[i]) {
      ASSERT_EQ(r.outcome, "completed")
          << "seed " << seed << " query " << i << ": " << r.error;
    }
    if (r.outcome == "completed") {
      ++completed;
      EXPECT_EQ(r.matches, reference[which[i]])
          << "seed " << seed << " query " << i << " (pool " << which[i]
          << ", tenant " << r.tenant << ", hit=" << r.cache_hit
          << ") diverged from the isolated reference";
    }
    EXPECT_LE(r.serving.tenant_peak_pages, r.serving.tenant_quota_pages)
        << "seed " << seed << " query " << i;
  }
  EXPECT_GT(completed, 0);
  EXPECT_EQ(s->pool()->pinned_frames(), 0)
      << "seed " << seed << ": pinned frames leaked";
}

}  // namespace
}  // namespace textjoin
