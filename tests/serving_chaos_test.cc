// Serving-tier chaos harness (serve/scheduler.h + dynamic/): a live
// write+query trace is replayed through the QueryScheduler and every
// completed query is checked BIT-IDENTICAL — scores compared with ==,
// tie-breaks compared through the merged-id order isomorphism — against a
// from-scratch rebuild of the collection at the query's admission epoch.
// On top of the clean trace the suite injects write faults, torn WAL
// tails and transient read faults, and drives the scheduler into
// overload so admission retries and compaction aborts fire.
//
// `scripts/check.sh serving-chaos` re-runs this binary under several
// values of TEXTJOIN_CHAOS_SEED; every trace below derives its workload
// from it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "dynamic/dynamic_collection.h"
#include "index/inverted_file.h"
#include "serve/scheduler.h"
#include "storage/disk_manager.h"
#include "storage/reliable_disk.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BuildCollection;

uint64_t SeedOffset() {
  const char* s = std::getenv("TEXTJOIN_CHAOS_SEED");
  return s == nullptr ? 0 : std::strtoull(s, nullptr, 10);
}

std::vector<DCell> RandomCells(Rng* rng, int64_t terms, int64_t vocab) {
  std::vector<char> used(static_cast<size_t>(vocab), 0);
  std::vector<DCell> cells;
  while (static_cast<int64_t>(cells.size()) < terms) {
    TermId t =
        static_cast<TermId>(rng->NextBounded(static_cast<uint64_t>(vocab)));
    if (used[t]) continue;
    used[t] = 1;
    cells.push_back(DCell{t, static_cast<Weight>(1 + rng->NextBounded(4))});
  }
  std::sort(cells.begin(), cells.end(),
            [](const DCell& a, const DCell& b) { return a.term < b.term; });
  return cells;
}

// ---------------------------------------------------------------------------
// The test's model of a dynamic collection: enough structure to predict
// the MERGED ids a snapshot assigns (base DocIds with holes, alive delta
// docs at base_n + j), not just the live contents.
// ---------------------------------------------------------------------------

struct ModelDoc {
  DocKey key = 0;
  std::vector<DCell> cells;
  bool alive = true;
};

struct ModelState {
  std::vector<ModelDoc> base;   // the generation's full doc list, id order
  std::vector<ModelDoc> delta;  // inserts since the generation was built
};

void ModelInsert(ModelState* st, DocKey key, std::vector<DCell> cells) {
  st->delta.push_back(ModelDoc{key, std::move(cells), true});
}

void ModelDelete(ModelState* st, DocKey key) {
  for (ModelDoc& d : st->base) {
    if (d.key == key && d.alive) {
      d.alive = false;
      return;
    }
  }
  for (ModelDoc& d : st->delta) {
    if (d.key == key && d.alive) {
      d.alive = false;
      return;
    }
  }
  FAIL() << "model delete of unknown key " << key;
}

// Folds the state the way a compaction does: alive base docs in id order,
// then alive delta docs in insertion order, become the new base.
void ModelCompact(ModelState* st) {
  std::vector<ModelDoc> folded;
  for (ModelDoc& d : st->base) {
    if (d.alive) folded.push_back(std::move(d));
  }
  for (ModelDoc& d : st->delta) {
    if (d.alive) folded.push_back(std::move(d));
  }
  st->base = std::move(folded);
  st->delta.clear();
}

struct LiveDoc {
  DocId merged_id = 0;  // the id a snapshot of this state reports
  DocKey key = 0;
  const std::vector<DCell>* cells = nullptr;
};

std::vector<LiveDoc> LiveDocs(const ModelState& st) {
  std::vector<LiveDoc> live;
  for (size_t i = 0; i < st.base.size(); ++i) {
    if (st.base[i].alive) {
      live.push_back(LiveDoc{static_cast<DocId>(i), st.base[i].key,
                             &st.base[i].cells});
    }
  }
  DocId next = static_cast<DocId>(st.base.size());
  for (const ModelDoc& d : st.delta) {
    // Snapshot delta ids are dense over ALIVE delta docs: base_n + j for
    // the j-th alive entry in insertion order.
    if (d.alive) live.push_back(LiveDoc{next++, d.key, &d.cells});
  }
  return live;
}

std::vector<DocKey> LiveKeysOf(const ModelState& st) {
  std::vector<DocKey> keys;
  for (const LiveDoc& d : LiveDocs(st)) keys.push_back(d.key);
  return keys;
}

// The acceptance reference: rebuild the model's live documents from
// scratch as a STATIC collection on a scratch disk and serve the same
// query through a fresh scheduler. The returned matches name documents by
// their dense rebuild ids (= positions in LiveDocs order).
std::vector<Match> RebuildAndServe(const ModelState& st,
                                   const std::vector<DCell>& query,
                                   int64_t lambda,
                                   const SimilarityConfig& config) {
  std::vector<std::vector<DCell>> docs;
  for (const LiveDoc& d : LiveDocs(st)) docs.push_back(*d.cells);
  TEXTJOIN_CHECK(!docs.empty());
  SimulatedDisk disk(512);
  DocumentCollection col = BuildCollection(&disk, "rebuild", docs);
  auto index = InvertedFile::Build(&disk, "rebuild.inv", col);
  TEXTJOIN_CHECK_OK(index.status());
  ServeOptions options;
  options.result_cache_entries = 0;
  QueryScheduler scheduler(&disk, nullptr, options);
  TEXTJOIN_CHECK_OK(scheduler.AddCollection("rebuild", &col, &*index));
  ServeQuery q;
  q.collection = "rebuild";
  q.cells = query;
  q.lambda = lambda;
  q.similarity = config;
  TEXTJOIN_CHECK_OK(scheduler.Submit(q).status());
  auto records = scheduler.Run();
  TEXTJOIN_CHECK_OK(records.status());
  TEXTJOIN_CHECK(records->size() == 1);
  TEXTJOIN_CHECK(records->front().outcome == "completed");
  return std::move(records->front().matches);
}

// Bit-identity through the order isomorphism: score i must match with ==
// and the i-th merged id must be the merged id of the i-th rebuild id.
void ExpectBitIdentical(const std::vector<Match>& got,
                        const std::vector<Match>& rebuilt,
                        const std::vector<LiveDoc>& live) {
  ASSERT_EQ(got.size(), rebuilt.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("match " + std::to_string(i));
    EXPECT_EQ(got[i].score, rebuilt[i].score);
    ASSERT_LT(rebuilt[i].doc, live.size());
    EXPECT_EQ(got[i].doc, live[rebuilt[i].doc].merged_id);
  }
}

// Reconstructs the model state at every epoch a snapshot could have
// pinned, from the applied write records' epoch_after sequence. Inserts
// and deletes apply in epoch order; a compact folds the state the job
// BEGAN from (its record's arrival_ms is stamped to the apply time) and
// re-applies the carried writes that landed while it ran.
std::map<int64_t, ModelState> BuildCheckpoints(
    ModelState initial, int64_t initial_epoch,
    const std::vector<WriteRecord>& records,
    const std::map<int64_t, std::vector<DCell>>& insert_cells) {
  std::vector<const WriteRecord*> applied;
  for (const WriteRecord& r : records) {
    if (r.outcome == "applied") applied.push_back(&r);
  }
  std::sort(applied.begin(), applied.end(),
            [](const WriteRecord* a, const WriteRecord* b) {
              return a->epoch_after < b->epoch_after;
            });

  std::map<int64_t, ModelState> cp;
  cp[initial_epoch] = initial;
  ModelState state = std::move(initial);
  for (const WriteRecord* r : applied) {
    if (r->kind == "insert") {
      ModelInsert(&state, r->key, insert_cells.at(r->id));
    } else if (r->kind == "delete") {
      ModelDelete(&state, r->key);
    } else {
      // The job began from the newest state whose write had finished by
      // the compact's apply time; everything applied after that and
      // before the install is a carried record.
      int64_t begin_epoch = initial_epoch;
      for (const WriteRecord* w : applied) {
        if (w != r && w->finish_ms <= r->arrival_ms &&
            w->epoch_after < r->epoch_after) {
          begin_epoch = std::max(begin_epoch, w->epoch_after);
        }
      }
      ModelState folded = cp.at(begin_epoch);
      ModelCompact(&folded);
      for (const WriteRecord* w : applied) {
        if (w->kind == "compact" || w->epoch_after <= begin_epoch ||
            w->epoch_after >= r->epoch_after) {
          continue;
        }
        if (w->kind == "insert") {
          ModelInsert(&folded, w->key, insert_cells.at(w->id));
        } else {
          ModelDelete(&folded, w->key);
        }
      }
      // A compaction must never change the logical contents.
      EXPECT_EQ(LiveKeysOf(folded), LiveKeysOf(state))
          << "compact write " << r->id << " changed the live set";
      state = std::move(folded);
    }
    cp[r->epoch_after] = state;
  }
  return cp;
}

// ---------------------------------------------------------------------------
// Shared fixture pieces: a seeded initial collection and query pool.
// ---------------------------------------------------------------------------

struct Workload {
  std::vector<std::vector<DCell>> initial;
  std::vector<std::vector<DCell>> queries;
  SimilarityConfig config;
};

Workload MakeWorkload(uint64_t seed, size_t initial_docs, size_t pool) {
  Rng rng(seed);
  Workload w;
  for (size_t i = 0; i < initial_docs; ++i) {
    w.initial.push_back(RandomCells(&rng, 4, 24));
  }
  for (size_t i = 0; i < pool; ++i) {
    w.queries.push_back(RandomCells(&rng, 1 + rng.NextBounded(3), 24));
  }
  w.config.cosine_normalize = rng.NextBounded(2) == 1;
  w.config.use_idf = rng.NextBounded(2) == 1;
  return w;
}

std::vector<Document> Docs(const std::vector<std::vector<DCell>>& cells) {
  std::vector<Document> docs;
  for (const auto& c : cells) docs.push_back(Document::FromSortedCells(c));
  return docs;
}

ModelState InitialState(const Workload& w) {
  ModelState st;
  for (size_t i = 0; i < w.initial.size(); ++i) {
    st.base.push_back(
        ModelDoc{static_cast<DocKey>(i) + 1, w.initial[i], true});
  }
  return st;
}

// Verifies every completed query of `records` against a rebuild at its
// admission epoch, and that no query pinned an epoch outside the
// checkpoint set (a torn epoch).
void VerifyQueriesAgainstCheckpoints(
    const std::vector<QueryRecord>& records,
    const std::vector<std::vector<DCell>>& submitted_cells,
    int64_t lambda, const SimilarityConfig& config,
    const std::map<int64_t, ModelState>& checkpoints) {
  for (size_t i = 0; i < records.size(); ++i) {
    const QueryRecord& r = records[i];
    if (r.outcome != "completed") continue;
    SCOPED_TRACE("query " + std::to_string(i) + " at epoch " +
                 std::to_string(r.serving.snapshot_epoch));
    auto it = checkpoints.find(r.serving.snapshot_epoch);
    ASSERT_NE(it, checkpoints.end())
        << "query pinned an epoch no write produced (torn epoch)";
    const ModelState& st = it->second;
    auto rebuilt = RebuildAndServe(st, submitted_cells[i], lambda, config);
    ExpectBitIdentical(r.matches, rebuilt, LiveDocs(st));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// The clean churn trace: interleaved queries, inserts, deletes and
// background compactions. Every completed query is bit-identical to a
// rebuild at its admission epoch; every acked write lands.
// ---------------------------------------------------------------------------

// One run of the churn trace drawn from `seed`, scored under `config`.
void RunChurnTrace(uint64_t seed, const SimilarityConfig& config) {
  const Workload w = MakeWorkload(seed, 24, 8);
  Rng rng(seed ^ 0x9E3779B97F4A7C15ull);

  SimulatedDisk disk(512);
  auto dc = DynamicCollection::Create(&disk, "dyn", Docs(w.initial));
  ASSERT_TRUE(dc.ok()) << dc.status();

  ServeOptions options;
  options.result_cache_entries = 16;
  options.shared_scans = true;
  options.buffer_pool_pages = 16;
  options.admission.max_concurrent = 3;
  options.admission.max_queue = 64;
  options.compact_docs_per_slice = 8;  // several slices per job
  QueryScheduler scheduler(&disk, nullptr, options);
  ASSERT_TRUE(scheduler.AddDynamicCollection("dyn", dc->get()).ok());
  const int64_t initial_epoch = scheduler.epoch("dyn");

  // The trace: 60 events at strictly increasing arrivals, roughly one
  // write for every two queries, a background compaction every 10 writes.
  // Key prediction mirrors the CLI: initial docs hold 1..N, the k-th
  // submitted insert gets N+k, deletes pick live keys.
  std::vector<DocKey> live_keys;
  for (size_t k = 1; k <= w.initial.size(); ++k) {
    live_keys.push_back(static_cast<DocKey>(k));
  }
  DocKey next_key = static_cast<DocKey>(w.initial.size()) + 1;
  std::map<int64_t, std::vector<DCell>> insert_cells;  // write id -> cells
  std::vector<std::vector<DCell>> submitted;           // per query record
  int64_t writes = 0;
  double arrival = 0;
  for (int i = 0; i < 60; ++i) {
    arrival += 0.11 + 0.07 * static_cast<double>(rng.NextBounded(10));
    if (rng.NextBounded(3) == 0) {
      ServeWrite write;
      write.collection = "dyn";
      write.arrival_ms = arrival;
      if (live_keys.size() > 6 && rng.NextBounded(3) == 0) {
        write.kind = ServeWrite::Kind::kDelete;
        const uint64_t pick = rng.NextBounded(live_keys.size());
        write.key = live_keys[pick];
        live_keys[pick] = live_keys.back();
        live_keys.pop_back();
      } else {
        write.kind = ServeWrite::Kind::kInsert;
        write.cells = RandomCells(&rng, 4, 24);
        live_keys.push_back(next_key++);
      }
      auto id = scheduler.SubmitWrite(write);
      ASSERT_TRUE(id.ok()) << id.status();
      if (write.kind == ServeWrite::Kind::kInsert) {
        insert_cells[*id] = write.cells;
      }
      if (++writes % 10 == 0) {
        ServeWrite compact;
        compact.kind = ServeWrite::Kind::kCompact;
        compact.collection = "dyn";
        compact.arrival_ms = arrival;
        ASSERT_TRUE(scheduler.SubmitWrite(compact).ok());
      }
      continue;
    }
    ServeQuery q;
    q.collection = "dyn";
    q.cells = w.queries[rng.NextBounded(w.queries.size())];
    q.lambda = 5;
    q.similarity = config;
    q.arrival_ms = arrival;
    submitted.push_back(q.cells);
    ASSERT_TRUE(scheduler.Submit(q).ok());
  }

  auto records = scheduler.Run();
  ASSERT_TRUE(records.ok()) << records.status();
  const std::vector<WriteRecord> wrecords = scheduler.TakeWriteRecords();

  // Every acked write applied; every compaction ran in slices.
  int64_t applied = 0, compacts = 0;
  for (const WriteRecord& r : wrecords) {
    ASSERT_EQ(r.outcome, "applied")
        << "seed " << seed << " write " << r.id << " (" << r.kind
        << "): " << r.error;
    ++applied;
    if (r.kind == "compact") {
      ++compacts;
      EXPECT_GT(r.slices, 1) << "compaction should take several slices";
      EXPECT_GT(r.epoch_after, 0);
    }
  }
  EXPECT_GT(applied, 10);
  EXPECT_GT(compacts, 0);

  auto checkpoints = BuildCheckpoints(InitialState(w), initial_epoch,
                                      wrecords, insert_cells);
  if (::testing::Test::HasFatalFailure()) return;

  // The final checkpoint must agree with the real collection.
  EXPECT_EQ(LiveKeysOf(checkpoints.rbegin()->second), (*dc)->LiveKeys());

  int64_t completed = 0;
  for (const QueryRecord& r : *records) {
    ASSERT_EQ(r.outcome, "completed")
        << "seed " << seed << " query " << r.id << ": " << r.error;
    ++completed;
  }
  EXPECT_GT(completed, 20);
  ASSERT_EQ(records->size(), submitted.size());
  VerifyQueriesAgainstCheckpoints(*records, submitted, 5, config,
                                  checkpoints);
}

// The same trace under every cosine x idf configuration, so idf is scored
// under writes and compaction at every seed.
TEST(ServingChaosTest, ChurnTraceIsBitIdenticalAtEveryAdmissionEpoch) {
  const uint64_t seed = 4242 + SeedOffset();
  for (const bool cosine : {false, true}) {
    for (const bool idf : {false, true}) {
      SCOPED_TRACE(std::string("cosine=") + (cosine ? "1" : "0") +
                   " idf=" + (idf ? "1" : "0"));
      RunChurnTrace(seed, SimilarityConfig{cosine, idf});
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Write faults: a failed WAL append wounds the collection; queries keep
// serving the last good snapshot; reopen + reattach recovers every acked
// write and drops the unacked one.
// ---------------------------------------------------------------------------

TEST(ServingChaosTest, WriteFaultWoundsReopenRecoversAckedWrites) {
  const uint64_t seed = 77 + SeedOffset();
  const Workload w = MakeWorkload(seed, 12, 4);
  Rng rng(seed ^ 0x6A09E667F3BCC909ull);

  SimulatedDisk disk(512);
  auto dc = DynamicCollection::Create(&disk, "dyn", Docs(w.initial));
  ASSERT_TRUE(dc.ok()) << dc.status();

  ServeOptions options;
  options.result_cache_entries = 8;
  QueryScheduler scheduler(&disk, nullptr, options);
  ASSERT_TRUE(scheduler.AddDynamicCollection("dyn", dc->get()).ok());

  // Phase 1: a few acked writes.
  ModelState model = InitialState(w);
  DocKey next_key = static_cast<DocKey>(w.initial.size()) + 1;
  double arrival = 0;
  for (int i = 0; i < 4; ++i) {
    arrival += 0.5;
    ServeWrite write;
    write.collection = "dyn";
    write.arrival_ms = arrival;
    if (i == 2) {
      write.kind = ServeWrite::Kind::kDelete;
      write.key = 3;
      ModelDelete(&model, 3);
    } else {
      write.kind = ServeWrite::Kind::kInsert;
      write.cells = RandomCells(&rng, 4, 24);
      ModelInsert(&model, next_key++, write.cells);
    }
    ASSERT_TRUE(scheduler.SubmitWrite(write).ok());
  }
  ASSERT_TRUE(scheduler.Run().ok());
  for (const WriteRecord& r : scheduler.TakeWriteRecords()) {
    ASSERT_EQ(r.outcome, "applied") << r.error;
  }
  const int64_t acked_records = 4;

  // Phase 2: the next WAL append dies. The write fails, the collection is
  // wounded, and a concurrent query still completes against the last good
  // snapshot, bit-identical to a rebuild of the acked state.
  disk.InjectWriteFault(0);
  {
    ServeWrite doomed;
    doomed.kind = ServeWrite::Kind::kInsert;
    doomed.collection = "dyn";
    doomed.cells = RandomCells(&rng, 4, 24);
    doomed.arrival_ms = arrival + 1;
    ASSERT_TRUE(scheduler.SubmitWrite(doomed).ok());
    ServeQuery q;
    q.collection = "dyn";
    q.cells = w.queries[0];
    q.lambda = 5;
    q.similarity = w.config;
    q.arrival_ms = arrival + 2;
    ASSERT_TRUE(scheduler.Submit(q).ok());
    auto records = scheduler.Run();
    ASSERT_TRUE(records.ok()) << records.status();
    auto wrecords = scheduler.TakeWriteRecords();
    ASSERT_EQ(wrecords.size(), 1u);
    EXPECT_EQ(wrecords[0].outcome, "failed");
    EXPECT_TRUE(scheduler.wounded("dyn"));
    ASSERT_EQ(records->size(), 1u);
    ASSERT_EQ((*records)[0].outcome, "completed") << (*records)[0].error;
    auto rebuilt = RebuildAndServe(model, w.queries[0], 5, w.config);
    ExpectBitIdentical((*records)[0].matches, rebuilt, LiveDocs(model));
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Wounded fail-fast: further writes are rejected without touching the
  // broken log; queries still serve.
  {
    ServeWrite write;
    write.kind = ServeWrite::Kind::kDelete;
    write.collection = "dyn";
    write.key = 1;
    ASSERT_TRUE(scheduler.SubmitWrite(write).ok());
    ASSERT_TRUE(scheduler.Run().ok());
    auto wrecords = scheduler.TakeWriteRecords();
    ASSERT_EQ(wrecords.size(), 1u);
    EXPECT_EQ(wrecords[0].outcome, "failed");
    EXPECT_NE(wrecords[0].error.find("wounded"), std::string::npos)
        << wrecords[0].error;
  }

  // Recovery: reopen from the device, reattach, and continue. The clean
  // fault never hit the platter, so replay yields exactly the acked
  // history — every acked write survives, the unacked one is gone.
  disk.ClearWriteFault();
  dc->reset();
  auto reopened = DynamicCollection::Open(&disk, "dyn");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->last_recovery().records_replayed, acked_records);
  ASSERT_EQ((*reopened)->LiveKeys(), LiveKeysOf(model));
  ASSERT_TRUE(scheduler.ReattachDynamic("dyn", reopened->get()).ok());
  EXPECT_FALSE(scheduler.wounded("dyn"));

  // Writes and queries flow again.
  {
    ServeWrite write;
    write.kind = ServeWrite::Kind::kInsert;
    write.collection = "dyn";
    write.cells = RandomCells(&rng, 4, 24);
    ASSERT_TRUE(scheduler.SubmitWrite(write).ok());
    ServeQuery q;
    q.collection = "dyn";
    q.cells = w.queries[1];
    q.lambda = 5;
    q.similarity = w.config;
    q.arrival_ms = 1;
    ASSERT_TRUE(scheduler.Submit(q).ok());
    auto records = scheduler.Run();
    ASSERT_TRUE(records.ok()) << records.status();
    auto wrecords = scheduler.TakeWriteRecords();
    ASSERT_EQ(wrecords.size(), 1u);
    ASSERT_EQ(wrecords[0].outcome, "applied") << wrecords[0].error;
    ModelInsert(&model, wrecords[0].key, write.cells);
    ASSERT_EQ((*records)[0].outcome, "completed") << (*records)[0].error;
    auto rebuilt = RebuildAndServe(model, w.queries[1], 5, w.config);
    ExpectBitIdentical((*records)[0].matches, rebuilt, LiveDocs(model));
  }
}

// ---------------------------------------------------------------------------
// Torn writes: a torn WAL append reopens into EXACTLY the pre-write or
// post-write state — never a hybrid — and serving resumes either way.
// ---------------------------------------------------------------------------

TEST(ServingChaosTest, TornWalAppendReopensPreOrPostNeverHybrid) {
  const uint64_t seed = 131 + SeedOffset();
  const Workload w = MakeWorkload(seed, 12, 4);
  Rng rng(seed ^ 0xA5A5A5A5DEADBEEFull);

  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    SimulatedDisk disk(512);
    auto dc = DynamicCollection::Create(&disk, "dyn", Docs(w.initial));
    ASSERT_TRUE(dc.ok()) << dc.status();
    ServeOptions options;
    QueryScheduler scheduler(&disk, nullptr, options);
    ASSERT_TRUE(scheduler.AddDynamicCollection("dyn", dc->get()).ok());

    ModelState model = InitialState(w);
    DocKey next_key = static_cast<DocKey>(w.initial.size()) + 1;
    ServeWrite warmup;
    warmup.kind = ServeWrite::Kind::kInsert;
    warmup.collection = "dyn";
    warmup.cells = RandomCells(&rng, 4, 24);
    ASSERT_TRUE(scheduler.SubmitWrite(warmup).ok());
    ASSERT_TRUE(scheduler.Run().ok());
    ASSERT_EQ(scheduler.TakeWriteRecords()[0].outcome, "applied");
    ModelInsert(&model, next_key++, warmup.cells);

    // Tear the next append at a random byte boundary.
    disk.InjectTornWrite(0, static_cast<int64_t>(rng.NextBounded(513)));
    ServeWrite torn;
    torn.kind = ServeWrite::Kind::kInsert;
    torn.collection = "dyn";
    torn.cells = RandomCells(&rng, 4, 24);
    ASSERT_TRUE(scheduler.SubmitWrite(torn).ok());
    ASSERT_TRUE(scheduler.Run().ok());
    ASSERT_EQ(scheduler.TakeWriteRecords()[0].outcome, "failed");
    EXPECT_TRUE(scheduler.wounded("dyn"));
    disk.ClearWriteFault();

    // The crash: drop the in-memory state, recover from the device.
    dc->reset();
    auto reopened = DynamicCollection::Open(&disk, "dyn");
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    ModelState post = model;
    ModelInsert(&post, next_key, torn.cells);
    const std::vector<DocKey> keys = (*reopened)->LiveKeys();
    if (keys == LiveKeysOf(post)) {
      // The tear happened to land the whole record: durable, replayed.
      model = std::move(post);
      ++next_key;
    } else {
      ASSERT_EQ(keys, LiveKeysOf(model)) << "hybrid state after torn write";
    }

    // Serving resumes on the recovered state, bit-identical to a rebuild.
    ASSERT_TRUE(scheduler.ReattachDynamic("dyn", reopened->get()).ok());
    ServeQuery q;
    q.collection = "dyn";
    q.cells = w.queries[trial % w.queries.size()];
    q.lambda = 5;
    q.similarity = w.config;
    ASSERT_TRUE(scheduler.Submit(q).ok());
    auto records = scheduler.Run();
    ASSERT_TRUE(records.ok()) << records.status();
    ASSERT_EQ((*records)[0].outcome, "completed") << (*records)[0].error;
    auto rebuilt = RebuildAndServe(model, q.cells, 5, w.config);
    ExpectBitIdentical((*records)[0].matches, rebuilt, LiveDocs(model));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Transient read faults: behind a ReliableDisk, a faulty device serves
// the same churn trace with every query and write landing identically to
// the clean run.
// ---------------------------------------------------------------------------

TEST(ServingChaosTest, TransientReadFaultsAreAbsorbedBitIdentically) {
  const uint64_t seed = 209 + SeedOffset();
  const Workload w = MakeWorkload(seed, 20, 6);

  // One deterministic trace, replayed twice: fault-free and faulty.
  auto run_trace = [&](bool faulty) {
    SimulatedDisk base(512);
    RetryPolicy policy;
    policy.max_attempts = 8;
    ReliableDisk disk(&base, policy);
    auto dc = DynamicCollection::Create(&disk, "dyn", Docs(w.initial));
    TEXTJOIN_CHECK_OK(dc.status());
    ServeOptions options;
    options.result_cache_entries = 8;
    options.compact_docs_per_slice = 8;
    QueryScheduler scheduler(&disk, nullptr, options);
    TEXTJOIN_CHECK_OK(scheduler.AddDynamicCollection("dyn", dc->get()));
    if (faulty) {
      FaultSchedule schedule;
      schedule.seed = seed;
      schedule.transient_rate = 0.05;
      schedule.corruption_rate = 0.05;
      base.set_fault_schedule(schedule);
    }

    Rng rng(seed ^ 0xBF58476D1CE4E5B9ull);
    double arrival = 0;
    int64_t writes = 0;
    for (int i = 0; i < 30; ++i) {
      arrival += 0.4;
      if (rng.NextBounded(3) == 0) {
        ServeWrite write;
        write.collection = "dyn";
        write.arrival_ms = arrival;
        write.kind = ServeWrite::Kind::kInsert;
        write.cells = RandomCells(&rng, 4, 24);
        TEXTJOIN_CHECK_OK(scheduler.SubmitWrite(write).status());
        if (++writes == 5) {
          ServeWrite compact;
          compact.kind = ServeWrite::Kind::kCompact;
          compact.collection = "dyn";
          compact.arrival_ms = arrival;
          TEXTJOIN_CHECK_OK(scheduler.SubmitWrite(compact).status());
        }
        continue;
      }
      ServeQuery q;
      q.collection = "dyn";
      q.cells = w.queries[rng.NextBounded(w.queries.size())];
      q.lambda = 5;
      q.similarity = w.config;
      q.arrival_ms = arrival;
      TEXTJOIN_CHECK_OK(scheduler.Submit(q).status());
    }
    auto records = scheduler.Run();
    TEXTJOIN_CHECK_OK(records.status());
    auto wrecords = scheduler.TakeWriteRecords();
    return std::make_pair(std::move(records).value(), std::move(wrecords));
  };

  auto [clean_q, clean_w] = run_trace(false);
  auto [faulty_q, faulty_w] = run_trace(true);

  ASSERT_EQ(clean_w.size(), faulty_w.size());
  for (size_t i = 0; i < clean_w.size(); ++i) {
    EXPECT_EQ(faulty_w[i].outcome, clean_w[i].outcome)
        << "write " << i << ": " << faulty_w[i].error;
    EXPECT_EQ(faulty_w[i].key, clean_w[i].key);
    EXPECT_EQ(faulty_w[i].epoch_after, clean_w[i].epoch_after);
  }
  ASSERT_EQ(clean_q.size(), faulty_q.size());
  int64_t completed = 0;
  for (size_t i = 0; i < clean_q.size(); ++i) {
    ASSERT_EQ(clean_q[i].outcome, "completed") << clean_q[i].error;
    ASSERT_EQ(faulty_q[i].outcome, "completed")
        << "query " << i << " under read faults: " << faulty_q[i].error;
    ++completed;
    ASSERT_EQ(faulty_q[i].matches.size(), clean_q[i].matches.size());
    for (size_t j = 0; j < clean_q[i].matches.size(); ++j) {
      EXPECT_EQ(faulty_q[i].matches[j].doc, clean_q[i].matches[j].doc);
      EXPECT_EQ(faulty_q[i].matches[j].score, clean_q[i].matches[j].score);
    }
  }
  EXPECT_GT(completed, 10);
}

// ---------------------------------------------------------------------------
// Overload: shed queries get bounded deterministic retry-with-backoff and
// still return the same bits; with retry disabled they shed outright.
// ---------------------------------------------------------------------------

TEST(ServingChaosTest, OverloadRetriesCompleteBitIdentically) {
  const uint64_t seed = 307 + SeedOffset();
  const Workload w = MakeWorkload(seed, 20, 6);

  SimulatedDisk disk(512);
  auto dc = DynamicCollection::Create(&disk, "dyn", Docs(w.initial));
  ASSERT_TRUE(dc.ok()) << dc.status();

  ServeOptions options;
  options.result_cache_entries = 0;  // every query executes cold
  options.admission.max_concurrent = 1;
  options.admission.max_queue = 0;  // excess arrivals shed immediately
  options.retry.max_attempts = 4;
  options.retry.initial_backoff_ms = 2.0;
  QueryScheduler scheduler(&disk, nullptr, options);
  ASSERT_TRUE(scheduler.AddDynamicCollection("dyn", dc->get()).ok());

  // A burst at t=0: one runs, the rest must retry their way in.
  const int kBurst = 5;
  for (int i = 0; i < kBurst; ++i) {
    ServeQuery q;
    q.collection = "dyn";
    q.cells = w.queries[i % w.queries.size()];
    q.lambda = 5;
    q.similarity = w.config;
    q.arrival_ms = 0;
    ASSERT_TRUE(scheduler.Submit(q).ok());
  }
  auto records = scheduler.Run();
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), static_cast<size_t>(kBurst));

  const ModelState model = InitialState(w);
  int64_t retried_completions = 0;
  for (int i = 0; i < kBurst; ++i) {
    const QueryRecord& r = (*records)[i];
    if (r.outcome != "completed") {
      EXPECT_EQ(r.outcome, "shed");
      continue;
    }
    if (r.serving.admission_retries > 0) {
      ++retried_completions;
      // The ordeal is priced into the latency: finish - ORIGINAL arrival.
      EXPECT_GT(r.latency_ms, 0);
    }
    auto rebuilt =
        RebuildAndServe(model, w.queries[i % w.queries.size()], 5, w.config);
    ExpectBitIdentical(r.matches, rebuilt, LiveDocs(model));
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(retried_completions, 0)
      << "the burst should force at least one retried completion";

  // Retry disabled: the same burst sheds all but the head-of-line query.
  ServeOptions no_retry = options;
  no_retry.retry.max_attempts = 0;
  QueryScheduler strict(&disk, nullptr, no_retry);
  ASSERT_TRUE(strict.AddDynamicCollection("dyn", dc->get()).ok());
  for (int i = 0; i < kBurst; ++i) {
    ServeQuery q;
    q.collection = "dyn";
    q.cells = w.queries[i % w.queries.size()];
    q.lambda = 5;
    q.similarity = w.config;
    q.arrival_ms = 0;
    ASSERT_TRUE(strict.Submit(q).ok());
  }
  auto strict_records = strict.Run();
  ASSERT_TRUE(strict_records.ok()) << strict_records.status();
  int64_t shed = 0;
  for (const QueryRecord& r : *strict_records) {
    if (r.outcome == "shed") {
      ++shed;
      EXPECT_EQ(r.serving.admission_retries, 0);
    }
  }
  EXPECT_GT(shed, 0) << "without retry the burst must shed";
}

// ---------------------------------------------------------------------------
// Compaction under overload: abort-on-shed sacrifices the rewrite, the
// collection stays healthy, and a calm retry folds successfully.
// ---------------------------------------------------------------------------

TEST(ServingChaosTest, CompactionAbortsOnShedAndRetriesCleanly) {
  const uint64_t seed = 401 + SeedOffset();
  const Workload w = MakeWorkload(seed, 24, 4);
  Rng rng(seed ^ 0x94D049BB133111EBull);

  SimulatedDisk disk(512);
  auto dc = DynamicCollection::Create(&disk, "dyn", Docs(w.initial));
  ASSERT_TRUE(dc.ok()) << dc.status();

  ServeOptions options;
  options.result_cache_entries = 0;
  options.admission.max_concurrent = 1;
  options.admission.max_queue = 0;
  options.retry.max_attempts = 0;
  options.compact_docs_per_slice = 2;  // a long job: many chances to abort
  options.compact_abort_on_shed = true;
  QueryScheduler scheduler(&disk, nullptr, options);
  ASSERT_TRUE(scheduler.AddDynamicCollection("dyn", dc->get()).ok());

  // Some churn so the compaction has work to fold.
  ModelState model = InitialState(w);
  DocKey next_key = static_cast<DocKey>(w.initial.size()) + 1;
  for (int i = 0; i < 3; ++i) {
    ServeWrite write;
    write.kind = ServeWrite::Kind::kInsert;
    write.collection = "dyn";
    write.cells = RandomCells(&rng, 4, 24);
    ASSERT_TRUE(scheduler.SubmitWrite(write).ok());
    ModelInsert(&model, next_key++, write.cells);
  }
  ASSERT_TRUE(scheduler.Run().ok());
  for (const WriteRecord& r : scheduler.TakeWriteRecords()) {
    ASSERT_EQ(r.outcome, "applied") << r.error;
  }

  // The overloaded round: a background compaction arrives with a burst of
  // queries; the burst sheds, and the shed kills the rewrite.
  ServeWrite compact;
  compact.kind = ServeWrite::Kind::kCompact;
  compact.collection = "dyn";
  compact.arrival_ms = 0;
  ASSERT_TRUE(scheduler.SubmitWrite(compact).ok());
  for (int i = 0; i < 4; ++i) {
    ServeQuery q;
    q.collection = "dyn";
    q.cells = w.queries[i % w.queries.size()];
    q.lambda = 5;
    q.similarity = w.config;
    q.arrival_ms = 0;
    ASSERT_TRUE(scheduler.Submit(q).ok());
  }
  auto records = scheduler.Run();
  ASSERT_TRUE(records.ok()) << records.status();
  auto wrecords = scheduler.TakeWriteRecords();
  ASSERT_EQ(wrecords.size(), 1u);
  EXPECT_EQ(wrecords[0].outcome, "aborted") << wrecords[0].error;
  EXPECT_FALSE(scheduler.wounded("dyn"));
  const int64_t gen_before = (*dc)->generation();

  // Completed queries from the overloaded round still serve the pre-fold
  // contents (the abort never installed anything).
  int64_t completed = 0;
  for (size_t i = 0; i < records->size(); ++i) {
    const QueryRecord& r = (*records)[i];
    if (r.outcome != "completed") continue;
    ++completed;
    auto rebuilt = RebuildAndServe(model, w.queries[i % w.queries.size()], 5,
                                   w.config);
    ExpectBitIdentical(r.matches, rebuilt, LiveDocs(model));
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(completed, 0);

  // Calm seas: the retry folds, the generation advances, contents hold.
  ServeWrite retry_compact;
  retry_compact.kind = ServeWrite::Kind::kCompact;
  retry_compact.collection = "dyn";
  ASSERT_TRUE(scheduler.SubmitWrite(retry_compact).ok());
  ASSERT_TRUE(scheduler.Run().ok());
  auto wrecords2 = scheduler.TakeWriteRecords();
  ASSERT_EQ(wrecords2.size(), 1u);
  ASSERT_EQ(wrecords2[0].outcome, "applied") << wrecords2[0].error;
  EXPECT_GT((*dc)->generation(), gen_before);
  EXPECT_EQ((*dc)->LiveKeys(), LiveKeysOf(model));

  // Post-fold queries are bit-identical to a rebuild (the fold renumbered
  // the merged ids; the model's fold must agree).
  ModelCompact(&model);
  ServeQuery q;
  q.collection = "dyn";
  q.cells = w.queries[1];
  q.lambda = 5;
  q.similarity = w.config;
  ASSERT_TRUE(scheduler.Submit(q).ok());
  auto post = scheduler.Run();
  ASSERT_TRUE(post.ok()) << post.status();
  ASSERT_EQ((*post)[0].outcome, "completed") << (*post)[0].error;
  auto rebuilt = RebuildAndServe(model, w.queries[1], 5, w.config);
  ExpectBitIdentical((*post)[0].matches, rebuilt, LiveDocs(model));
}

// ---------------------------------------------------------------------------
// Shared scans over a delta-bearing collection: a foreground compaction
// lands MID-ROUND between two identical queries; the second must not ride
// the first's scan of the retired generation.
// ---------------------------------------------------------------------------

TEST(ServingChaosTest, MidRoundGenerationSwapDoesNotLeakSharedScans) {
  const uint64_t seed = 503 + SeedOffset();
  const Workload w = MakeWorkload(seed, 16, 2);
  Rng rng(seed ^ 0xD6E8FEB86659FD93ull);

  SimulatedDisk disk(512);
  auto dc = DynamicCollection::Create(&disk, "dyn", Docs(w.initial));
  ASSERT_TRUE(dc.ok()) << dc.status();

  // Delta-bearing from the start: an insert and a delete precede the race.
  ServeOptions options;
  options.shared_scans = true;
  options.result_cache_entries = 8;
  QueryScheduler scheduler(&disk, nullptr, options);
  ASSERT_TRUE(scheduler.AddDynamicCollection("dyn", dc->get()).ok());

  ModelState model = InitialState(w);
  DocKey next_key = static_cast<DocKey>(w.initial.size()) + 1;
  {
    ServeWrite ins;
    ins.kind = ServeWrite::Kind::kInsert;
    ins.collection = "dyn";
    ins.cells = RandomCells(&rng, 4, 24);
    ASSERT_TRUE(scheduler.SubmitWrite(ins).ok());
    ModelInsert(&model, next_key++, ins.cells);
    ServeWrite del;
    del.kind = ServeWrite::Kind::kDelete;
    del.collection = "dyn";
    del.key = 2;
    del.arrival_ms = 0.01;
    ASSERT_TRUE(scheduler.SubmitWrite(del).ok());
    ModelDelete(&model, 2);
    ASSERT_TRUE(scheduler.Run().ok());
    for (const WriteRecord& r : scheduler.TakeWriteRecords()) {
      ASSERT_EQ(r.outcome, "applied") << r.error;
    }
  }
  const ModelState pre = model;

  // The race: query A (multi-term, multi-round) admits at the old
  // generation; an insert + FOREGROUND compaction land mid-round; query B
  // (identical cells) admits at the new generation in the same round.
  // A's posting fetches hit the old generation's file, B's the new one.
  const std::vector<DCell>& cells = w.queries[0];
  ServeQuery qa;
  qa.collection = "dyn";
  qa.cells = cells;
  qa.lambda = 5;
  qa.similarity = w.config;
  qa.arrival_ms = 0;
  ASSERT_TRUE(scheduler.Submit(qa).ok());

  ServeWrite ins;
  ins.kind = ServeWrite::Kind::kInsert;
  ins.collection = "dyn";
  ins.cells = cells;  // the inserted doc matches the query exactly
  ins.arrival_ms = 0.02;
  ASSERT_TRUE(scheduler.SubmitWrite(ins).ok());
  ServeWrite fold;
  fold.kind = ServeWrite::Kind::kCompact;
  fold.collection = "dyn";
  fold.foreground = true;
  fold.arrival_ms = 0.03;
  ASSERT_TRUE(scheduler.SubmitWrite(fold).ok());

  ServeQuery qb = qa;
  qb.arrival_ms = 0.04;
  ASSERT_TRUE(scheduler.Submit(qb).ok());

  auto records = scheduler.Run();
  ASSERT_TRUE(records.ok()) << records.status();
  for (const WriteRecord& r : scheduler.TakeWriteRecords()) {
    ASSERT_EQ(r.outcome, "applied") << r.kind << ": " << r.error;
  }
  ASSERT_EQ(records->size(), 2u);
  const QueryRecord& ra = (*records)[0];
  const QueryRecord& rb = (*records)[1];
  ASSERT_EQ(ra.outcome, "completed") << ra.error;
  ASSERT_EQ(rb.outcome, "completed") << rb.error;
  EXPECT_LT(ra.serving.snapshot_epoch, rb.serving.snapshot_epoch);
  EXPECT_FALSE(rb.cache_hit) << "identical cells, different epoch: the "
                                "cache key must not collide";

  // A sees the pre-write snapshot; B sees the folded state including the
  // mid-round insert — each bit-identical to its own rebuild.
  auto rebuilt_a = RebuildAndServe(pre, cells, 5, w.config);
  ExpectBitIdentical(ra.matches, rebuilt_a, LiveDocs(pre));
  if (::testing::Test::HasFatalFailure()) return;

  ModelState post = pre;
  ModelInsert(&post, next_key++, cells);
  ModelCompact(&post);  // the foreground fold ran before B admitted
  auto rebuilt_b = RebuildAndServe(post, cells, 5, w.config);
  ExpectBitIdentical(rb.matches, rebuilt_b, LiveDocs(post));
  if (::testing::Test::HasFatalFailure()) return;

  // B must surface the freshly inserted exact-match document.
  bool found = false;
  const std::vector<LiveDoc> post_live = LiveDocs(post);
  for (const Match& m : rb.matches) {
    for (const LiveDoc& d : post_live) {
      if (d.merged_id == m.doc && d.key == next_key - 1) found = true;
    }
  }
  EXPECT_TRUE(found)
      << "the mid-round insert is live at B's epoch and matches exactly";
}

}  // namespace
}  // namespace textjoin
