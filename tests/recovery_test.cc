#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "dynamic/delta_join.h"
#include "dynamic/dynamic_collection.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "relational/database.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BuildCollection;
using testing_util::JoinFixture;
using testing_util::MakeFixture;
using testing_util::RandomCollection;

// Crash-point sweeps honour the same seed environment variable as the
// chaos suite, so scripts/check.sh recovery can sweep schedules.
uint64_t SeedOffset() {
  const char* s = std::getenv("TEXTJOIN_CHAOS_SEED");
  return s == nullptr ? 0 : std::strtoull(s, nullptr, 10);
}

std::vector<uint8_t> Bytes(size_t n, uint8_t fill) {
  return std::vector<uint8_t>(n, fill);
}

// ---------------------------------------------------------------------------
// WAL record format and recovery classification.
// ---------------------------------------------------------------------------

TEST(WalTest, AppendRecoverRoundTrip) {
  SimulatedDisk disk(128);
  auto wal = WalWriter::Create(&disk, "log");
  ASSERT_TRUE(wal.ok());
  // Payload sizes chosen to exercise empty payloads, page-spanning records
  // and tail-page read-modify-writes.
  const std::vector<std::pair<WalRecordType, std::vector<uint8_t>>> records =
      {{WalRecordType::kInsert, Bytes(10, 1)},
       {WalRecordType::kDelete, Bytes(0, 0)},
       {WalRecordType::kInsert, Bytes(300, 2)},
       {WalRecordType::kDelete, Bytes(127, 3)}};
  for (const auto& [type, payload] : records) {
    ASSERT_TRUE(wal->Append(type, payload).ok());
  }
  auto rec = RecoverWal(&disk, wal->file());
  ASSERT_TRUE(rec.ok()) << rec.status();
  ASSERT_EQ(rec->records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(rec->records[i].type, records[i].first);
    EXPECT_EQ(rec->records[i].seq, i + 1);
    EXPECT_EQ(rec->records[i].payload, records[i].second);
  }
  EXPECT_EQ(rec->committed_bytes, wal->committed_bytes());
  EXPECT_EQ(rec->tail_bytes_discarded, 0);
  EXPECT_EQ(rec->next_seq, records.size() + 1);
}

TEST(WalTest, EmptyLogRecoversEmpty) {
  SimulatedDisk disk(128);
  auto wal = WalWriter::Create(&disk, "log");
  ASSERT_TRUE(wal.ok());
  auto rec = RecoverWal(&disk, wal->file());
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->records.empty());
  EXPECT_EQ(rec->committed_bytes, 0);
  EXPECT_EQ(rec->next_seq, 1u);
}

TEST(WalTest, TornTailDiscardedAndLogReusable) {
  SimulatedDisk disk(128);
  auto wal = WalWriter::Create(&disk, "log");
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kInsert, Bytes(10, 1)).ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kDelete, Bytes(5, 2)).ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kInsert, Bytes(40, 3)).ok());
  const int64_t committed = wal->committed_bytes();  // 31 + 26 + 61 = 118

  // Crash mid-append: the tail-page rewrite lands only a prefix of the
  // fourth record before the device dies.
  disk.InjectTornWrite(0, 125);
  Status failed = wal->Append(WalRecordType::kInsert, Bytes(200, 5));
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  disk.ClearWriteFault();

  auto rec = RecoverWal(&disk, wal->file());
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->records.size(), 3u);
  EXPECT_EQ(rec->committed_bytes, committed);
  EXPECT_LE(rec->tail_bytes_discarded, 7);
  EXPECT_EQ(rec->next_seq, 4u);

  // Open zeroes the torn region; the log accepts appends again and the
  // re-recovered history is the three survivors plus the new record.
  auto reopened = WalWriter::Open(&disk, wal->file(), *rec);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened->Append(WalRecordType::kDelete, Bytes(8, 9)).ok());
  auto rec2 = RecoverWal(&disk, wal->file());
  ASSERT_TRUE(rec2.ok()) << rec2.status();
  ASSERT_EQ(rec2->records.size(), 4u);
  EXPECT_EQ(rec2->records[3].seq, 4u);
  EXPECT_EQ(rec2->records[3].payload, Bytes(8, 9));
  EXPECT_EQ(rec2->tail_bytes_discarded, 0);
}

TEST(WalTest, TornWriteCoveringWholeRecordIsDurable) {
  // A torn write that happens to land the entire record is the post-write
  // state: the append reports failure, but recovery replays the record.
  SimulatedDisk disk(128);
  auto wal = WalWriter::Create(&disk, "log");
  ASSERT_TRUE(wal.ok());
  disk.InjectTornWrite(0, 128);
  EXPECT_EQ(wal->Append(WalRecordType::kInsert, Bytes(10, 4)).code(),
            StatusCode::kUnavailable);
  disk.ClearWriteFault();
  auto rec = RecoverWal(&disk, wal->file());
  ASSERT_TRUE(rec.ok()) << rec.status();
  ASSERT_EQ(rec->records.size(), 1u);
  EXPECT_EQ(rec->records[0].payload, Bytes(10, 4));
}

TEST(WalTest, FlippedByteMidLogIsDataLoss) {
  SimulatedDisk disk(128);
  auto wal = WalWriter::Create(&disk, "log");
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kInsert, Bytes(10, 1)).ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kDelete, Bytes(5, 2)).ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kInsert, Bytes(40, 3)).ok());

  // Damage the FIRST record: valid records follow, so this cannot be a
  // torn append — it must surface as corruption, never silent truncation.
  std::vector<uint8_t> page(128);
  ASSERT_TRUE(disk.PeekPage(wal->file(), 0, page.data()).ok());
  page[0] ^= 0xFF;
  ASSERT_TRUE(disk.WritePage(wal->file(), 0, page.data(), 128).ok());
  EXPECT_EQ(RecoverWal(&disk, wal->file()).status().code(),
            StatusCode::kDataLoss);
}

TEST(WalTest, FlippedByteInFinalRecordIsTornTail) {
  SimulatedDisk disk(128);
  auto wal = WalWriter::Create(&disk, "log");
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kInsert, Bytes(10, 1)).ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kDelete, Bytes(5, 2)).ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kInsert, Bytes(40, 3)).ok());

  // Damage the LAST record's payload. Indistinguishable from a torn final
  // append, so the policy is to discard it — losing an unacknowledged
  // suffix, never producing wrong data.
  std::vector<uint8_t> page(128);
  ASSERT_TRUE(disk.PeekPage(wal->file(), 0, page.data()).ok());
  page[117] ^= 0xFF;  // last payload byte: 31 + 26 + 61 = 118 total
  ASSERT_TRUE(disk.WritePage(wal->file(), 0, page.data(), 128).ok());
  auto rec = RecoverWal(&disk, wal->file());
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->records.size(), 2u);
  EXPECT_EQ(rec->committed_bytes, 57);  // 31 + 26
  EXPECT_EQ(rec->tail_bytes_discarded, 61);
}

// ---------------------------------------------------------------------------
// Dynamic collection crash-point harness.
// ---------------------------------------------------------------------------

struct Op {
  bool is_insert = false;
  std::vector<DCell> cells;  // insert
  DocKey del_key = 0;        // delete
};

// A scripted workload: an initial collection plus a mutation sequence
// covering base deletes, delta deletes and interleaved inserts.
struct Script {
  std::vector<std::vector<DCell>> initial;
  std::vector<Op> ops;
};

std::vector<DCell> RandomCells(Rng* rng, int64_t terms, int64_t vocab) {
  std::vector<char> used(static_cast<size_t>(vocab), 0);
  std::vector<DCell> cells;
  while (static_cast<int64_t>(cells.size()) < terms) {
    TermId t = static_cast<TermId>(rng->NextBounded(
        static_cast<uint64_t>(vocab)));
    if (used[t]) continue;
    used[t] = 1;
    cells.push_back(DCell{t, static_cast<Weight>(1 + rng->NextBounded(4))});
  }
  std::sort(cells.begin(), cells.end(),
            [](const DCell& a, const DCell& b) { return a.term < b.term; });
  return cells;
}

Script MakeScript(uint64_t seed) {
  Rng rng(seed);
  Script script;
  for (int i = 0; i < 10; ++i) {
    script.initial.push_back(RandomCells(&rng, 4, 24));
  }
  // Keys: initial docs get 1..10; inserts then 11, 12, 13.
  script.ops.push_back(Op{true, RandomCells(&rng, 4, 24), 0});
  script.ops.push_back(Op{false, {}, 3});   // base delete
  script.ops.push_back(Op{true, RandomCells(&rng, 4, 24), 0});
  script.ops.push_back(Op{false, {}, 11});  // delta delete
  script.ops.push_back(Op{true, RandomCells(&rng, 4, 24), 0});
  script.ops.push_back(Op{false, {}, 7});   // base delete
  return script;
}

std::vector<Document> Docs(const std::vector<std::vector<DCell>>& cells) {
  std::vector<Document> docs;
  docs.reserve(cells.size());
  for (const auto& c : cells) docs.push_back(Document::FromSortedCells(c));
  return docs;
}

// The test's own model of the live contents, in merged-id order (base
// docs in generation order, then alive delta docs in insertion order).
using Model = std::vector<std::pair<DocKey, std::vector<DCell>>>;

Model InitialModel(const Script& script) {
  Model m;
  for (size_t i = 0; i < script.initial.size(); ++i) {
    m.emplace_back(static_cast<DocKey>(i) + 1, script.initial[i]);
  }
  return m;
}

void ApplyToModel(Model* m, const Op& op, DocKey* next_key) {
  if (op.is_insert) {
    m->emplace_back((*next_key)++, op.cells);
    return;
  }
  for (auto it = m->begin(); it != m->end(); ++it) {
    if (it->first == op.del_key) {
      m->erase(it);
      return;
    }
  }
  FAIL() << "script deletes unknown key " << op.del_key;
}

std::vector<DocKey> ModelKeys(const Model& m) {
  std::vector<DocKey> keys;
  keys.reserve(m.size());
  for (const auto& [key, cells] : m) keys.push_back(key);
  return keys;
}

Status ApplyOp(DynamicCollection* dc, const Op& op) {
  if (op.is_insert) {
    return dc->Insert(Document::FromSortedCells(op.cells)).status();
  }
  return dc->Delete(op.del_key);
}

// The core acceptance check: a self-join of the dynamic collection under
// each executor must be bit-identical (scores compared with ==) to the
// same executor over a from-scratch rebuild of the live documents.
void VerifyMatchesRebuild(const DynamicCollection& dc, const Model& model,
                          const SimilarityConfig& config) {
  ASSERT_EQ(dc.LiveKeys(), ModelKeys(model));
  if (model.empty()) return;

  const int64_t page_size = dc.base().disk()->page_size();
  SimulatedDisk ref_disk(page_size);
  std::vector<std::vector<DCell>> docs;
  docs.reserve(model.size());
  for (const auto& [key, cells] : model) docs.push_back(cells);
  auto fixture = MakeFixture(&ref_disk,
                             BuildCollection(&ref_disk, "ref_i", docs),
                             BuildCollection(&ref_disk, "ref_o", docs),
                             config);
  JoinSpec spec;
  spec.lambda = 4;
  spec.similarity = config;
  JoinContext ref_ctx = fixture->Context(1000);

  DynamicJoinSide side = MakeJoinSide(dc);
  SystemParams sys{1000, page_size, 5.0};

  // merged doc id -> live position (the dense id a rebuild would assign).
  std::unordered_map<DocId, int64_t> pos;
  {
    int64_t p = 0;
    for (int64_t d = 0; d < dc.base().num_documents(); ++d) {
      if (dc.base_alive()[d]) pos[static_cast<DocId>(d)] = p++;
    }
    for (size_t j = 0; j < side.delta.size(); ++j) {
      pos[static_cast<DocId>(dc.base().num_documents() + j)] = p++;
    }
  }

  for (Algorithm algo :
       {Algorithm::kHhnl, Algorithm::kHvnl, Algorithm::kVvm}) {
    SCOPED_TRACE(AlgorithmName(algo));
    Result<JoinResult> ref(Status::OK());
    switch (algo) {
      case Algorithm::kHhnl:
        ref = HhnlJoin().Run(ref_ctx, spec);
        break;
      case Algorithm::kHvnl:
        ref = HvnlJoin().Run(ref_ctx, spec);
        break;
      case Algorithm::kVvm:
        ref = VvmJoin().Run(ref_ctx, spec);
        break;
    }
    ASSERT_TRUE(ref.ok()) << ref.status();
    Result<JoinResult> dyn =
        DynamicJoin(side, side, spec, sys, nullptr, nullptr, &algo);
    ASSERT_TRUE(dyn.ok()) << dyn.status();
    ASSERT_EQ(dyn->size(), ref->size());
    for (size_t i = 0; i < ref->size(); ++i) {
      SCOPED_TRACE("outer row " + std::to_string(i));
      EXPECT_EQ(pos.at((*dyn)[i].outer_doc),
                static_cast<int64_t>((*ref)[i].outer_doc));
      ASSERT_EQ((*dyn)[i].matches.size(), (*ref)[i].matches.size());
      for (size_t j = 0; j < (*ref)[i].matches.size(); ++j) {
        EXPECT_EQ(pos.at((*dyn)[i].matches[j].doc),
                  static_cast<int64_t>((*ref)[i].matches[j].doc));
        EXPECT_EQ((*dyn)[i].matches[j].score, (*ref)[i].matches[j].score);
      }
    }
  }
}

SimilarityConfig HardestConfig() {
  SimilarityConfig config;
  config.cosine_normalize = true;
  config.use_idf = true;
  return config;
}

TEST(DynamicCollectionTest, InsertDeleteCompactReopenRoundTrip) {
  const uint64_t seed = 91 + SeedOffset();
  const Script script = MakeScript(seed);
  SimulatedDisk disk(512);
  auto dc = DynamicCollection::Create(&disk, "dyn", Docs(script.initial));
  ASSERT_TRUE(dc.ok()) << dc.status();

  Model model = InitialModel(script);
  DocKey next_key = static_cast<DocKey>(script.initial.size()) + 1;
  for (const Op& op : script.ops) {
    ASSERT_TRUE(ApplyOp(dc->get(), op).ok());
    ApplyToModel(&model, op, &next_key);
    if (::testing::Test::HasFatalFailure()) return;
  }
  VerifyMatchesRebuild(**dc, model, HardestConfig());
  if (::testing::Test::HasFatalFailure()) return;

  // Compaction folds everything; contents and join results are unchanged.
  const int64_t epoch_before = (*dc)->epoch();
  ASSERT_TRUE((*dc)->Compact().ok());
  EXPECT_EQ((*dc)->epoch(), epoch_before + 1);
  EXPECT_EQ((*dc)->generation(), 2);
  EXPECT_EQ((*dc)->wal_bytes(), 0);
  VerifyMatchesRebuild(**dc, model, HardestConfig());
  if (::testing::Test::HasFatalFailure()) return;

  // Mutate past the compaction, reopen from the device, verify replay.
  ASSERT_TRUE((*dc)->Delete(model.front().first).ok());
  model.erase(model.begin());
  dc->reset();
  auto reopened = DynamicCollection::Open(&disk, "dyn");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->last_recovery().records_replayed, 1);
  VerifyMatchesRebuild(**reopened, model, HardestConfig());
}

TEST(DynamicJoinTest, MatchesRebuildAcrossConfigs) {
  const uint64_t seed = 17 + SeedOffset();
  const Script script = MakeScript(seed);
  SimulatedDisk disk(512);
  auto dc = DynamicCollection::Create(&disk, "dyn", Docs(script.initial));
  ASSERT_TRUE(dc.ok()) << dc.status();
  Model model = InitialModel(script);
  DocKey next_key = static_cast<DocKey>(script.initial.size()) + 1;
  for (const Op& op : script.ops) {
    ASSERT_TRUE(ApplyOp(dc->get(), op).ok());
    ApplyToModel(&model, op, &next_key);
    if (::testing::Test::HasFatalFailure()) return;
  }
  SimilarityConfig plain;
  SimilarityConfig cosine;
  cosine.cosine_normalize = true;
  for (const SimilarityConfig& config :
       {plain, cosine, HardestConfig()}) {
    VerifyMatchesRebuild(**dc, model, config);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Every term's idf factor under `sim`, as bits (the scripts' vocabulary
// is 24 terms).
std::vector<uint64_t> TermFactorBits(const SimilarityContext& sim) {
  std::vector<uint64_t> bits;
  for (TermId t = 0; t < 24; ++t) {
    bits.push_back(std::bit_cast<uint64_t>(sim.TermFactor(t)));
  }
  return bits;
}

// The norm of every document of `view` (base ids, then delta) under `sim`,
// as bits.
std::vector<uint64_t> NormBits(const SimilarityContext& sim,
                               const DynamicJoinSide& view) {
  std::vector<uint64_t> bits;
  const size_t n = static_cast<size_t>(view.base->num_documents()) +
                   view.delta.size();
  for (size_t d = 0; d < n; ++d) {
    bits.push_back(std::bit_cast<uint64_t>(
        sim.inner_norms.of(static_cast<DocId>(d))));
  }
  return bits;
}

// A frozen view shares the collection's deleted-df map instead of copying
// any df, and live df is built only when idf scores: without idf, or over
// a clean view, the similarity owns no map.
TEST(DynamicJoinTest, FrozenViewPinsDeletedDfAndBuildsLiveDfOnlyUnderIdf) {
  const Script script = MakeScript(53 + SeedOffset());
  SimulatedDisk disk(512);
  auto dc = DynamicCollection::Create(&disk, "dyn", Docs(script.initial));
  ASSERT_TRUE(dc.ok()) << dc.status();
  const DynamicJoinSide clean = FrozenJoinSide(**dc);
  ASSERT_TRUE(clean.clean());
  ASSERT_TRUE((*dc)->Delete(3).ok());

  const DynamicJoinSide view = FrozenJoinSide(**dc);
  ASSERT_FALSE(view.clean());
  const auto pinned = (*dc)->deleted_df();
  EXPECT_EQ(view.deleted_df, pinned.get());
  EXPECT_FALSE(pinned->empty());
  for (const bool cosine : {false, true}) {
    for (const bool idf : {false, true}) {
      SCOPED_TRACE(std::string("cosine=") + (cosine ? "1" : "0") +
                   " idf=" + (idf ? "1" : "0"));
      const SimilarityConfig config{cosine, idf};
      auto sim = ViewSimilarity(view, nullptr, config);
      ASSERT_TRUE(sim.ok()) << sim.status();
      EXPECT_EQ(sim->owned != nullptr, idf);
      auto joined = ViewSimilarity(clean, &view, config);
      ASSERT_TRUE(joined.ok()) << joined.status();
      EXPECT_EQ(joined->owned != nullptr, idf);
      auto borrowed = ViewSimilarity(clean, nullptr, config);
      ASSERT_TRUE(borrowed.ok()) << borrowed.status();
      EXPECT_EQ(borrowed->owned, nullptr);
    }
  }

  // The next delete copies the shared map; the pinned one is unchanged.
  const IdfWeights::DfMap before = *pinned;
  ASSERT_TRUE((*dc)->Delete(7).ok());
  EXPECT_NE((*dc)->deleted_df().get(), pinned.get());
  EXPECT_EQ(*pinned, before);
  EXPECT_EQ(view.deleted_df, pinned.get());
}

// A frozen view scores the same, bit for bit, before and after later base
// deletes, an insert, a delta delete and a compaction; a fresh view of the
// mutated collection does not.
TEST(DynamicJoinTest, FrozenViewScoresIdenticallyAfterLaterWrites) {
  const uint64_t seed = 61 + SeedOffset();
  const Script script = MakeScript(seed);
  Rng rng(seed);
  SimulatedDisk disk(512);
  auto dc = DynamicCollection::Create(&disk, "dyn", Docs(script.initial));
  ASSERT_TRUE(dc.ok()) << dc.status();
  // Keys 1..10 are the base; the inserts get 11 and 12.
  for (const Op& op : {Op{true, RandomCells(&rng, 4, 24), 0},
                       Op{false, {}, 3},
                       Op{true, RandomCells(&rng, 4, 24), 0}}) {
    ASSERT_TRUE(ApplyOp(dc->get(), op).ok());
  }
  const DynamicJoinSide view = FrozenJoinSide(**dc);
  ASSERT_FALSE(view.clean());
  auto before = ViewSimilarity(view, nullptr, HardestConfig());
  ASSERT_TRUE(before.ok()) << before.status();

  for (const Op& op : {Op{false, {}, 7}, Op{false, {}, 1},
                       Op{true, RandomCells(&rng, 4, 24), 0},
                       Op{false, {}, 11}}) {
    ASSERT_TRUE(ApplyOp(dc->get(), op).ok());
  }
  ASSERT_TRUE((*dc)->Compact().ok());

  auto after = ViewSimilarity(view, nullptr, HardestConfig());
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(TermFactorBits(*after), TermFactorBits(*before));
  EXPECT_EQ(NormBits(*after, view), NormBits(*before, view));

  const DynamicJoinSide fresh = FrozenJoinSide(**dc);
  auto now = ViewSimilarity(fresh, nullptr, HardestConfig());
  ASSERT_TRUE(now.ok()) << now.status();
  EXPECT_NE(TermFactorBits(*now), TermFactorBits(*before));
}

// A delta on the outer side, joined to a static inner narrowed by an
// inner_subset: every executor must return the bits of the same executor,
// same subset, over a rebuild of the outer's live documents.
TEST(DynamicJoinTest, OuterDeltaWithInnerSubsetMatchesRebuild) {
  const uint64_t seed = 29 + SeedOffset();
  Rng rng(seed);
  std::vector<std::vector<DCell>> inner_docs;
  for (int i = 0; i < 12; ++i) inner_docs.push_back(RandomCells(&rng, 4, 24));
  const Script script = MakeScript(seed);
  SimulatedDisk disk(512);
  auto dc = DynamicCollection::Create(&disk, "dyn", Docs(script.initial));
  ASSERT_TRUE(dc.ok()) << dc.status();
  Model model = InitialModel(script);
  DocKey next_key = static_cast<DocKey>(script.initial.size()) + 1;
  for (const Op& op : {Op{true, RandomCells(&rng, 4, 24), 0},
                       Op{true, RandomCells(&rng, 4, 24), 0},
                       Op{false, {}, 4},
                       Op{true, RandomCells(&rng, 4, 24), 0}}) {
    ASSERT_TRUE(ApplyOp(dc->get(), op).ok());
    ApplyToModel(&model, op, &next_key);
    if (::testing::Test::HasFatalFailure()) return;
  }
  const DocumentCollection inner = BuildCollection(&disk, "c1", inner_docs);
  auto inner_index = InvertedFile::Build(&disk, "c1.inv", inner);
  ASSERT_TRUE(inner_index.ok()) << inner_index.status();

  SimulatedDisk ref_disk(512);
  std::vector<std::vector<DCell>> live;
  for (const auto& [key, cells] : model) live.push_back(cells);
  auto ref = MakeFixture(&ref_disk,
                         BuildCollection(&ref_disk, "ref_i", inner_docs),
                         BuildCollection(&ref_disk, "ref_o", live),
                         HardestConfig());
  JoinSpec spec;
  spec.lambda = 3;
  spec.similarity = HardestConfig();
  spec.inner_subset = {1, 3, 4, 7, 10};

  const DynamicJoinSide outer_side = MakeJoinSide(**dc);
  ASSERT_FALSE(outer_side.clean());
  const DynamicJoinSide inner_side = MakeJoinSide(inner, &*inner_index);
  // merged outer id -> live position (the dense id a rebuild assigns).
  std::unordered_map<DocId, DocId> pos;
  for (int64_t d = 0; d < (*dc)->base().num_documents(); ++d) {
    if ((*dc)->base_alive()[d]) {
      pos.emplace(static_cast<DocId>(d), static_cast<DocId>(pos.size()));
    }
  }
  for (size_t j = 0; j < outer_side.delta.size(); ++j) {
    pos.emplace(static_cast<DocId>((*dc)->base().num_documents() + j),
                static_cast<DocId>(pos.size()));
  }
  for (Algorithm algo :
       {Algorithm::kHhnl, Algorithm::kHvnl, Algorithm::kVvm}) {
    SCOPED_TRACE(AlgorithmName(algo));
    auto want = RunAlgorithm(algo, false, ref->Context(1000), spec);
    ASSERT_TRUE(want.ok()) << want.status();
    auto got = DynamicJoin(inner_side, outer_side, spec,
                           SystemParams{1000, 512, 5.0}, nullptr, nullptr,
                           &algo);
    ASSERT_TRUE(got.ok()) << got.status();
    for (OuterMatches& row : *got) row.outer_doc = pos.at(row.outer_doc);
    EXPECT_EQ(*got, *want);
  }
}

// The delta path scores from documents alone. C1's inverted file here names
// documents past C1 (it indexes a 60-document collection, standing for the
// 40-document C1), and the outer's only live documents are its delta, so no
// executor runs: the join must read no posting and return a WeightedDot
// brute force of the delta against C1, scores and tie-breaks.
TEST(DynamicJoinTest, DeltaOuterRowsReadNoPosting) {
  for (const bool cosine : {false, true}) {
    SimulatedDisk disk(256);
    const DocumentCollection c1 =
        RandomCollection(&disk, "c1", 40, 6, 50, 121);
    const DocumentCollection wide =
        RandomCollection(&disk, "wide", 60, 6, 50, 343);
    auto wide_index = InvertedFile::Build(&disk, "wide.inv", wide);
    ASSERT_TRUE(wide_index.ok());
    Rng rng(232);
    std::vector<std::vector<DCell>> base_docs;
    for (int i = 0; i < 5; ++i) base_docs.push_back(RandomCells(&rng, 5, 50));
    auto dc = DynamicCollection::Create(&disk, "dyn", Docs(base_docs));
    ASSERT_TRUE(dc.ok()) << dc.status();
    for (DocKey key = 1; key <= 5; ++key) ASSERT_TRUE((*dc)->Delete(key).ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE((*dc)->Insert(Document::FromSortedCells(
                                    RandomCells(&rng, 5, 50)))
                      .ok());
    }
    const DynamicJoinSide inner = MakeJoinSide(c1, &*wide_index);
    const DynamicJoinSide outer = MakeJoinSide(**dc);
    JoinSpec spec;
    spec.lambda = 4;
    spec.similarity.cosine_normalize = cosine;
    auto sim = ViewSimilarity(inner, &outer, spec.similarity);
    ASSERT_TRUE(sim.ok()) << sim.status();
    JoinResult want;
    for (size_t j = 0; j < outer.delta.size(); ++j) {
      const DocId o = static_cast<DocId>(5 + j);
      TopKAccumulator heap(spec.lambda);
      for (DocId i = 0; i < 40; ++i) {
        auto d1 = c1.ReadDocument(i);
        ASSERT_TRUE(d1.ok()) << d1.status();
        const double acc = WeightedDot(*d1, *outer.delta[j], *sim);
        if (acc > 0) heap.Add(i, sim->Finalize(acc, i, o));
      }
      want.push_back(OuterMatches{o, heap.TakeSorted()});
    }
    for (Algorithm algo : {Algorithm::kHvnl, Algorithm::kVvm}) {
      SCOPED_TRACE(std::string(AlgorithmName(algo)) +
                   (cosine ? ", cosine" : ", raw"));
      auto got = DynamicJoin(inner, outer, spec, SystemParams{100, 256, 5.0},
                             nullptr, nullptr, &algo);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, want);
    }
  }
}

// Delta-outer rows stream the inner base once, whatever their number: under
// each executor a join whose outer has 16 delta documents reads the pages
// of one whose outer has 1.
TEST(DynamicJoinTest, DeltaOuterRowsReadInnerBaseOnce) {
  SimilarityConfig config;
  config.cosine_normalize = true;
  config.use_idf = true;
  JoinSpec spec;
  spec.lambda = 10;
  spec.similarity = config;
  for (Algorithm algo :
       {Algorithm::kHhnl, Algorithm::kHvnl, Algorithm::kVvm}) {
    SCOPED_TRACE(AlgorithmName(algo));
    std::vector<IoStats> reads;
    for (const int k : {1, 16}) {
      SimulatedDisk disk(512);
      const DocumentCollection c1 =
          RandomCollection(&disk, "c1", 400, 8, 200, 401);
      auto c1_index = InvertedFile::Build(&disk, "c1.inv", c1);
      ASSERT_TRUE(c1_index.ok());
      Rng rng(402);
      std::vector<std::vector<DCell>> base_docs;
      for (int i = 0; i < 100; ++i) {
        base_docs.push_back(RandomCells(&rng, 8, 200));
      }
      auto dc = DynamicCollection::Create(&disk, "c2", Docs(base_docs));
      ASSERT_TRUE(dc.ok()) << dc.status();
      for (int i = 0; i < k; ++i) {
        ASSERT_TRUE((*dc)->Insert(Document::FromSortedCells(
                                      RandomCells(&rng, 8, 200)))
                        .ok());
      }
      disk.ResetHeads();
      const IoStats before = disk.stats();
      auto got = DynamicJoin(MakeJoinSide(c1, &*c1_index), MakeJoinSide(**dc),
                             spec, SystemParams{64, 512, 5.0}, nullptr,
                             nullptr, &algo);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->size(), 100u + k);
      reads.push_back(disk.stats() - before);
    }
    EXPECT_EQ(reads[1].sequential_reads, reads[0].sequential_reads);
    EXPECT_EQ(reads[1].random_reads, reads[0].random_reads);
  }
}

TEST(DynamicCollectionTest, CorruptWalSurfacesAsDataLoss) {
  SimulatedDisk disk(512);
  auto dc = DynamicCollection::Create(
      &disk, "dyn", Docs(MakeScript(5).initial));
  ASSERT_TRUE(dc.ok());
  ASSERT_TRUE((*dc)->Insert(Document::FromSortedCells(
                               {DCell{1, 2}, DCell{4, 1}}))
                  .ok());
  ASSERT_TRUE((*dc)->Insert(Document::FromSortedCells(
                               {DCell{2, 3}, DCell{9, 1}}))
                  .ok());
  dc->reset();

  auto wal_file = disk.FindFile("dyn.g1.wal");
  ASSERT_TRUE(wal_file.ok());
  std::vector<uint8_t> page(512);
  ASSERT_TRUE(disk.PeekPage(*wal_file, 0, page.data()).ok());
  page[2] ^= 0x10;  // inside the first record's header
  ASSERT_TRUE(disk.WritePage(*wal_file, 0, page.data(), 512).ok());

  EXPECT_EQ(DynamicCollection::Open(&disk, "dyn").status().code(),
            StatusCode::kDataLoss);
}

TEST(DynamicCollectionTest, CorruptManifestSurfacesAsDataLoss) {
  SimulatedDisk disk(512);
  auto dc = DynamicCollection::Create(
      &disk, "dyn", Docs(MakeScript(6).initial));
  ASSERT_TRUE(dc.ok());
  dc->reset();

  auto manifest = disk.FindFile("dyn.dyn.manifest");
  ASSERT_TRUE(manifest.ok());
  for (PageNumber p = 0; p < 2; ++p) {
    std::vector<uint8_t> page(512);
    ASSERT_TRUE(disk.PeekPage(*manifest, p, page.data()).ok());
    page[8] ^= 0xFF;
    ASSERT_TRUE(disk.WritePage(*manifest, p, page.data(), 512).ok());
  }
  EXPECT_EQ(DynamicCollection::Open(&disk, "dyn").status().code(),
            StatusCode::kDataLoss);
}

// Crashes injected at every write of every mutation, in both plain-fail
// and torn-write mode. After each crash the collection must reopen into
// EXACTLY the pre-write or post-write state — never a hybrid, never a
// silent loss — and every executor must match a rebuild of that state.
TEST(CrashPointTest, EveryWalAppendCrashPoint) {
  const uint64_t seed = 91 + SeedOffset();
  const Script script = MakeScript(seed);
  Rng keep_rng(seed ^ 0x9E3779B97F4A7C15ull);

  for (size_t k = 0; k < script.ops.size(); ++k) {
    for (int mode = 0; mode < 2; ++mode) {
      for (int64_t w = 0;; ++w) {
        SCOPED_TRACE("op " + std::to_string(k) + (mode == 0 ? " fail" : " torn") +
                     " write " + std::to_string(w));
        SimulatedDisk disk(512);
        auto dc =
            DynamicCollection::Create(&disk, "dyn", Docs(script.initial));
        ASSERT_TRUE(dc.ok()) << dc.status();
        Model model = InitialModel(script);
        DocKey next_key = static_cast<DocKey>(script.initial.size()) + 1;
        for (size_t i = 0; i < k; ++i) {
          ASSERT_TRUE(ApplyOp(dc->get(), script.ops[i]).ok());
          ApplyToModel(&model, script.ops[i], &next_key);
          if (::testing::Test::HasFatalFailure()) return;
        }
        const Model pre = model;
        const int64_t pre_epoch = (*dc)->epoch();
        Model post = model;
        DocKey post_next = next_key;
        ApplyToModel(&post, script.ops[k], &post_next);
        if (::testing::Test::HasFatalFailure()) return;

        if (mode == 0) {
          disk.InjectWriteFault(w);
        } else {
          disk.InjectTornWrite(
              w, static_cast<int64_t>(keep_rng.NextBounded(513)));
        }
        Status st = ApplyOp(dc->get(), script.ops[k]);
        disk.ClearWriteFault();
        if (st.ok()) break;  // w passed the op's last write: sweep done
        ASSERT_EQ(st.code(), StatusCode::kUnavailable) << st;

        // The crash: drop all in-memory state, recover from the device.
        dc->reset();
        auto reopened = DynamicCollection::Open(&disk, "dyn");
        ASSERT_TRUE(reopened.ok()) << reopened.status();
        const std::vector<DocKey> keys = (*reopened)->LiveKeys();
        if (keys == ModelKeys(post)) {
          EXPECT_EQ((*reopened)->epoch(), pre_epoch + 1);
          VerifyMatchesRebuild(**reopened, post, HardestConfig());
        } else {
          ASSERT_EQ(keys, ModelKeys(pre));
          EXPECT_EQ((*reopened)->epoch(), pre_epoch);
          VerifyMatchesRebuild(**reopened, pre, HardestConfig());
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// Crashes injected at every write of a compaction: whatever stage dies,
// the manifest still names a complete generation, the reopened contents
// are unchanged, and a subsequent compaction succeeds (orphan files of
// the dead generation are never resolved).
TEST(CrashPointTest, EveryCompactionCrashPoint) {
  const uint64_t seed = 92 + SeedOffset();
  const Script script = MakeScript(seed);
  Rng keep_rng(seed ^ 0x6A09E667F3BCC909ull);

  for (int mode = 0; mode < 2; ++mode) {
    for (int64_t w = 0;; ++w) {
      SCOPED_TRACE(std::string(mode == 0 ? "fail" : "torn") + " write " +
                   std::to_string(w));
      SimulatedDisk disk(512);
      auto dc = DynamicCollection::Create(&disk, "dyn", Docs(script.initial));
      ASSERT_TRUE(dc.ok()) << dc.status();
      Model model = InitialModel(script);
      DocKey next_key = static_cast<DocKey>(script.initial.size()) + 1;
      for (const Op& op : script.ops) {
        ASSERT_TRUE(ApplyOp(dc->get(), op).ok());
        ApplyToModel(&model, op, &next_key);
        if (::testing::Test::HasFatalFailure()) return;
      }
      const int64_t pre_epoch = (*dc)->epoch();

      if (mode == 0) {
        disk.InjectWriteFault(w);
      } else {
        disk.InjectTornWrite(w,
                             static_cast<int64_t>(keep_rng.NextBounded(513)));
      }
      Status st = (*dc)->Compact();
      disk.ClearWriteFault();
      if (st.ok()) break;  // the sweep walked past the last write
      ASSERT_EQ(st.code(), StatusCode::kUnavailable) << st;

      dc->reset();
      auto reopened = DynamicCollection::Open(&disk, "dyn");
      ASSERT_TRUE(reopened.ok()) << reopened.status();
      // Compaction never changes logical contents; only the epoch tells
      // pre-commit from post-commit.
      ASSERT_EQ((*reopened)->LiveKeys(), ModelKeys(model));
      EXPECT_TRUE((*reopened)->epoch() == pre_epoch ||
                  (*reopened)->epoch() == pre_epoch + 1)
          << (*reopened)->epoch() << " vs " << pre_epoch;
      VerifyMatchesRebuild(**reopened, model, HardestConfig());
      if (::testing::Test::HasFatalFailure()) return;

      // Orphans of the dead generation must not poison a retry.
      ASSERT_TRUE((*reopened)->Compact().ok());
      ASSERT_EQ((*reopened)->LiveKeys(), ModelKeys(model));
      EXPECT_EQ((*reopened)->wal_bytes(), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Database integration: epochs, cache invalidation, persistence.
// ---------------------------------------------------------------------------

TEST(DatabaseDynamicTest, ResultCacheDropsWhenEitherEpochBumps) {
  Database db;
  ASSERT_TRUE(db.AddCollectionFromText(
                    "s", {"alpha beta gamma", "beta gamma delta",
                          "gamma delta epsilon"})
                  .ok());
  ASSERT_TRUE(db.BuildIndex("s").ok());
  ASSERT_TRUE(db.AddDynamicCollectionFromText(
                    "d", {"alpha beta", "delta epsilon", "beta delta"})
                  .ok());
  db.result_cache()->set_capacity(16);

  JoinSpec spec;
  spec.lambda = 2;
  auto r1 = db.Join("s", "d", spec);
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(db.result_cache()->stats().hits, 0);

  // Unchanged epochs: the repeat is served from the cache.
  auto r2 = db.Join("s", "d", spec);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(db.result_cache()->stats().hits, 1);

  // Mutating the dynamic (outer) collection bumps its epoch: the cached
  // entry must be unreachable AND the fresh result must see the new doc.
  const int64_t d_epoch = db.CollectionEpoch("d");
  auto key = db.InsertDocument("d", "alpha beta gamma");
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(db.CollectionEpoch("d"), d_epoch + 1);
  auto r3 = db.Join("s", "d", spec);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(db.result_cache()->stats().hits, 1);
  EXPECT_EQ(r3->size(), r1->size() + 1);

  // Bumping the OTHER side's (static inner) epoch must also miss.
  auto r4 = db.Join("s", "d", spec);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(db.result_cache()->stats().hits, 2);
  ASSERT_TRUE(db.BumpCollectionEpoch("s").ok());
  auto r5 = db.Join("s", "d", spec);
  ASSERT_TRUE(r5.ok());
  EXPECT_EQ(db.result_cache()->stats().hits, 2);

  // Deletes and compactions invalidate too.
  auto r6 = db.Join("s", "d", spec);
  EXPECT_EQ(db.result_cache()->stats().hits, 3);
  ASSERT_TRUE(db.DeleteDocument("d", *key).ok());
  auto r7 = db.Join("s", "d", spec);
  ASSERT_TRUE(r7.ok());
  EXPECT_EQ(db.result_cache()->stats().hits, 3);
  ASSERT_TRUE(db.CompactCollection("d").ok());
  auto r8 = db.Join("s", "d", spec);
  ASSERT_TRUE(r8.ok());
  EXPECT_EQ(db.result_cache()->stats().hits, 3);
}

TEST(DatabaseDynamicTest, DynamicJoinMatchesAcrossSaveReopen) {
  std::string path = ::testing::TempDir() + "/dynamic_roundtrip.tjsn";
  JoinSpec spec;
  spec.lambda = 3;
  spec.similarity.cosine_normalize = true;
  Result<JoinResult> before(Status::Internal("unset"));
  {
    Database db;
    ASSERT_TRUE(db.AddDynamicCollectionFromText(
                      "d", {"alpha beta gamma", "beta gamma delta",
                            "gamma delta epsilon", "delta epsilon zeta"})
                    .ok());
    ASSERT_TRUE(db.InsertDocument("d", "alpha gamma epsilon").ok());
    ASSERT_TRUE(db.DeleteDocument("d", 2).ok());
    before = db.Join("d", "d", spec);
    ASSERT_TRUE(before.ok()) << before.status();
    ASSERT_TRUE(db.Save(path).ok());
  }
  auto db2 = Database::Open(path);
  ASSERT_TRUE(db2.ok()) << db2.status();
  const DynamicCollection* dc = (*db2)->dynamic_collection("d");
  ASSERT_NE(dc, nullptr);
  EXPECT_EQ(dc->last_recovery().records_replayed, 2);
  EXPECT_EQ(dc->last_recovery().tail_bytes_discarded, 0);
  auto after = (*db2)->Join("d", "d", spec);
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_EQ(after->size(), before->size());
  for (size_t i = 0; i < before->size(); ++i) {
    EXPECT_EQ((*after)[i].outer_doc, (*before)[i].outer_doc);
    ASSERT_EQ((*after)[i].matches.size(), (*before)[i].matches.size());
    for (size_t j = 0; j < (*before)[i].matches.size(); ++j) {
      EXPECT_EQ((*after)[i].matches[j].doc, (*before)[i].matches[j].doc);
      EXPECT_EQ((*after)[i].matches[j].score, (*before)[i].matches[j].score);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace textjoin
