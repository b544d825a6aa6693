#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "storage/disk_manager.h"
#include "common/logging.h"
#include "common/random.h"
#include "planner/planner.h"
#include "relational/database.h"

namespace textjoin {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

const std::vector<std::string> kResumes = {
    "database indexing and query processing experience",
    "realtime embedded control firmware for avionics",
    "social media brand campaigns and market research",
    "distributed storage replication and consensus",
};
const std::vector<std::string> kJobs = {
    "database engineer for query processing",
    "embedded firmware engineer realtime control",
};

TEST(DatabaseTest, BuildAndJoin) {
  Database db;
  ASSERT_TRUE(db.AddCollectionFromText("resumes", kResumes).ok());
  ASSERT_TRUE(db.AddCollectionFromText("jobs", kJobs).ok());
  ASSERT_TRUE(db.BuildIndex("resumes").ok());

  JoinSpec spec;
  spec.lambda = 1;
  PlanChoice plan;
  auto result = db.Join("resumes", "jobs", spec, &plan);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[0].matches[0].doc, 0u);  // database job -> resume 0
  EXPECT_EQ((*result)[1].matches[0].doc, 1u);  // embedded job -> resume 1
  EXPECT_FALSE(plan.explanation.empty());
}

TEST(DatabaseTest, JoinAnalyzeProducesReportAndStats) {
  Database db;
  ASSERT_TRUE(db.AddCollectionFromText("resumes", kResumes).ok());
  ASSERT_TRUE(db.AddCollectionFromText("jobs", kJobs).ok());
  ASSERT_TRUE(db.BuildIndex("resumes").ok());

  JoinSpec spec;
  spec.lambda = 1;
  auto analyzed = db.JoinAnalyze("resumes", "jobs", spec);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  // Same matches as the plain join.
  auto plain = db.Join("resumes", "jobs", spec);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(analyzed->result, *plain);
  EXPECT_NE(analyzed->report.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_GT(analyzed->stats.root.io.total_reads(), 0);
}

TEST(DatabaseTest, ExecuteSqlRunsRegisteredTables) {
  Database db;
  ASSERT_TRUE(db.AddCollectionFromText("resumes", kResumes).ok());
  ASSERT_TRUE(db.AddCollectionFromText("jobs", kJobs).ok());
  ASSERT_TRUE(db.BuildIndex("resumes").ok());

  Table applicants("Applicants",
                   std::vector<Column>{{"Name", ColumnType::kString},
                                       {"Resume", ColumnType::kText}});
  TEXTJOIN_CHECK_OK(
      applicants.AttachCollection("Resume", db.collection("resumes")));
  TEXTJOIN_CHECK_OK(applicants.AddRow({std::string("Ann"), TextRef{0}}));
  TEXTJOIN_CHECK_OK(applicants.AddRow({std::string("Bob"), TextRef{1}}));
  TEXTJOIN_CHECK_OK(applicants.AddRow({std::string("Cam"), TextRef{2}}));
  TEXTJOIN_CHECK_OK(applicants.AddRow({std::string("Dee"), TextRef{3}}));

  Table positions("Positions",
                  std::vector<Column>{{"Title", ColumnType::kString},
                                      {"Job_descr", ColumnType::kText}});
  TEXTJOIN_CHECK_OK(
      positions.AttachCollection("Job_descr", db.collection("jobs")));
  TEXTJOIN_CHECK_OK(
      positions.AddRow({std::string("DB Engineer"), TextRef{0}}));
  TEXTJOIN_CHECK_OK(
      positions.AddRow({std::string("Firmware Engineer"), TextRef{1}}));

  ASSERT_TRUE(db.RegisterTable(&applicants).ok());
  ASSERT_TRUE(db.RegisterTable(&positions).ok());
  // Duplicate registration is rejected.
  EXPECT_EQ(db.RegisterTable(&applicants).code(),
            StatusCode::kAlreadyExists);

  auto out = db.ExecuteSql(
      "SELECT P.Title, A.Name FROM Positions P, Applicants A "
      "WHERE A.Resume SIMILAR_TO(1) P.Job_descr");
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->rows.size(), 2u);
  EXPECT_NE(out->rows[0].find("Name=Ann"), std::string::npos)
      << out->rows[0];
  EXPECT_NE(out->rows[1].find("Name=Bob"), std::string::npos)
      << out->rows[1];
  EXPECT_TRUE(out->result.explain.empty());

  auto analyzed = db.ExecuteSql(
      "EXPLAIN ANALYZE SELECT P.Title, A.Name "
      "FROM Positions P, Applicants A "
      "WHERE A.Resume SIMILAR_TO(1) P.Job_descr");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_EQ(analyzed->rows.size(), 2u);
  EXPECT_NE(analyzed->result.explain.find("EXPLAIN ANALYZE"),
            std::string::npos);

  // Unknown table names fail cleanly.
  EXPECT_FALSE(db.ExecuteSql("SELECT * FROM Nope N, Positions P "
                             "WHERE N.X SIMILAR_TO(1) P.Job_descr")
                   .ok());
}

TEST(DatabaseTest, DuplicateAndMissingNames) {
  Database db;
  ASSERT_TRUE(db.AddCollectionFromText("a", kJobs).ok());
  EXPECT_EQ(db.AddCollectionFromText("a", kJobs).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.BuildIndex("missing").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(db.BuildIndex("a").ok());
  EXPECT_EQ(db.BuildIndex("a").status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(db.collection("nope"), nullptr);
  EXPECT_EQ(db.index("nope"), nullptr);
  JoinSpec spec;
  EXPECT_FALSE(db.Join("a", "nope", spec).ok());
}

TEST(DatabaseTest, RejectsForeignCollection) {
  Database db;
  SimulatedDisk other(4096);
  CollectionBuilder builder(&other, "x");
  TEXTJOIN_CHECK_OK(
      builder.AddDocument(Document::FromSortedCells({{1, 1}})).status());
  auto col = builder.Finish();
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(db.AddCollection("x", std::move(col).value()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, SaveOpenJoinAgain) {
  std::string path = TempPath("dbtest.tjsn");
  JoinSpec spec;
  spec.lambda = 2;
  JoinResult expected;
  {
    Database db;
    ASSERT_TRUE(db.AddCollectionFromText("resumes", kResumes).ok());
    ASSERT_TRUE(db.AddCollectionFromText("jobs", kJobs).ok());
    ASSERT_TRUE(
        db.BuildIndex("resumes", PostingCompression::kDeltaVarint).ok());
    auto result = db.Join("resumes", "jobs", spec);
    ASSERT_TRUE(result.ok());
    expected = *result;
    ASSERT_TRUE(db.Save(path).ok());
    // Second save is rejected.
    EXPECT_EQ(db.Save(path).code(), StatusCode::kFailedPrecondition);
  }
  auto reopened = Database::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  Database& db2 = **reopened;
  EXPECT_EQ(db2.collection_names(),
            (std::vector<std::string>{"jobs", "resumes"}));
  ASSERT_NE(db2.collection("resumes"), nullptr);
  ASSERT_NE(db2.index("resumes"), nullptr);
  EXPECT_EQ(db2.index("resumes")->compression(),
            PostingCompression::kDeltaVarint);
  // The vocabulary survived: the same term maps to the same id.
  EXPECT_TRUE(db2.vocabulary()->Lookup("database").ok());

  auto result = db2.Join("resumes", "jobs", spec);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, expected);
  std::remove(path.c_str());
}

TEST(DatabaseTest, JoinAnalyzeRejectsDynamicCollection) {
  Database db;
  ASSERT_TRUE(db.AddCollectionFromText("jobs", kJobs).ok());
  ASSERT_TRUE(db.AddDynamicCollectionFromText("live", kResumes).ok());
  for (auto [inner, outer] : {std::pair{"live", "jobs"}, {"jobs", "live"}}) {
    auto analyzed = db.JoinAnalyze(inner, outer, JoinSpec());
    ASSERT_EQ(analyzed.status().code(), StatusCode::kInvalidArgument)
        << analyzed.status();
    EXPECT_NE(analyzed.status().message().find("'live'"), std::string::npos)
        << analyzed.status();
  }
  EXPECT_EQ(db.JoinAnalyze("nope", "jobs", JoinSpec()).status().code(),
            StatusCode::kNotFound);
}

// Deterministic texts of lo..hi words over a `vocab`-word vocabulary;
// repeated words give weights above 1, so idf and cosine both move the
// scores.
std::vector<std::string> RandomTexts(int64_t n, int64_t lo, int64_t hi,
                                     uint64_t vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> texts;
  for (int64_t d = 0; d < n; ++d) {
    std::string text;
    const int64_t words = rng.NextInRange(lo, hi);
    for (int64_t w = 0; w < words; ++w) {
      text += "w" + std::to_string(rng.NextBounded(vocab)) + " ";
    }
    texts.push_back(text);
  }
  return texts;
}

void ExpectSameBits(const JoinResult& got, const JoinResult& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    SCOPED_TRACE("row " + std::to_string(r));
    ASSERT_EQ(got[r].outer_doc, want[r].outer_doc);
    ASSERT_EQ(got[r].matches.size(), want[r].matches.size());
    for (size_t m = 0; m < want[r].matches.size(); ++m) {
      EXPECT_EQ(got[r].matches[m].doc, want[r].matches[m].doc);
      EXPECT_EQ(std::bit_cast<uint64_t>(got[r].matches[m].score),
                std::bit_cast<uint64_t>(want[r].matches[m].score));
    }
  }
}

const SimilarityConfig kConfigs[] = {
    {false, false}, {true, false}, {true, true}};  // raw, cosine, idf+cosine

// A static collection is the view with no delta and no deletes: joining
// through the Database is exactly the planner over a directly built
// SimilarityContext — same rows, same score bits, same plan.
TEST(DatabaseTest, StaticJoinMatchesDirectPlannerBits) {
  // Few long inner documents against many short outer ones, on small
  // pages: the planner picks HHNL, HVNL (under a selection) and VVM (under
  // a small buffer) across the cases below.
  Database db(256);
  ASSERT_TRUE(db.AddCollectionFromText("a", RandomTexts(40, 200, 400, 600, 11))
                  .ok());
  ASSERT_TRUE(
      db.AddCollectionFromText("b", RandomTexts(400, 3, 8, 600, 12)).ok());
  ASSERT_TRUE(db.BuildIndex("a").ok());
  ASSERT_TRUE(db.BuildIndex("b").ok());
  struct Case {
    int64_t buffer_pages;
    std::vector<DocId> outer_subset;
  };
  const Case cases[] = {{10000, {}}, {10000, {1, 7, 20}}, {16, {}}};
  std::set<Algorithm> chosen;
  for (const Case& c : cases) {
    db.set_system_params(
        SystemParams{c.buffer_pages, db.disk()->page_size(), 5.0});
    for (const SimilarityConfig& config : kConfigs) {
      SCOPED_TRACE("B=" + std::to_string(c.buffer_pages) +
                   " subset=" + std::to_string(c.outer_subset.size()) +
                   " cosine=" + std::to_string(config.cosine_normalize) +
                   " idf=" + std::to_string(config.use_idf));
      JoinSpec spec;
      spec.lambda = 3;
      spec.similarity = config;
      spec.outer_subset = c.outer_subset;
      PlanChoice plan;
      auto joined = db.Join("a", "b", spec, &plan);
      ASSERT_TRUE(joined.ok()) << joined.status();

      auto sim = SimilarityContext::Create(*db.collection("a"),
                                           *db.collection("b"), config);
      ASSERT_TRUE(sim.ok()) << sim.status();
      JoinContext ctx;
      ctx.inner = db.collection("a");
      ctx.outer = db.collection("b");
      ctx.inner_index = db.index("a");
      ctx.outer_index = db.index("b");
      ctx.similarity = &sim.value();
      ctx.sys = db.system_params();
      PlanChoice direct_plan;
      auto direct = JoinPlanner().Execute(ctx, spec, &direct_plan);
      ASSERT_TRUE(direct.ok()) << direct.status();

      EXPECT_EQ(plan.algorithm, direct_plan.algorithm);
      chosen.insert(plan.algorithm);
      ExpectSameBits(*joined, *direct);
    }
  }
  EXPECT_EQ(chosen.size(), 3u) << "every executor should be covered";
}

// A cached Database join returns its PlanChoice with the rows, and the
// plan's page charges depend on JoinSpec::delta (HVNL's accumulator, VVM's
// similarity matrix), so delta is keyed: a join differing from a cached one
// only in delta plans afresh, exactly as with the cache off.
TEST(DatabaseTest, CachedJoinPlanFollowsDelta) {
  auto plan_of = [](int64_t cache_entries,
                    const std::vector<double>& deltas) -> PlanChoice {
    Database db(256);
    TEXTJOIN_CHECK_OK(
        db.AddCollectionFromText("a", RandomTexts(40, 200, 400, 600, 11))
            .status());
    TEXTJOIN_CHECK_OK(
        db.AddCollectionFromText("b", RandomTexts(400, 3, 8, 600, 12))
            .status());
    TEXTJOIN_CHECK_OK(db.BuildIndex("a").status());
    TEXTJOIN_CHECK_OK(db.BuildIndex("b").status());
    db.set_system_params(SystemParams{16, db.disk()->page_size(), 5.0});
    db.result_cache()->set_capacity(cache_entries);
    PlanChoice plan;
    for (const double delta : deltas) {
      JoinSpec spec;
      spec.lambda = 3;
      spec.delta = delta;
      TEXTJOIN_CHECK_OK(db.Join("a", "b", spec, &plan).status());
    }
    return plan;
  };
  const PlanChoice cached = plan_of(16, {0.1, 1.0});
  const PlanChoice fresh = plan_of(0, {1.0});
  EXPECT_EQ(cached.inputs.query.delta, 1.0);
  EXPECT_EQ(cached.inputs.query.delta, fresh.inputs.query.delta);
  EXPECT_EQ(cached.algorithm, fresh.algorithm);
  for (Algorithm a : {Algorithm::kHhnl, Algorithm::kHvnl, Algorithm::kVvm}) {
    SCOPED_TRACE(AlgorithmName(a));
    EXPECT_EQ(cached.costs.of(a).seq, fresh.costs.of(a).seq);
    EXPECT_EQ(cached.costs.of(a).rand, fresh.costs.of(a).rand);
  }
  // The case is only meaningful if delta moves the plan's costs.
  EXPECT_NE(plan_of(0, {0.1}).costs.of(Algorithm::kVvm).seq,
            fresh.costs.of(Algorithm::kVvm).seq);
}

// A relation over every document of a registered collection, with rows in a
// permuted document order so results must be mapped through the table.
std::unique_ptr<Table> MakeDocTable(Database* db, const std::string& table,
                                    const std::string& collection) {
  auto t = std::make_unique<Table>(
      table, std::vector<Column>{{"id", ColumnType::kInt},
                                 {"grp", ColumnType::kInt},
                                 {"body", ColumnType::kText}});
  const DocumentCollection* col = db->collection(collection);
  TEXTJOIN_CHECK_OK(t->AttachCollection("body", col));
  const int64_t n = col->num_documents();
  for (int64_t r = 0; r < n; ++r) {
    const DocId doc = static_cast<DocId>(r * 7 % n);
    TEXTJOIN_CHECK_OK(
        t->AddRow({Value(r), Value(r % 10), Value(TextRef{doc})}));
  }
  TEXTJOIN_CHECK_OK(db->RegisterTable(t.get()));
  return t;
}

// Lines without wall-clock readings, which vary run to run.
std::string WithoutWallClock(const std::string& report) {
  std::string out;
  size_t begin = 0;
  while (begin < report.size()) {
    size_t end = report.find('\n', begin);
    if (end == std::string::npos) end = report.size();
    const std::string line = report.substr(begin, end - begin);
    if (line.find("wall") == std::string::npos) out += line + "\n";
    begin = end + 1;
  }
  return out;
}

// A SIMILAR_TO query is the Database join of the selected documents: the
// same rows (mapped through the tables), score bits, plan and EXPLAIN
// ANALYZE report as Database::Join / JoinAnalyze under the equivalent
// JoinSpec subsets.
TEST(DatabaseTest, SqlJoinMatchesDatabaseJoinBits) {
  Database db(256);
  const std::vector<std::string> a_texts = RandomTexts(40, 200, 400, 600, 11);
  const std::vector<std::string> b_texts = RandomTexts(400, 3, 8, 600, 12);
  ASSERT_TRUE(db.AddCollectionFromText("a", a_texts).ok());
  ASSERT_TRUE(db.AddCollectionFromText("b", b_texts).ok());
  ASSERT_TRUE(db.AddCollectionFromText("a0", a_texts).ok());
  ASSERT_TRUE(db.AddCollectionFromText("b0", b_texts).ok());
  ASSERT_TRUE(db.BuildIndex("a").ok());
  ASSERT_TRUE(db.BuildIndex("b").ok());
  std::vector<std::unique_ptr<Table>> tables;
  for (auto [table, collection] :
       {std::pair{"A", "a"}, {"B", "b"}, {"A0", "a0"}, {"B0", "b0"}}) {
    tables.push_back(MakeDocTable(&db, table, collection));
  }

  // Each table's document -> row and row -> document.
  auto row_of = [](const Table& t) {
    std::map<DocId, int64_t> rows;
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      rows[std::get<TextRef>(t.at(r, 2)).doc] = r;
    }
    return rows;
  };
  auto docs_of = [](const Table& t, const std::vector<int64_t>& rows) {
    std::vector<DocId> docs;
    for (int64_t r : rows) docs.push_back(std::get<TextRef>(t.at(r, 2)).doc);
    std::sort(docs.begin(), docs.end());
    return docs;
  };
  std::vector<int64_t> outer_rows;  // O.id < 4
  for (int64_t r = 0; r < 4; ++r) outer_rows.push_back(r);
  std::vector<int64_t> inner_rows;  // I.grp <> 2
  for (int64_t r = 0; r < 40; ++r) {
    if (r % 10 != 2) inner_rows.push_back(r);
  }

  struct Selection {
    const char* where;
    bool outer;
    bool inner;
  };
  const Selection selections[] = {
      {"", false, false}, {"O.id < 4 AND ", true, false},
      {"I.grp <> 2 AND ", false, true}};
  std::set<Algorithm> chosen;
  for (bool indexed : {true, false}) {
    const std::string inner = indexed ? "a" : "a0";
    const std::string outer = indexed ? "b" : "b0";
    const Table& inner_table = *tables[indexed ? 0 : 2];
    const Table& outer_table = *tables[indexed ? 1 : 3];
    const std::map<DocId, int64_t> inner_row = row_of(inner_table);
    const std::map<DocId, int64_t> outer_row = row_of(outer_table);
    for (int64_t buffer_pages : {10000, 16}) {
      db.set_system_params(
          SystemParams{buffer_pages, db.disk()->page_size(), 5.0});
      for (const Selection& s : selections) {
        const std::string sql = "SELECT * FROM " + outer_table.name() +
                                " O, " + inner_table.name() + " I WHERE " +
                                s.where + "I.body SIMILAR_TO(3) O.body";
        SCOPED_TRACE(sql + " B=" + std::to_string(buffer_pages));
        JoinSpec spec;
        spec.lambda = 3;
        if (s.outer) spec.outer_subset = docs_of(outer_table, outer_rows);
        if (s.inner) spec.inner_subset = docs_of(inner_table, inner_rows);
        PlanChoice plan;
        auto joined = db.Join(inner, outer, spec, &plan);
        auto got = db.ExecuteSql(sql);
        ASSERT_EQ(got.status().code(), joined.status().code())
            << got.status() << " vs " << joined.status();
        if (!joined.ok()) continue;

        std::vector<QueryResultRow> want;
        for (const OuterMatches& om : *joined) {
          for (const Match& m : om.matches) {
            want.push_back(QueryResultRow{outer_row.at(om.outer_doc),
                                          inner_row.at(m.doc), m.score});
          }
        }
        const std::vector<QueryResultRow>& rows = got->result.rows;
        ASSERT_EQ(rows.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(rows[i].outer_row, want[i].outer_row) << i;
          EXPECT_EQ(rows[i].inner_row, want[i].inner_row) << i;
          EXPECT_EQ(std::bit_cast<uint64_t>(rows[i].score),
                    std::bit_cast<uint64_t>(want[i].score))
              << i;
        }
        EXPECT_EQ(got->result.plan.algorithm, plan.algorithm);
        chosen.insert(plan.algorithm);

        auto analyzed = db.ExecuteSql("EXPLAIN ANALYZE " + sql);
        ASSERT_TRUE(analyzed.ok()) << analyzed.status();
        auto direct = db.JoinAnalyze(inner, outer, spec);
        ASSERT_TRUE(direct.ok()) << direct.status();
        EXPECT_EQ(analyzed->rows, got->rows);
        EXPECT_EQ(WithoutWallClock(analyzed->result.explain),
                  WithoutWallClock(direct->report));
      }
    }
  }
  EXPECT_EQ(chosen.size(), 3u) << "every executor should be covered";
}

// SQL joins are admitted on the planner's estimate, like Database::Join:
// with every predicted page costing 1e9 ms, both miss a 10 s deadline at
// admission and are shed before they run.
TEST(DatabaseTest, SqlAdmissionChargesPlannerEstimate) {
  DatabaseOptions options;
  options.admission.cost_unit_ms = 1e9;
  options.admission.default_deadline_ms = 10000;
  Database db(options);
  ASSERT_TRUE(db.AddCollectionFromText("resumes", kResumes).ok());
  ASSERT_TRUE(db.AddCollectionFromText("jobs", kJobs).ok());
  ASSERT_TRUE(db.BuildIndex("resumes").ok());
  std::unique_ptr<Table> applicants =
      MakeDocTable(&db, "Applicants", "resumes");
  std::unique_ptr<Table> positions = MakeDocTable(&db, "Positions", "jobs");

  JoinSpec spec;
  spec.lambda = 1;
  EXPECT_EQ(db.Join("resumes", "jobs", spec).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(db.ExecuteSql("SELECT * FROM Positions P, Applicants A "
                          "WHERE A.body SIMILAR_TO(1) P.body")
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(db.admission()->total_shed(), 2);
  EXPECT_EQ(db.admission()->total_admitted(), 0);
}

// A never-written dynamic collection is the same empty-delta view as the
// same texts loaded statically; after a write, a subset on the clean side
// still applies and the result equals the rebuilt static join.
TEST(DatabaseTest, CleanDynamicJoinMatchesStaticBits) {
  const std::vector<std::string> a_texts = RandomTexts(50, 3, 12, 40, 21);
  const std::vector<std::string> b_texts = RandomTexts(35, 3, 12, 40, 22);
  const std::string inserted = "w1 w1 w2 w3 w5 w8 w13";
  std::vector<std::string> a_rebuilt = a_texts;
  a_rebuilt.push_back(inserted);

  Database db;
  ASSERT_TRUE(db.AddCollectionFromText("a", a_texts).ok());
  ASSERT_TRUE(db.AddCollectionFromText("b", b_texts).ok());
  ASSERT_TRUE(db.AddCollectionFromText("a2", a_rebuilt).ok());
  for (const char* name : {"a", "b", "a2"}) {
    ASSERT_TRUE(db.BuildIndex(name).ok());
  }
  ASSERT_TRUE(db.AddDynamicCollectionFromText("da", a_texts).ok());
  ASSERT_TRUE(db.AddDynamicCollectionFromText("db", b_texts).ok());

  for (const SimilarityConfig& config : kConfigs) {
    SCOPED_TRACE("cosine=" + std::to_string(config.cosine_normalize) +
                 " idf=" + std::to_string(config.use_idf));
    JoinSpec spec;
    spec.lambda = 3;
    spec.similarity = config;
    PlanChoice static_plan;
    auto want = db.Join("a", "b", spec, &static_plan);
    ASSERT_TRUE(want.ok()) << want.status();
    for (auto [inner, outer] :
         {std::pair{"da", "db"}, {"da", "b"}, {"a", "db"}}) {
      SCOPED_TRACE(std::string(inner) + " x " + outer);
      PlanChoice plan;
      auto got = db.Join(inner, outer, spec, &plan);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(plan.algorithm, static_plan.algorithm);
      ExpectSameBits(*got, *want);
    }

    // Subsets stay legal while both views are clean.
    JoinSpec subset_spec = spec;
    subset_spec.outer_subset = {1, 4, 9, 16, 25};
    subset_spec.inner_subset = {0, 2, 3, 5, 7, 11, 13, 17, 19, 23};
    auto want_subset = db.Join("a", "b", subset_spec);
    ASSERT_TRUE(want_subset.ok()) << want_subset.status();
    auto got_subset = db.Join("da", "db", subset_spec);
    ASSERT_TRUE(got_subset.ok()) << got_subset.status();
    ExpectSameBits(*got_subset, *want_subset);
  }

  ASSERT_TRUE(db.InsertDocument("da", inserted).ok());
  for (const SimilarityConfig& config : kConfigs) {
    SCOPED_TRACE("cosine=" + std::to_string(config.cosine_normalize) +
                 " idf=" + std::to_string(config.use_idf));
    JoinSpec spec;
    spec.lambda = 3;
    spec.similarity = config;
    spec.outer_subset = {1, 4, 9, 16, 25};
    auto want = db.Join("a2", "b", spec);
    ASSERT_TRUE(want.ok()) << want.status();
    auto got = db.Join("da", "b", spec);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameBits(*got, *want);

    // A subset on the side that has a delta is rejected.
    JoinSpec dirty = spec;
    dirty.outer_subset.clear();
    dirty.inner_subset = {0, 1};
    EXPECT_EQ(db.Join("da", "b", dirty).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(DatabaseTest, OpenMissingFails) {
  EXPECT_FALSE(Database::Open(TempPath("no-such-db.tjsn")).ok());
}

}  // namespace
}  // namespace textjoin
