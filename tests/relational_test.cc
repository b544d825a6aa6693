#include <gtest/gtest.h>

#include "storage/disk_manager.h"
#include "relational/database.h"
#include "relational/predicate.h"
#include "relational/table.h"
#include "relational/text_join_query.h"
#include "test_util.h"

namespace textjoin {
namespace {

TEST(LikeMatcherTest, Wildcards) {
  EXPECT_TRUE(LikePredicate::Matches("Engineer", "Engineer"));
  EXPECT_TRUE(LikePredicate::Matches("Senior Engineer", "%Engineer%"));
  EXPECT_TRUE(LikePredicate::Matches("Engineer II", "%Engineer%"));
  EXPECT_TRUE(LikePredicate::Matches("Engineer", "%Engineer%"));
  EXPECT_FALSE(LikePredicate::Matches("Manager", "%Engineer%"));
  EXPECT_TRUE(LikePredicate::Matches("cat", "c_t"));
  EXPECT_FALSE(LikePredicate::Matches("cart", "c_t"));
  EXPECT_TRUE(LikePredicate::Matches("cart", "c%t"));
  EXPECT_TRUE(LikePredicate::Matches("", "%"));
  EXPECT_FALSE(LikePredicate::Matches("", "_"));
  EXPECT_TRUE(LikePredicate::Matches("abc", "%%c"));
}

TEST(TableTest, SchemaAndRows) {
  Table t("Positions", {{"P#", ColumnType::kInt},
                        {"Title", ColumnType::kString},
                        {"Job_descr", ColumnType::kText}});
  EXPECT_EQ(t.ColumnIndex("Title"), 1);
  EXPECT_EQ(t.ColumnIndex("nope"), -1);
  // Rows with a TEXT value need an attached collection first.
  EXPECT_FALSE(
      t.AddRow({int64_t{1}, std::string("Engineer"), TextRef{0}}).ok());
  // Arity and type checks.
  EXPECT_FALSE(t.AddRow({int64_t{1}}).ok());
  EXPECT_FALSE(
      t.AddRow({std::string("x"), std::string("y"), TextRef{0}}).ok());
}

TEST(TableTest, AttachAndQueryRows) {
  SimulatedDisk disk(4096);
  auto col = testing_util::BuildCollection(&disk, "d", {{{1, 1}}, {{2, 1}}});
  Table t("T", {{"id", ColumnType::kInt}, {"doc", ColumnType::kText}});
  ASSERT_TRUE(t.AttachCollection("doc", &col).ok());
  ASSERT_TRUE(t.AddRow({int64_t{10}, TextRef{0}}).ok());
  ASSERT_TRUE(t.AddRow({int64_t{20}, TextRef{1}}).ok());
  EXPECT_FALSE(t.AddRow({int64_t{30}, TextRef{9}}).ok());  // out of range
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(std::get<int64_t>(t.at(1, 0)), 20);
}

TEST(PredicateTest, CompareAndSelect) {
  Table t("T", {{"id", ColumnType::kInt}, {"name", ColumnType::kString}});
  ASSERT_TRUE(t.AddRow({int64_t{1}, std::string("alpha")}).ok());
  ASSERT_TRUE(t.AddRow({int64_t{5}, std::string("beta")}).ok());
  ASSERT_TRUE(t.AddRow({int64_t{9}, std::string("alphabet")}).ok());

  ComparePredicate ge5("id", CompareOp::kGe, Value(int64_t{5}));
  EXPECT_EQ(SelectRows(t, {&ge5}), (std::vector<int64_t>{1, 2}));

  LikePredicate like_alpha("name", "alpha%");
  EXPECT_EQ(SelectRows(t, {&like_alpha}), (std::vector<int64_t>{0, 2}));

  // Conjunction.
  EXPECT_EQ(SelectRows(t, {&ge5, &like_alpha}), (std::vector<int64_t>{2}));
  EXPECT_EQ(SelectRows(t, {}), (std::vector<int64_t>{0, 1, 2}));
}

// The motivating example of Section 2, end to end: positions and
// applicants, with and without the Title selection.
class MotivatingQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.set_system_params(SystemParams{100, 4096, 5.0});
    // Applicants' resumes (inner collection C1).
    std::vector<std::string> resumes = {
        "embedded systems engineer with c and realtime kernels",
        "database systems engineer storage indexing query processing",
        "marketing specialist brand campaigns social media",
        "compiler engineer llvm optimization passes code generation",
        "database administrator query tuning backup recovery replication"};
    TEXTJOIN_CHECK_OK(db_.AddCollectionFromText("resumes", resumes).status());

    // Positions' job descriptions (outer collection C2).
    std::vector<std::string> descriptions = {
        "seeking database engineer for query processing and indexing",
        "brand manager for social media campaigns",
        "realtime embedded software for flight control kernels"};
    TEXTJOIN_CHECK_OK(
        db_.AddCollectionFromText("jobs", descriptions).status());

    applicants_ = std::make_unique<Table>(
        "Applicants", std::vector<Column>{{"SSN", ColumnType::kInt},
                                          {"Name", ColumnType::kString},
                                          {"Resume", ColumnType::kText}});
    TEXTJOIN_CHECK_OK(
        applicants_->AttachCollection("Resume", db_.collection("resumes")));
    const char* names[] = {"Ana", "Bo", "Cy", "Dee", "Ed"};
    for (int i = 0; i < 5; ++i) {
      TEXTJOIN_CHECK_OK(applicants_->AddRow({int64_t{1000 + i},
                                             std::string(names[i]),
                                             TextRef{static_cast<DocId>(i)}}));
    }

    positions_ = std::make_unique<Table>(
        "Positions", std::vector<Column>{{"P#", ColumnType::kInt},
                                         {"Title", ColumnType::kString},
                                         {"Job_descr", ColumnType::kText}});
    TEXTJOIN_CHECK_OK(
        positions_->AttachCollection("Job_descr", db_.collection("jobs")));
    const char* titles[] = {"Database Engineer", "Brand Manager",
                            "Embedded Engineer"};
    for (int i = 0; i < 3; ++i) {
      TEXTJOIN_CHECK_OK(positions_->AddRow({int64_t{i + 1},
                                            std::string(titles[i]),
                                            TextRef{static_cast<DocId>(i)}}));
    }
  }

  TextJoinQuery BaseQuery(int64_t lambda) {
    TextJoinQuery q;
    q.inner_table = applicants_.get();
    q.inner_text_column = "Resume";
    q.outer_table = positions_.get();
    q.outer_text_column = "Job_descr";
    q.lambda = lambda;
    return q;
  }

  Database db_;
  std::unique_ptr<Table> applicants_;
  std::unique_ptr<Table> positions_;
};

TEST_F(MotivatingQueryTest, TopApplicantPerPosition) {
  auto result = db_.ExecuteQuery(BaseQuery(/*lambda=*/1));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 3u);
  // Position 0 (database engineer) -> Bo (database systems engineer).
  EXPECT_EQ(result->rows[0].outer_row, 0);
  EXPECT_EQ(result->rows[0].inner_row, 1);
  // Position 1 (brand manager) -> Cy (marketing specialist).
  EXPECT_EQ(result->rows[1].outer_row, 1);
  EXPECT_EQ(result->rows[1].inner_row, 2);
  // Position 2 (embedded) -> Ana (embedded systems engineer).
  EXPECT_EQ(result->rows[2].outer_row, 2);
  EXPECT_EQ(result->rows[2].inner_row, 0);
}

TEST_F(MotivatingQueryTest, LambdaTwoReturnsRankedPairs) {
  auto result = db_.ExecuteQuery(BaseQuery(/*lambda=*/2));
  ASSERT_TRUE(result.ok());
  // Grouped by outer row; within a group scores are non-increasing.
  for (size_t i = 1; i < result->rows.size(); ++i) {
    if (result->rows[i].outer_row == result->rows[i - 1].outer_row) {
      EXPECT_LE(result->rows[i].score, result->rows[i - 1].score);
    }
  }
}

TEST_F(MotivatingQueryTest, TitleSelectionReducesOuter) {
  // SELECT ... WHERE P.Title LIKE "%Engineer%" AND Resume SIMILAR_TO(1) ...
  TextJoinQuery q = BaseQuery(1);
  LikePredicate engineer("Title", "%Engineer%");
  q.outer_predicates.push_back(&engineer);
  auto result = db_.ExecuteQuery(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);  // Brand Manager filtered out
  for (const auto& row : result->rows) {
    EXPECT_NE(row.outer_row, 1);
  }
}

TEST_F(MotivatingQueryTest, InnerSelection) {
  TextJoinQuery q = BaseQuery(1);
  ComparePredicate ssn("SSN", CompareOp::kNe, Value(int64_t{1001}));
  q.inner_predicates.push_back(&ssn);  // exclude Bo
  auto result = db_.ExecuteQuery(q);
  ASSERT_TRUE(result.ok());
  for (const auto& row : result->rows) EXPECT_NE(row.inner_row, 1);
  // Position 0 now matches the other database person, Ed.
  EXPECT_EQ(result->rows[0].outer_row, 0);
  EXPECT_EQ(result->rows[0].inner_row, 4);
}

TEST_F(MotivatingQueryTest, ReportsPlanAndIo) {
  auto result = db_.ExecuteQuery(BaseQuery(1));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->plan.explanation.empty());
  EXPECT_GT(result->io.total_reads(), 0);
}

TEST_F(MotivatingQueryTest, ErrorsOnBadColumns) {
  TextJoinQuery q = BaseQuery(1);
  q.outer_text_column = "Title";  // not a TEXT column
  EXPECT_FALSE(db_.ExecuteQuery(q).ok());
  q = BaseQuery(1);
  q.inner_text_column = "Missing";
  EXPECT_FALSE(db_.ExecuteQuery(q).ok());
}

TEST(ValueTest, ToStringAndTypeNames) {
  EXPECT_EQ(ValueToString(Value(int64_t{42})), "42");
  EXPECT_EQ(ValueToString(Value(std::string("hi"))), "hi");
  EXPECT_EQ(ValueToString(Value(TextRef{7})), "doc#7");
  EXPECT_STREQ(ColumnTypeName(ColumnType::kText), "TEXT");
}

}  // namespace
}  // namespace textjoin
