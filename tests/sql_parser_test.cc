#include <gtest/gtest.h>

#include "relational/database.h"
#include "relational/sql_parser.h"
#include "test_util.h"

namespace textjoin {
namespace {

// Fixture mirroring the paper's Applicants/Positions schema.
class SqlParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.set_system_params(SystemParams{100, 4096, 5.0});
    const std::vector<std::string> resumes = {
        "database indexing query processing",
        "embedded realtime control firmware",
        "social media brand marketing",
    };
    TEXTJOIN_CHECK_OK(db_.AddCollectionFromText("resumes", resumes).status());

    const std::vector<std::string> jobs = {
        "database engineer for query processing",
        "brand manager social campaigns",
    };
    TEXTJOIN_CHECK_OK(db_.AddCollectionFromText("jobs", jobs).status());

    applicants_ = std::make_unique<Table>(
        "Applicants", std::vector<Column>{{"SSN", ColumnType::kInt},
                                          {"Name", ColumnType::kString},
                                          {"Resume", ColumnType::kText}});
    TEXTJOIN_CHECK_OK(
        applicants_->AttachCollection("Resume", db_.collection("resumes")));
    TEXTJOIN_CHECK_OK(applicants_->AddRow(
        {int64_t{1}, std::string("Ann"), TextRef{0}}));
    TEXTJOIN_CHECK_OK(applicants_->AddRow(
        {int64_t{2}, std::string("Bob"), TextRef{1}}));
    TEXTJOIN_CHECK_OK(applicants_->AddRow(
        {int64_t{3}, std::string("Cam"), TextRef{2}}));

    positions_ = std::make_unique<Table>(
        "Positions", std::vector<Column>{{"P#", ColumnType::kInt},
                                         {"Title", ColumnType::kString},
                                         {"Job_descr", ColumnType::kText}});
    TEXTJOIN_CHECK_OK(
        positions_->AttachCollection("Job_descr", db_.collection("jobs")));
    TEXTJOIN_CHECK_OK(positions_->AddRow(
        {int64_t{10}, std::string("Database Engineer"), TextRef{0}}));
    TEXTJOIN_CHECK_OK(positions_->AddRow(
        {int64_t{11}, std::string("Brand Manager"), TextRef{1}}));

    parser_ = std::make_unique<SqlParser>(
        std::vector<const Table*>{applicants_.get(), positions_.get()});
  }

  Database db_;
  std::unique_ptr<Table> applicants_;
  std::unique_ptr<Table> positions_;
  std::unique_ptr<SqlParser> parser_;
};

TEST_F(SqlParserTest, ParsesThePapersQuery) {
  auto bound = parser_->Parse(
      "Select P.P#, P.Title, A.SSN, A.Name "
      "From Positions P, Applicants A "
      "Where A.Resume SIMILAR_TO(2) P.Job_descr");
  ASSERT_TRUE(bound.ok()) << bound.status();
  const TextJoinQuery& q = bound->query();
  EXPECT_EQ(q.inner_table, applicants_.get());
  EXPECT_EQ(q.inner_text_column, "Resume");
  EXPECT_EQ(q.outer_table, positions_.get());
  EXPECT_EQ(q.outer_text_column, "Job_descr");
  EXPECT_EQ(q.lambda, 2);
  EXPECT_TRUE(q.inner_predicates.empty());
  EXPECT_TRUE(q.outer_predicates.empty());
  EXPECT_EQ(bound->select_list().size(), 4u);
}

TEST_F(SqlParserTest, ParsesSelectionVariant) {
  auto bound = parser_->Parse(
      "SELECT P.P#, A.Name FROM Positions P, Applicants A "
      "WHERE P.Title LIKE \"%Engineer%\" "
      "AND A.Resume SIMILAR_TO(1) P.Job_descr");
  ASSERT_TRUE(bound.ok()) << bound.status();
  ASSERT_EQ(bound->query().outer_predicates.size(), 1u);
  EXPECT_EQ(bound->query().outer_predicates[0]->ToString(),
            "Title LIKE \"%Engineer%\"");
}

TEST_F(SqlParserTest, BindsComparisonsToTheRightSide) {
  auto bound = parser_->Parse(
      "SELECT * FROM Positions P, Applicants A "
      "WHERE A.SSN >= 2 AND P.P# <> 11 "
      "AND A.Resume SIMILAR_TO(1) P.Job_descr");
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->query().inner_predicates.size(), 1u);  // A.SSN
  EXPECT_EQ(bound->query().outer_predicates.size(), 1u);  // P.P#
  EXPECT_TRUE(bound->select_all());
}

TEST_F(SqlParserTest, UnqualifiedUnambiguousColumnsResolve) {
  auto bound = parser_->Parse(
      "SELECT Name, Title FROM Positions P, Applicants A "
      "WHERE Resume SIMILAR_TO(1) Job_descr");
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->query().inner_text_column, "Resume");
}

TEST_F(SqlParserTest, EndToEndExecution) {
  auto bound = parser_->Parse(
      "SELECT P.Title, A.Name FROM Positions P, Applicants A "
      "WHERE A.Resume SIMILAR_TO(1) P.Job_descr");
  ASSERT_TRUE(bound.ok());
  auto result = db_.ExecuteQuery(bound->query());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 2u);
  // Database job -> Ann; brand job -> Cam.
  std::string r0 = bound->FormatRow(result->rows[0]);
  std::string r1 = bound->FormatRow(result->rows[1]);
  EXPECT_NE(r0.find("Name=Ann"), std::string::npos) << r0;
  EXPECT_NE(r0.find("Title=Database Engineer"), std::string::npos) << r0;
  EXPECT_NE(r1.find("Name=Cam"), std::string::npos) << r1;
}

TEST_F(SqlParserTest, ExplainAnalyzePrefixParsesAndRuns) {
  auto bound = parser_->Parse(
      "EXPLAIN ANALYZE SELECT P.Title, A.Name "
      "FROM Positions P, Applicants A "
      "WHERE A.Resume SIMILAR_TO(1) P.Job_descr");
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_TRUE(bound->query().explain_analyze);

  auto result = db_.ExecuteQuery(bound->query());
  ASSERT_TRUE(result.ok()) << result.status();
  // Same rows as the plain query, plus the rendered report and the stats
  // tree of the executed plan.
  EXPECT_EQ(result->rows.size(), 2u);
  EXPECT_NE(result->explain.find("EXPLAIN ANALYZE"), std::string::npos)
      << result->explain;
  EXPECT_NE(result->explain.find("predicted:"), std::string::npos);
  EXPECT_NE(result->explain.find("measured:"), std::string::npos);
  EXPECT_FALSE(result->stats.root.children.empty());
  EXPECT_GT(result->stats.root.io.total_reads(), 0);

  // The prefix is optional and off by default.
  auto plain = parser_->Parse(
      "SELECT P.Title FROM Positions P, Applicants A "
      "WHERE A.Resume SIMILAR_TO(1) P.Job_descr");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->query().explain_analyze);

  // EXPLAIN without ANALYZE is not part of the grammar.
  EXPECT_FALSE(parser_
                   ->Parse("EXPLAIN SELECT P.Title "
                           "FROM Positions P, Applicants A "
                           "WHERE A.Resume SIMILAR_TO(1) P.Job_descr")
                   .ok());
}

TEST_F(SqlParserTest, ErrorCases) {
  // No SIMILAR_TO.
  EXPECT_FALSE(parser_
                   ->Parse("SELECT * FROM Positions P, Applicants A "
                           "WHERE A.SSN = 1")
                   .ok());
  // Two SIMILAR_TO.
  EXPECT_FALSE(parser_
                   ->Parse("SELECT * FROM Positions P, Applicants A WHERE "
                           "A.Resume SIMILAR_TO(1) P.Job_descr AND "
                           "A.Resume SIMILAR_TO(2) P.Job_descr")
                   .ok());
  // Unknown table.
  EXPECT_FALSE(parser_
                   ->Parse("SELECT * FROM Nope N, Applicants A WHERE "
                           "A.Resume SIMILAR_TO(1) N.X")
                   .ok());
  // Unknown column.
  EXPECT_FALSE(parser_
                   ->Parse("SELECT * FROM Positions P, Applicants A WHERE "
                           "A.Nope SIMILAR_TO(1) P.Job_descr")
                   .ok());
  // SIMILAR_TO on non-TEXT columns.
  EXPECT_FALSE(parser_
                   ->Parse("SELECT * FROM Positions P, Applicants A WHERE "
                           "A.Name SIMILAR_TO(1) P.Title")
                   .ok());
  // Ambiguous unqualified column (none here, but duplicate alias is).
  EXPECT_FALSE(parser_
                   ->Parse("SELECT * FROM Positions X, Applicants X WHERE "
                           "Resume SIMILAR_TO(1) Job_descr")
                   .ok());
  // LIKE against an INT column.
  EXPECT_FALSE(parser_
                   ->Parse("SELECT * FROM Positions P, Applicants A WHERE "
                           "A.SSN LIKE \"%x%\" AND "
                           "A.Resume SIMILAR_TO(1) P.Job_descr")
                   .ok());
  // Type mismatch in comparison.
  EXPECT_FALSE(parser_
                   ->Parse("SELECT * FROM Positions P, Applicants A WHERE "
                           "A.Name = 3 AND "
                           "A.Resume SIMILAR_TO(1) P.Job_descr")
                   .ok());
  // Unterminated string.
  EXPECT_FALSE(parser_
                   ->Parse("SELECT * FROM Positions P, Applicants A WHERE "
                           "P.Title LIKE \"oops AND "
                           "A.Resume SIMILAR_TO(1) P.Job_descr")
                   .ok());
  // Trailing garbage.
  EXPECT_FALSE(parser_
                   ->Parse("SELECT * FROM Positions P, Applicants A WHERE "
                           "A.Resume SIMILAR_TO(1) P.Job_descr EXTRA")
                   .ok());
  // Lambda missing.
  EXPECT_FALSE(parser_
                   ->Parse("SELECT * FROM Positions P, Applicants A WHERE "
                           "A.Resume SIMILAR_TO() P.Job_descr")
                   .ok());
}

TEST_F(SqlParserTest, SingleQuotedStringsWork) {
  auto bound = parser_->Parse(
      "SELECT * FROM Positions P, Applicants A "
      "WHERE P.Title LIKE '%Manager%' "
      "AND A.Resume SIMILAR_TO(1) P.Job_descr");
  ASSERT_TRUE(bound.ok()) << bound.status();
}

}  // namespace
}  // namespace textjoin
