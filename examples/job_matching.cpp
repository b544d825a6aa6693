// The paper's motivating example (Section 2): global relations
//
//   Applicants(SSN, Name, Resume)        -- Resume of type text
//   Positions(P#, Title, Job_descr)      -- Job_descr of type text
//
// and the extended-SQL query
//
//   SELECT P.P#, P.Title, A.SSN, A.Name
//   FROM   Positions P, Applicants A
//   WHERE  A.Resume SIMILAR_TO(2) P.Job_descr
//
// followed by the selective variant
//
//   ... WHERE P.Title LIKE "%Engineer%"
//        AND  A.Resume SIMILAR_TO(2) P.Job_descr
//
// which shows how a selection on a non-textual attribute reduces the
// participating documents before the text join runs.

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "relational/database.h"

using namespace textjoin;

namespace {

struct Applicant {
  int64_t ssn;
  const char* name;
  const char* resume;
};

struct Position {
  int64_t number;
  const char* title;
  const char* descr;
};

const Applicant kApplicants[] = {
    {101, "Ada", "compiler engineer with experience in code generation, "
                 "register allocation and llvm optimization passes"},
    {102, "Ben", "database engineer: storage engines, b-tree indexing, "
                 "query optimization and transaction processing"},
    {103, "Cleo", "embedded software engineer for realtime control "
                  "systems, rtos kernels, can bus drivers"},
    {104, "Dov", "marketing manager, brand strategy, social media "
                 "campaigns and market research"},
    {105, "Eva", "site reliability engineer, kubernetes, observability, "
                 "incident response, capacity planning"},
    {106, "Fay", "data engineer building etl pipelines, columnar storage, "
                 "query processing over large datasets"},
};

const Position kPositions[] = {
    {1, "Database Engineer",
     "we need an engineer for our storage and query processing team: "
     "indexing, b-tree internals, transaction support"},
    {2, "Marketing Lead",
     "lead our brand and social media campaigns, own market research"},
    {3, "Embedded Engineer",
     "realtime embedded control software, rtos experience, drivers"},
    {4, "Platform Engineer",
     "kubernetes platform work: observability, reliability, capacity"},
};

}  // namespace

int main() {
  Database db(4096);
  db.set_system_params(SystemParams{200, 4096, 5.0});

  // Build the two text collections behind the TEXT attributes.
  std::vector<std::string> resumes;
  for (const Applicant& a : kApplicants) resumes.push_back(a.resume);
  TEXTJOIN_CHECK_OK(db.AddCollectionFromText("resumes", resumes).status());

  std::vector<std::string> jobs;
  for (const Position& p : kPositions) jobs.push_back(p.descr);
  TEXTJOIN_CHECK_OK(
      db.AddCollectionFromText("job_descriptions", jobs).status());

  // The relations.
  Table applicants("Applicants", {{"SSN", ColumnType::kInt},
                                  {"Name", ColumnType::kString},
                                  {"Resume", ColumnType::kText}});
  TEXTJOIN_CHECK_OK(
      applicants.AttachCollection("Resume", db.collection("resumes")));
  for (size_t i = 0; i < std::size(kApplicants); ++i) {
    TEXTJOIN_CHECK_OK(applicants.AddRow({kApplicants[i].ssn,
                                         std::string(kApplicants[i].name),
                                         TextRef{static_cast<DocId>(i)}}));
  }

  Table positions("Positions", {{"P#", ColumnType::kInt},
                                {"Title", ColumnType::kString},
                                {"Job_descr", ColumnType::kText}});
  TEXTJOIN_CHECK_OK(positions.AttachCollection(
      "Job_descr", db.collection("job_descriptions")));
  for (size_t i = 0; i < std::size(kPositions); ++i) {
    TEXTJOIN_CHECK_OK(positions.AddRow({kPositions[i].number,
                                        std::string(kPositions[i].title),
                                        TextRef{static_cast<DocId>(i)}}));
  }

  // The inverted file on the resumes lets the planner consider HVNL.
  TEXTJOIN_CHECK_OK(db.BuildIndex("resumes").status());

  // The query as a TextJoinQuery rather than SQL text: SQL's SIMILAR_TO
  // scores raw dot products, and this example ranks by cosine similarity.
  TextJoinQuery query;
  query.inner_table = &applicants;
  query.inner_text_column = "Resume";
  query.outer_table = &positions;
  query.outer_text_column = "Job_descr";
  query.lambda = 2;
  query.similarity.cosine_normalize = true;

  auto print = [&](const QueryResult& r) {
    std::printf("  plan: %s\n", r.plan.explanation.c_str());
    for (const QueryResultRow& row : r.rows) {
      std::printf("  P#%lld %-18s <- %-5s (SSN %lld)  similarity %.3f\n",
                  static_cast<long long>(std::get<int64_t>(
                      positions.at(row.outer_row, 0))),
                  std::get<std::string>(positions.at(row.outer_row, 1))
                      .c_str(),
                  std::get<std::string>(applicants.at(row.inner_row, 1))
                      .c_str(),
                  static_cast<long long>(std::get<int64_t>(
                      applicants.at(row.inner_row, 0))),
                  row.score);
    }
    std::printf("  join I/O: %s\n", r.io.ToString().c_str());
  };

  std::printf(
      "Query 1: A.Resume SIMILAR_TO(2) P.Job_descr  (all positions)\n");
  auto r1 = db.ExecuteQuery(query);
  TEXTJOIN_CHECK_OK(r1.status());
  print(*r1);

  std::printf(
      "\nQuery 2: P.Title LIKE \"%%Engineer%%\" AND A.Resume "
      "SIMILAR_TO(2) P.Job_descr\n");
  LikePredicate engineer("Title", "%Engineer%");
  query.outer_predicates.push_back(&engineer);
  auto r2 = db.ExecuteQuery(query);
  TEXTJOIN_CHECK_OK(r2.status());
  print(*r2);

  return 0;
}
