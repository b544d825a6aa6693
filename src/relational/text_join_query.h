#ifndef TEXTJOIN_RELATIONAL_TEXT_JOIN_QUERY_H_
#define TEXTJOIN_RELATIONAL_TEXT_JOIN_QUERY_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "planner/planner.h"
#include "relational/predicate.h"
#include "relational/table.h"
#include "storage/io_stats.h"

namespace textjoin {

// A query of the paper's Section 2 shape:
//
//   SELECT ...
//   FROM   inner_table I, outer_table O
//   WHERE  <inner predicates on I> AND <outer predicates on O>
//     AND  I.inner_text SIMILAR_TO(lambda) O.outer_text
//
// For every qualifying row of the outer table, report the lambda rows of
// the inner table whose text attribute is most similar to the outer row's
// text attribute. ("A.Resume SIMILAR_TO(20) P.Job_descr" makes Applicants
// the inner and Positions the outer table.)
struct TextJoinQuery {
  const Table* inner_table = nullptr;
  std::string inner_text_column;
  const Table* outer_table = nullptr;
  std::string outer_text_column;

  int64_t lambda = 20;
  SimilarityConfig similarity;

  std::vector<const Predicate*> inner_predicates;
  std::vector<const Predicate*> outer_predicates;

  // EXPLAIN ANALYZE: run the join with per-phase instrumentation and
  // return the predicted-vs-measured report in QueryResult::explain.
  bool explain_analyze = false;
  ExplainOptions explain_options;
};

// One result pair.
struct QueryResultRow {
  int64_t outer_row = 0;
  int64_t inner_row = 0;
  double score = 0;
};

struct QueryResult {
  std::vector<QueryResultRow> rows;  // grouped by outer row, best first
  PlanChoice plan;                   // which algorithm ran and why
  IoStats io;                        // pages read, similarity set-up too

  // Filled only under EXPLAIN ANALYZE: the per-phase statistics tree and
  // the rendered predicted-vs-measured report.
  QueryStats stats;
  std::string explain;
};

// One side of a query resolved against its table: the documents the
// selected rows reference and the way back from a document to its row.
struct ResolvedSide {
  const DocumentCollection* collection = nullptr;
  std::vector<DocId> docs;  // ascending
  std::unordered_map<DocId, int64_t> row_of;
  bool reduced = false;  // `docs` is not the whole collection
};

// Evaluates `predicates` on `table` and collects the documents the selected
// rows reference in the TEXT column `column`.
Result<ResolvedSide> ResolveSide(
    const Table* table, const std::string& column,
    const std::vector<const Predicate*>& predicates);

}  // namespace textjoin

#endif  // TEXTJOIN_RELATIONAL_TEXT_JOIN_QUERY_H_
