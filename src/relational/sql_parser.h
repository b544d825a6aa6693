#ifndef TEXTJOIN_RELATIONAL_SQL_PARSER_H_
#define TEXTJOIN_RELATIONAL_SQL_PARSER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/predicate.h"
#include "relational/table.h"
#include "relational/text_join_query.h"

namespace textjoin {

// Parser for the paper's extended SQL (Section 2), e.g.
//
//   SELECT P.P#, P.Title, A.SSN, A.Name
//   FROM   Positions P, Applicants A
//   WHERE  P.Title LIKE "%Engineer%"
//     AND  A.Resume SIMILAR_TO(20) P.Job_descr
//
// Grammar (case-insensitive keywords):
//
//   query      := [ EXPLAIN ANALYZE ] SELECT select_list
//                 FROM table_ref ',' table_ref
//                 WHERE condition ( AND condition )*
//   select_list:= column_ref ( ',' column_ref )* | '*'
//   table_ref  := identifier [ identifier ]          -- name [alias]
//   condition  := column_ref SIMILAR_TO '(' integer ')' column_ref
//               | column_ref LIKE string
//               | column_ref comp_op literal
//   column_ref := identifier '.' identifier | identifier
//   comp_op    := '=' | '<>' | '!=' | '<' | '<=' | '>' | '>='
//   literal    := integer | string
//
// Exactly one SIMILAR_TO condition is required. In
// `A.Resume SIMILAR_TO(l) P.Job_descr`, the left attribute is the INNER
// collection (l matches are returned per right-hand document) and the
// right attribute the OUTER one, following the paper's semantics.
//
// An `EXPLAIN ANALYZE` prefix runs the query with per-phase
// instrumentation; the predicted-vs-measured report lands in
// QueryResult::explain (see obs/explain.h).

// One parsed output column.
struct SelectItem {
  std::string table_or_alias;  // empty for an unqualified column
  std::string column;
};

// A bound, ready-to-run query. Owns the predicate objects the TextJoinQuery
// points at.
class BoundQuery {
 public:
  BoundQuery() = default;
  BoundQuery(BoundQuery&&) = default;
  BoundQuery& operator=(BoundQuery&&) = default;
  BoundQuery(const BoundQuery&) = delete;
  BoundQuery& operator=(const BoundQuery&) = delete;

  const TextJoinQuery& query() const { return query_; }
  const std::vector<SelectItem>& select_list() const { return select_; }
  bool select_all() const { return select_all_; }

  // Renders one result row ("col=value ..." plus the similarity score).
  std::string FormatRow(const QueryResultRow& row) const;

 private:
  friend class SqlParser;

  TextJoinQuery query_;
  std::vector<SelectItem> select_;
  bool select_all_ = false;
  std::vector<std::unique_ptr<Predicate>> owned_predicates_;
};

class SqlParser {
 public:
  // `tables` are the relations the FROM clause may reference, looked up by
  // case-sensitive table name.
  explicit SqlParser(std::vector<const Table*> tables)
      : tables_(std::move(tables)) {}

  // Parses and binds `sql`; the returned BoundQuery can be handed to
  // Database::ExecuteQuery via .query().
  Result<BoundQuery> Parse(const std::string& sql) const;

 private:
  std::vector<const Table*> tables_;
};

}  // namespace textjoin

#endif  // TEXTJOIN_RELATIONAL_SQL_PARSER_H_
