#include "relational/text_join_query.h"

#include <algorithm>

namespace textjoin {

Result<ResolvedSide> ResolveSide(
    const Table* table, const std::string& column,
    const std::vector<const Predicate*>& predicates) {
  if (table == nullptr) {
    return Status::InvalidArgument("query is missing a table");
  }
  int64_t c = table->ColumnIndex(column);
  if (c < 0) {
    return Status::NotFound("no column " + column + " in table " +
                            table->name());
  }
  if (table->schema()[c].type != ColumnType::kText) {
    return Status::InvalidArgument(column + " is not a TEXT column");
  }
  ResolvedSide side;
  side.collection = table->CollectionOf(c);
  if (side.collection == nullptr) {
    return Status::FailedPrecondition("TEXT column " + column +
                                      " has no attached collection");
  }
  std::vector<int64_t> rows = SelectRows(*table, predicates);
  side.reduced = static_cast<int64_t>(rows.size()) < table->num_rows();
  side.docs.reserve(rows.size());
  for (int64_t r : rows) {
    DocId doc = std::get<TextRef>(table->at(r, c)).doc;
    if (!side.row_of.emplace(doc, r).second) {
      return Status::InvalidArgument(
          "two rows reference the same document in " + table->name());
    }
    side.docs.push_back(doc);
  }
  std::sort(side.docs.begin(), side.docs.end());
  // The join must also ignore collection documents no selected row
  // references (the table may cover only part of the collection).
  side.reduced = side.reduced || static_cast<int64_t>(side.docs.size()) <
                                     side.collection->num_documents();
  return side;
}

}  // namespace textjoin
