#include "relational/table.h"

#include "common/logging.h"

namespace textjoin {

Table::Table(std::string name, std::vector<Column> schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  collections_.assign(schema_.size(), nullptr);
}

int64_t Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i].name == name) return static_cast<int64_t>(i);
  }
  return -1;
}

Status Table::AttachCollection(const std::string& column,
                               const DocumentCollection* collection) {
  int64_t c = ColumnIndex(column);
  if (c < 0) return Status::NotFound("no column named " + column);
  if (schema_[c].type != ColumnType::kText) {
    return Status::InvalidArgument(column + " is not a TEXT column");
  }
  collections_[c] = collection;
  return Status::OK();
}

const DocumentCollection* Table::CollectionOf(int64_t column) const {
  TEXTJOIN_CHECK_GE(column, 0);
  TEXTJOIN_CHECK_LT(column, static_cast<int64_t>(collections_.size()));
  return collections_[column];
}

Status Table::AddRow(std::vector<Value> values) {
  if (values.size() != schema_.size()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (TypeOf(values[i]) != schema_[i].type) {
      return Status::InvalidArgument("type mismatch in column " +
                                     schema_[i].name);
    }
    if (schema_[i].type == ColumnType::kText) {
      const DocumentCollection* col = collections_[i];
      if (col == nullptr) {
        return Status::FailedPrecondition("TEXT column " + schema_[i].name +
                                          " has no attached collection");
      }
      DocId doc = std::get<TextRef>(values[i]).doc;
      if (doc >= col->num_documents()) {
        return Status::OutOfRange("TEXT ref out of collection range");
      }
    }
  }
  rows_.push_back(std::move(values));
  return Status::OK();
}

const std::vector<Value>& Table::row(int64_t r) const {
  TEXTJOIN_CHECK_GE(r, 0);
  TEXTJOIN_CHECK_LT(r, num_rows());
  return rows_[static_cast<size_t>(r)];
}

const Value& Table::at(int64_t r, int64_t c) const {
  TEXTJOIN_CHECK_GE(c, 0);
  TEXTJOIN_CHECK_LT(c, num_columns());
  return row(r)[static_cast<size_t>(c)];
}

}  // namespace textjoin
