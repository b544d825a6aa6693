#ifndef TEXTJOIN_RELATIONAL_TABLE_H_
#define TEXTJOIN_RELATIONAL_TABLE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "relational/value.h"
#include "text/collection.h"

namespace textjoin {

// A column of a table schema.
struct Column {
  std::string name;
  ColumnType type = ColumnType::kInt;
};

// An in-memory relation whose TEXT columns reference documents in attached
// DocumentCollections, e.g. the paper's
//   Applicants(SSN, Name, Resume)  /  Positions(P#, Title, Job_descr).
class Table {
 public:
  Table(std::string name, std::vector<Column> schema);

  const std::string& name() const { return name_; }
  const std::vector<Column>& schema() const { return schema_; }
  int64_t num_columns() const { return static_cast<int64_t>(schema_.size()); }
  int64_t num_rows() const { return static_cast<int64_t>(rows_.size()); }

  // Index of a column by name, or -1.
  int64_t ColumnIndex(const std::string& name) const;

  // Attaches the backing collection of a TEXT column. Must be called
  // before rows referencing that column's documents are added.
  Status AttachCollection(const std::string& column,
                          const DocumentCollection* collection);

  const DocumentCollection* CollectionOf(int64_t column) const;

  // Appends a row; values must match the schema's types, and TEXT refs
  // must be in range of the attached collection.
  Status AddRow(std::vector<Value> values);

  const std::vector<Value>& row(int64_t r) const;
  const Value& at(int64_t r, int64_t c) const;

 private:
  std::string name_;
  std::vector<Column> schema_;
  std::vector<const DocumentCollection*> collections_;  // per column
  std::vector<std::vector<Value>> rows_;
};

}  // namespace textjoin

#endif  // TEXTJOIN_RELATIONAL_TABLE_H_
