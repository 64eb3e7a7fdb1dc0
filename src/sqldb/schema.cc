#include "sqldb/schema.h"

#include "common/string_util.h"

namespace p3pdb::sqldb {

const char* ColumnTypeName(ColumnType t) {
  switch (t) {
    case ColumnType::kInteger:
      return "INTEGER";
    case ColumnType::kText:
      return "VARCHAR";
  }
  return "?";
}

std::optional<size_t> TableSchema::ColumnIndex(
    std::string_view column_name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, column_name)) return i;
  }
  return std::nullopt;
}

Status TableSchema::ValidateRow(std::span<const Value> row) const {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, table '" + name_ +
        "' has " + std::to_string(columns_.size()) + " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const ColumnDef& col = columns_[i];
    const Value& v = row[i];
    if (v.is_null()) {
      if (!col.nullable) {
        return Status::InvalidArgument("NULL in non-nullable column '" +
                                       col.name + "' of table '" + name_ +
                                       "'");
      }
      continue;
    }
    const bool type_ok =
        (col.type == ColumnType::kInteger &&
         v.type() == ValueType::kInteger) ||
        (col.type == ColumnType::kText && v.type() == ValueType::kText);
    if (!type_ok) {
      return Status::InvalidArgument(
          std::string("type mismatch in column '") + col.name + "': expected " +
          ColumnTypeName(col.type) + ", got " + ValueTypeName(v.type()));
    }
  }
  return Status::OK();
}

std::string TableSchema::ToCreateTableSql() const {
  std::string sql = "CREATE TABLE " + name_ + " (";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += columns_[i].name;
    sql += ' ';
    sql += ColumnTypeName(columns_[i].type);
    if (!columns_[i].nullable) sql += " NOT NULL";
  }
  if (!primary_key_.empty()) {
    sql += ", PRIMARY KEY (" + Join(primary_key_, ", ") + ")";
  }
  for (const ForeignKeyDef& fk : foreign_keys_) {
    sql += ", FOREIGN KEY (" + Join(fk.columns, ", ") + ") REFERENCES " +
           fk.referenced_table + " (" + Join(fk.referenced_columns, ", ") + ")";
  }
  sql += ")";
  return sql;
}

}  // namespace p3pdb::sqldb
