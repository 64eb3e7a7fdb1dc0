// Table schemas: column definitions, primary keys, and foreign keys.

#ifndef P3PDB_SQLDB_SCHEMA_H_
#define P3PDB_SQLDB_SCHEMA_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "sqldb/value.h"

namespace p3pdb::sqldb {

/// A table's position in its database's creation-order table array (see
/// TableSlots, table.h). A dropped table's slot stays empty, so slots are
/// stable for the life of a schema identity.
using CatalogSlot = uint32_t;
inline constexpr CatalogSlot kNoSlot = UINT32_MAX;

/// Declared column type. kText covers both VARCHAR(n) and TEXT; length
/// limits are parsed but not enforced (matching common engines' permissive
/// TEXT behaviour and keeping shredded values intact).
enum class ColumnType { kInteger, kText };

const char* ColumnTypeName(ColumnType t);

struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kText;
  bool nullable = true;
};

/// A FOREIGN KEY (cols) REFERENCES table (cols) declaration.
struct ForeignKeyDef {
  std::vector<std::string> columns;
  std::string referenced_table;
  std::vector<std::string> referenced_columns;
};

/// The logical definition of a table.
class TableSchema {
 public:
  TableSchema() = default;
  TableSchema(std::string name, std::vector<ColumnDef> columns)
      : name_(std::move(name)), columns_(std::move(columns)) {}

  const std::string& name() const { return name_; }
  const std::vector<ColumnDef>& columns() const { return columns_; }
  size_t ColumnCount() const { return columns_.size(); }

  /// Case-insensitive column lookup; returns the ordinal or nullopt.
  std::optional<size_t> ColumnIndex(std::string_view column_name) const;

  const std::vector<std::string>& primary_key() const { return primary_key_; }
  void set_primary_key(std::vector<std::string> cols) {
    primary_key_ = std::move(cols);
  }

  const std::vector<ForeignKeyDef>& foreign_keys() const {
    return foreign_keys_;
  }
  void AddForeignKey(ForeignKeyDef fk) {
    foreign_keys_.push_back(std::move(fk));
  }

  /// Verifies a row matches this schema: arity, types (NULL allowed per
  /// column nullability), booleans rejected as storage types.
  Status ValidateRow(std::span<const Value> row) const;

  /// Renders a CREATE TABLE statement for this schema.
  std::string ToCreateTableSql() const;

 private:
  std::string name_;
  std::vector<ColumnDef> columns_;
  std::vector<std::string> primary_key_;
  std::vector<ForeignKeyDef> foreign_keys_;
};

/// A row is a flat vector of values aligned with the schema's columns: what
/// an insert takes and a query returns.
using Row = std::vector<Value>;

/// A read-only view of one row's values: a table's slot (Table::RowAt) or a
/// Row.
using RowView = std::span<const Value>;

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_SCHEMA_H_
