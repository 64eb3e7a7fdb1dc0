// Value: the runtime datum of the sqldb engine.
//
// The engine supports the types the P3P shredding needs — NULL, 64-bit
// integers, and text — plus booleans as the result type of predicates.
// Comparisons follow SQL three-valued logic: any comparison involving NULL
// yields NULL, and the executor's filters only keep rows whose predicate is
// exactly TRUE.

#ifndef P3PDB_SQLDB_VALUE_H_
#define P3PDB_SQLDB_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/result.h"

namespace p3pdb::sqldb {

enum class ValueType { kNull, kInteger, kText, kBoolean };

const char* ValueTypeName(ValueType t);

/// A single SQL value. Copyable; text values own their bytes.
class Value {
 public:
  /// NULL.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Integer(int64_t v) { return Value(v); }
  static Value Text(std::string v) { return Value(std::move(v)); }
  static Value Boolean(bool v) { return Value(v); }

  ValueType type() const {
    switch (data_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kInteger;
      case 2:
        return ValueType::kText;
      default:
        return ValueType::kBoolean;
    }
  }

  bool is_null() const { return type() == ValueType::kNull; }

  int64_t AsInteger() const { return std::get<int64_t>(data_); }
  const std::string& AsText() const { return std::get<std::string>(data_); }
  bool AsBoolean() const { return std::get<bool>(data_); }

  /// True for text too long for std::string's inline buffer: the one kind
  /// of value that owns a heap block.
  bool OwnsHeapText() const {
    const std::string* text = std::get_if<std::string>(&data_);
    return text != nullptr && text->capacity() > std::string().capacity();
  }

  /// SQL-literal-ish rendering: NULL, 42, 'text', TRUE.
  std::string ToString() const;

  /// Raw rendering without quotes, used for result tables.
  std::string ToDisplayString() const;

  /// Strict equality of type and content (NULL == NULL here; this is the
  /// C++-level identity used by containers, not SQL equality).
  bool operator==(const Value& other) const { return data_ == other.data_; }

  /// Three-valued SQL comparison. Returns Boolean or Null. Comparing values
  /// of incompatible non-null types is an error (the binder should have
  /// rejected it; kept as a runtime check for robustness).
  static Result<Value> CompareEq(const Value& a, const Value& b);
  static Result<Value> CompareLt(const Value& a, const Value& b);

  /// Total order used for ORDER BY and index keys: NULL first, then by type,
  /// then by content. Returns <0, 0, >0.
  static int OrderCompare(const Value& a, const Value& b);

  /// Hash compatible with OrderCompare equality, for hash indexes.
  size_t Hash() const;

 private:
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(bool v) : data_(v) {}

  std::variant<std::monostate, int64_t, std::string, bool> data_;
};

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_VALUE_H_
