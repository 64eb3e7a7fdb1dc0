// Byte-level encoding shared by the WAL and the checkpoint writer.
//
// Everything is little-endian and length-prefixed; decoding is bounds-checked
// against the slice so a torn or corrupt record fails cleanly instead of
// reading past the buffer. The format stores only what the in-memory engine
// supports as column storage: NULL, INTEGER, TEXT (BOOLEAN is an expression
// type, never a stored one — ValidateRow rejects it).

#ifndef P3PDB_SQLDB_STORAGE_SERDE_H_
#define P3PDB_SQLDB_STORAGE_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "sqldb/schema.h"
#include "sqldb/value.h"

namespace p3pdb::sqldb {

class Index;

/// A secondary index as the WAL and the checkpoint store it: the index
/// name, its key columns by name, and uniqueness.
struct IndexDef {
  std::string name;
  std::vector<std::string> columns;
  bool unique = false;
};

/// FNV-1a over a byte range; the WAL record and meta-block checksum.
uint64_t StorageChecksum(const uint8_t* data, size_t len);

/// Append-only encoder.
struct ByteWriter {
  std::vector<uint8_t> bytes;

  void PutU8(uint8_t v) { bytes.push_back(v); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutString(std::string_view s);
  void PutValue(const Value& v);
  void PutRow(RowView row);
  void PutSchema(const TableSchema& schema);
  /// Encodes `index` of a table with `schema` as an IndexDef.
  void PutIndexDef(const TableSchema& schema, const Index& index);
};

/// Bounds-checked decoder over a borrowed byte range.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<std::string> GetString();
  /// A string's bytes, viewed in the decoded range.
  Result<std::string_view> GetStringView();
  Result<Value> GetValue();
  Result<Row> GetRow();
  /// GetRow into `row`, reusing its capacity.
  Status GetRow(Row* row);
  Result<TableSchema> GetSchema();
  Result<IndexDef> GetIndexDef();

  size_t remaining() const { return len_ - pos_; }
  bool exhausted() const { return pos_ == len_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_STORAGE_SERDE_H_
