#include "sqldb/storage_serde.h"

#include <cstring>

#include "common/fnv.h"
#include "sqldb/table.h"

namespace p3pdb::sqldb {

namespace {

// Value tags in the on-disk encoding.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInteger = 1;
constexpr uint8_t kTagText = 2;

}  // namespace

uint64_t StorageChecksum(const uint8_t* data, size_t len) {
  return FnvHash({data, len});
}

void ByteWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  bytes.insert(bytes.end(), s.begin(), s.end());
}

void ByteWriter::PutValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      PutU8(kTagNull);
      return;
    case ValueType::kInteger:
      PutU8(kTagInteger);
      PutU64(static_cast<uint64_t>(v.AsInteger()));
      return;
    case ValueType::kText:
      PutU8(kTagText);
      PutString(v.AsText());
      return;
    case ValueType::kBoolean:
      // Booleans are expression-only; ValidateRow rejects them as storage,
      // so a boolean can never reach the WAL or a checkpoint.
      PutU8(kTagNull);
      return;
  }
}

void ByteWriter::PutRow(const Row& row) {
  PutU32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) PutValue(v);
}

void ByteWriter::PutSchema(const TableSchema& schema) {
  PutString(schema.name());
  PutU32(static_cast<uint32_t>(schema.columns().size()));
  for (const ColumnDef& col : schema.columns()) {
    PutString(col.name);
    PutU8(col.type == ColumnType::kInteger ? 0 : 1);
    PutU8(col.nullable ? 1 : 0);
  }
  PutU32(static_cast<uint32_t>(schema.primary_key().size()));
  for (const std::string& col : schema.primary_key()) PutString(col);
  PutU32(static_cast<uint32_t>(schema.foreign_keys().size()));
  for (const ForeignKeyDef& fk : schema.foreign_keys()) {
    PutU32(static_cast<uint32_t>(fk.columns.size()));
    for (const std::string& col : fk.columns) PutString(col);
    PutString(fk.referenced_table);
    PutU32(static_cast<uint32_t>(fk.referenced_columns.size()));
    for (const std::string& col : fk.referenced_columns) PutString(col);
  }
}

void ByteWriter::PutIndexDef(const TableSchema& schema, const Index& index) {
  PutString(index.name());
  PutU32(static_cast<uint32_t>(index.column_ordinals().size()));
  for (size_t ord : index.column_ordinals()) {
    PutString(schema.columns()[ord].name);
  }
  PutU8(index.unique() ? 1 : 0);
}

Result<uint8_t> ByteReader::GetU8() {
  if (pos_ + 1 > len_) return Status::ParseError("storage decode: short u8");
  return data_[pos_++];
}

Result<uint32_t> ByteReader::GetU32() {
  if (pos_ + 4 > len_) return Status::ParseError("storage decode: short u32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::GetU64() {
  if (pos_ + 8 > len_) return Status::ParseError("storage decode: short u64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<std::string> ByteReader::GetString() {
  P3PDB_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  if (pos_ + len > len_) {
    return Status::ParseError("storage decode: short string");
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

Result<Value> ByteReader::GetValue() {
  P3PDB_ASSIGN_OR_RETURN(uint8_t tag, GetU8());
  switch (tag) {
    case kTagNull:
      return Value::Null();
    case kTagInteger: {
      P3PDB_ASSIGN_OR_RETURN(uint64_t raw, GetU64());
      return Value::Integer(static_cast<int64_t>(raw));
    }
    case kTagText: {
      P3PDB_ASSIGN_OR_RETURN(std::string s, GetString());
      return Value::Text(std::move(s));
    }
    default:
      return Status::ParseError("storage decode: bad value tag " +
                                std::to_string(tag));
  }
}

Result<Row> ByteReader::GetRow() {
  P3PDB_ASSIGN_OR_RETURN(uint32_t count, GetU32());
  if (count > remaining()) {
    // Each value costs at least one tag byte; a count beyond the remaining
    // bytes is corruption, not a huge row.
    return Status::ParseError("storage decode: row count exceeds payload");
  }
  Row row;
  row.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    P3PDB_ASSIGN_OR_RETURN(Value v, GetValue());
    row.push_back(std::move(v));
  }
  return row;
}

Result<TableSchema> ByteReader::GetSchema() {
  P3PDB_ASSIGN_OR_RETURN(std::string name, GetString());
  P3PDB_ASSIGN_OR_RETURN(uint32_t ncols, GetU32());
  std::vector<ColumnDef> columns;
  columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    ColumnDef col;
    P3PDB_ASSIGN_OR_RETURN(col.name, GetString());
    P3PDB_ASSIGN_OR_RETURN(uint8_t type, GetU8());
    col.type = type == 0 ? ColumnType::kInteger : ColumnType::kText;
    P3PDB_ASSIGN_OR_RETURN(uint8_t nullable, GetU8());
    col.nullable = nullable != 0;
    columns.push_back(std::move(col));
  }
  TableSchema schema(std::move(name), std::move(columns));
  P3PDB_ASSIGN_OR_RETURN(uint32_t npk, GetU32());
  std::vector<std::string> pk;
  pk.reserve(npk);
  for (uint32_t i = 0; i < npk; ++i) {
    P3PDB_ASSIGN_OR_RETURN(std::string col, GetString());
    pk.push_back(std::move(col));
  }
  schema.set_primary_key(std::move(pk));
  P3PDB_ASSIGN_OR_RETURN(uint32_t nfk, GetU32());
  for (uint32_t i = 0; i < nfk; ++i) {
    ForeignKeyDef fk;
    P3PDB_ASSIGN_OR_RETURN(uint32_t nc, GetU32());
    for (uint32_t j = 0; j < nc; ++j) {
      P3PDB_ASSIGN_OR_RETURN(std::string col, GetString());
      fk.columns.push_back(std::move(col));
    }
    P3PDB_ASSIGN_OR_RETURN(fk.referenced_table, GetString());
    P3PDB_ASSIGN_OR_RETURN(uint32_t nrc, GetU32());
    for (uint32_t j = 0; j < nrc; ++j) {
      P3PDB_ASSIGN_OR_RETURN(std::string col, GetString());
      fk.referenced_columns.push_back(std::move(col));
    }
    schema.AddForeignKey(std::move(fk));
  }
  return schema;
}

Result<IndexDef> ByteReader::GetIndexDef() {
  IndexDef def;
  P3PDB_ASSIGN_OR_RETURN(def.name, GetString());
  P3PDB_ASSIGN_OR_RETURN(uint32_t ncols, GetU32());
  def.columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    P3PDB_ASSIGN_OR_RETURN(std::string col, GetString());
    def.columns.push_back(std::move(col));
  }
  P3PDB_ASSIGN_OR_RETURN(uint8_t unique, GetU8());
  def.unique = unique != 0;
  return def;
}

}  // namespace p3pdb::sqldb
