#include "sqldb/value.h"

#include <functional>
#include <new>
#include <stdexcept>

#include "common/string_util.h"

namespace p3pdb::sqldb {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInteger:
      return "INTEGER";
    case ValueType::kText:
      return "TEXT";
    case ValueType::kBoolean:
      return "BOOLEAN";
  }
  return "?";
}

Value Value::Text(std::string_view v) {
  if (v.size() <= kInlineText) {
    Value out(ValueType::kText);
    if (!v.empty()) std::memcpy(out.bytes_, v.data(), v.size());
    out.meta_ |= static_cast<uint8_t>(v.size() << kInlineSizeShift);
    return out;
  }
  Value out = StoreText(v, ::operator new(StoredTextBytes(v.size())));
  out.meta_ ^= kOwnedText | kSharedText;
  return out;
}

Value Value::StoreText(std::string_view v, void* where) {
  if (v.size() > UINT32_MAX) throw std::length_error("sqldb text too long");
  auto* header = static_cast<TextHeader*>(where);
  header->hash = std::hash<std::string_view>()(v);
  char* text = reinterpret_cast<char*>(header + 1);
  std::memcpy(text, v.data(), v.size());
  Value out;
  out.SetHeapText(text, v.size(), kSharedText);
  return out;
}

void Value::SetHeapText(const char* text, size_t size, uint8_t storage) {
  SetWord(text);
  const auto size32 = static_cast<uint32_t>(size);
  std::memcpy(bytes_ + 8, &size32, sizeof(size32));
  meta_ = static_cast<uint8_t>(ValueType::kText) | storage;
}

void Value::FreeText() noexcept {
  ::operator delete(const_cast<TextHeader*>(Word<const TextHeader*>() - 1));
}

void Value::CopyFrom(const Value& other) {
  if (!other.HeapText()) {
    std::memcpy(static_cast<void*>(this), static_cast<const void*>(&other),
                sizeof(Value));
    return;
  }
  const size_t bytes = other.StoredTextBytes();
  void* block = ::operator new(bytes);
  std::memcpy(block, other.Word<const TextHeader*>() - 1, bytes);
  SetHeapText(static_cast<const char*>(block) + sizeof(TextHeader),
              other.HeapSize(), kOwnedText);
}

Value Value::StoreText(void* where) const {
  std::memcpy(where, Word<const TextHeader*>() - 1, StoredTextBytes());
  Value out;
  out.SetHeapText(static_cast<const char*>(where) + sizeof(TextHeader),
                  HeapSize(), kSharedText);
  return out;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInteger:
      return std::to_string(AsInteger());
    case ValueType::kText:
      return SqlQuote(AsText());
    case ValueType::kBoolean:
      return AsBoolean() ? "TRUE" : "FALSE";
  }
  return "?";
}

std::string Value::ToDisplayString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInteger:
      return std::to_string(AsInteger());
    case ValueType::kText:
      return std::string(AsText());
    case ValueType::kBoolean:
      return AsBoolean() ? "TRUE" : "FALSE";
  }
  return "?";
}

namespace {

Status IncompatibleTypes(const Value& a, const Value& b) {
  return Status::InvalidArgument(
      std::string("cannot compare ") + ValueTypeName(a.type()) + " with " +
      ValueTypeName(b.type()));
}

}  // namespace

Result<Value> Value::CompareEq(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.type() != b.type()) return IncompatibleTypes(a, b);
  return Value::Boolean(a == b);
}

Result<Value> Value::CompareLt(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.type() != b.type()) return IncompatibleTypes(a, b);
  switch (a.type()) {
    case ValueType::kInteger:
      return Value::Boolean(a.AsInteger() < b.AsInteger());
    case ValueType::kText:
      return Value::Boolean(a.AsText() < b.AsText());
    default:
      return IncompatibleTypes(a, b);
  }
}

int Value::OrderCompare(const Value& a, const Value& b) {
  int ta = static_cast<int>(a.type());
  int tb = static_cast<int>(b.type());
  if (ta != tb) return ta < tb ? -1 : 1;
  switch (a.type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInteger: {
      int64_t x = a.AsInteger(), y = b.AsInteger();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ValueType::kText:
      return a.AsText().compare(b.AsText());
    case ValueType::kBoolean:
      return static_cast<int>(a.AsBoolean()) - static_cast<int>(b.AsBoolean());
  }
  return 0;
}

size_t Value::HashSlow() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9E3779B9;
    case ValueType::kInteger:
      return std::hash<int64_t>()(AsInteger());
    case ValueType::kText:
      return std::hash<std::string_view>()(AsText());
    case ValueType::kBoolean:
      return AsBoolean() ? 1u : 2u;
  }
  return 0;
}

}  // namespace p3pdb::sqldb
