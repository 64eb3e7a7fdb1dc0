// Value: the runtime datum of the sqldb engine.
//
// The engine supports the types the P3P shredding needs — NULL, 64-bit
// integers, and text — plus booleans as the result type of predicates.
// Comparisons follow SQL three-valued logic: any comparison involving NULL
// yields NULL, and the executor's filters only keep rows whose predicate is
// exactly TRUE.
//
// A Value is 16 bytes: a type tag plus an integer, a boolean, or text. Text
// of up to kInlineText bytes sits inside the Value. Longer text is a
// pointer and a 32-bit length to bytes that follow an 8-byte header holding
// their hash, and those bytes are either
//  - owned: a heap block this Value allocated and frees (Value::Text, and
//    every copy), or
//  - shared: kept alive by someone else. A table interns each distinct
//    long text of its rows once in its TextPool (table.h) and its rows hold
//    shared Values into it; a literal's text lives in its statement's
//    arena; Borrow() shares any Value's bytes.
// Copying a Value always yields one that stands alone: shared text is
// copied into an owned block, so a value copied out of a row, a QueryResult
// row, a parameter or a literal stays valid after its table is dropped or
// its Database is destroyed. Only Borrow() makes a 16-byte copy that shares
// bytes; the executor uses it for values that live no longer than one
// execution and owns them again (Own) before they leave in a QueryResult.
//
// Hash() of text is std::hash<std::string_view> of its bytes wherever they
// are stored, so index slots, hash-join key sets and the statistics'
// sketches agree across replicas, restores and storage kinds.

#ifndef P3PDB_SQLDB_VALUE_H_
#define P3PDB_SQLDB_VALUE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/result.h"

namespace p3pdb::sqldb {

enum class ValueType : uint8_t { kNull, kInteger, kText, kBoolean };

const char* ValueTypeName(ValueType t);

/// A single SQL value (see the file comment for how text is stored).
class Value {
 public:
  /// Text up to this many bytes is stored inside the Value (as much as
  /// std::string keeps inline).
  static constexpr size_t kInlineText = 15;

  /// NULL.
  Value() noexcept = default;

  static Value Null() { return Value(); }
  static Value Integer(int64_t v) {
    Value out(ValueType::kInteger);
    out.SetWord(v);
    return out;
  }
  /// Text holding a copy of `v`'s bytes (embedded NULs included). Text
  /// longer than 4 GiB - 1 throws std::length_error.
  static Value Text(std::string_view v);
  static Value Boolean(bool v) {
    Value out(ValueType::kBoolean);
    out.SetWord<int64_t>(v ? 1 : 0);
    return out;
  }

  Value(const Value& other) { CopyFrom(other); }
  Value(Value&& other) noexcept { TakeFrom(other); }
  Value& operator=(const Value& other) {
    if (this != &other) {
      Release();
      CopyFrom(other);
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      TakeFrom(other);
    }
    return *this;
  }
  ~Value() { Release(); }

  ValueType type() const { return static_cast<ValueType>(meta_ & kTypeBits); }
  bool is_null() const { return type() == ValueType::kNull; }

  int64_t AsInteger() const { return Word<int64_t>(); }
  /// The text's bytes: valid while this Value (and, for shared text, its
  /// owner) lives and is not assigned.
  std::string_view AsText() const {
    if (HeapText()) return {Word<const char*>(), HeapSize()};
    return {bytes_, static_cast<size_t>(meta_ >> kInlineSizeShift)};
  }
  bool AsBoolean() const { return Word<int64_t>() != 0; }

  /// A 16-byte copy that shares this value's text bytes instead of copying
  /// them: valid only while they are (this Value, or the table, arena or
  /// Value this one shares from, lives unchanged). Own() it before it
  /// outlives them.
  Value Borrow() const {
    Value out;
    std::memcpy(static_cast<void*>(&out), static_cast<const void*>(this),
                sizeof(Value));
    if (out.meta_ & kOwnedText) out.meta_ ^= kOwnedText | kSharedText;
    return out;
  }
  /// Copies shared text into an owned block, so this Value stands alone.
  void Own() {
    if (meta_ & kSharedText) *this = Value(*this);
  }

  /// SQL-literal-ish rendering: NULL, 42, 'text', TRUE.
  std::string ToString() const;

  /// Raw rendering without quotes, used for result tables.
  std::string ToDisplayString() const;

  /// Strict equality of type and content (NULL == NULL here; this is the
  /// C++-level identity used by containers, not SQL equality).
  bool operator==(const Value& other) const {
    const ValueType t = type();
    if (t != other.type()) return false;
    if (t == ValueType::kNull) return true;
    if (t != ValueType::kText) return Word<int64_t>() == other.Word<int64_t>();
    const std::string_view a = AsText();
    const std::string_view b = other.AsText();
    // Interned text of one table pool: equal bytes, equal pointer.
    return a.size() == b.size() &&
           (a.data() == b.data() ||
            std::memcmp(a.data(), b.data(), a.size()) == 0);
  }

  /// Three-valued SQL comparison. Returns Boolean or Null. Comparing values
  /// of incompatible non-null types is an error (the binder should have
  /// rejected it; kept as a runtime check for robustness).
  static Result<Value> CompareEq(const Value& a, const Value& b);
  static Result<Value> CompareLt(const Value& a, const Value& b);

  /// Total order used for ORDER BY and index keys: NULL first, then by type,
  /// then by content. Returns <0, 0, >0.
  static int OrderCompare(const Value& a, const Value& b);

  /// Hash compatible with OrderCompare equality, for hash indexes: for text
  /// a function of its bytes alone.
  size_t Hash() const {
    if (HeapText()) return Word<const TextHeader*>()[-1].hash;
    return HashSlow();
  }

  /// Text kept outside the Value (longer than kInlineText): the bytes a
  /// copy of it takes, header included, or 0 for any other value.
  size_t StoredTextBytes() const {
    return HeapText() ? StoredTextBytes(HeapSize()) : 0;
  }
  static size_t StoredTextBytes(size_t size) {
    return size > kInlineText ? sizeof(TextHeader) + size : 0;
  }
  /// Places a copy of this value's text (StoredTextBytes() != 0) at
  /// `where`, 8-byte aligned, and returns a Value sharing it. The caller
  /// keeps those bytes alive and unchanged while it and its copies' borrows
  /// are read: the table text pool and the statement arena do.
  Value StoreText(void* where) const;
  /// The same for text `v` (StoredTextBytes(v.size()) != 0).
  static Value StoreText(std::string_view v, void* where);

 private:
  // meta_: the ValueType in the low two bits; for long text one of the two
  // storage bits, for inline text its size in the high four bits.
  static constexpr uint8_t kTypeBits = 0x03;
  static constexpr uint8_t kOwnedText = 0x04;
  static constexpr uint8_t kSharedText = 0x08;
  static constexpr int kInlineSizeShift = 4;
  // The 8 bytes before a long text's first byte.
  struct TextHeader {
    uint64_t hash;
  };

  explicit Value(ValueType type) : meta_(static_cast<uint8_t>(type)) {}

  bool HeapText() const { return (meta_ & (kOwnedText | kSharedText)) != 0; }
  size_t HeapSize() const {
    uint32_t size;
    std::memcpy(&size, bytes_ + 8, sizeof(size));
    return size;
  }
  template <typename T>
  T Word() const {
    static_assert(sizeof(T) == 8);
    T word;
    std::memcpy(&word, bytes_, sizeof(word));
    return word;
  }
  template <typename T>
  void SetWord(T word) {
    static_assert(sizeof(T) == 8);
    std::memcpy(bytes_, &word, sizeof(word));
  }
  /// Makes this Value text of `size` bytes at `text`, which follow a
  /// TextHeader; `storage` is kOwnedText or kSharedText.
  void SetHeapText(const char* text, size_t size, uint8_t storage);

  size_t HashSlow() const;
  void CopyFrom(const Value& other);
  void TakeFrom(Value& other) noexcept {
    std::memcpy(static_cast<void*>(this), static_cast<const void*>(&other),
                sizeof(Value));
    other.meta_ = 0;
  }
  void Release() noexcept {
    if (meta_ & kOwnedText) FreeText();
  }
  void FreeText() noexcept;

  // Inline text: bytes_[0, size). Integer and boolean: bytes_[0, 8). Long
  // text: the pointer in bytes_[0, 8), its size in bytes_[8, 12).
  alignas(8) char bytes_[kInlineText] = {};
  uint8_t meta_ = 0;  // NULL
};
static_assert(sizeof(Value) == 16);

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_VALUE_H_
