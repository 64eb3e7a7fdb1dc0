// In-memory row-store table with hash indexes.
//
// Rows live in one append-only array of 16-byte Values, row after row with
// a stride of the column count; deletion marks a tombstone so row ids stay
// stable for the indexes. Text longer than a Value holds inline is interned
// in the table's TextPool: each distinct text is stored once, and a row's
// cell shares it. A hash index maps a composite key (one or
// more column values) to the row ids carrying it, and stores only row ids:
// one 16-byte slot per distinct key plus a 4-byte chain link per row, with
// keys compared against the table's own rows (see Index). The primary key
// is backed by an automatically created unique index, which is what makes
// the shredded policy-id joins in the generated APPEL queries fast.

#ifndef P3PDB_SQLDB_TABLE_H_
#define P3PDB_SQLDB_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "common/result.h"
#include "sqldb/schema.h"
#include "sqldb/value.h"

namespace p3pdb::sqldb {

/// Composite-key hashing, one definition for Index and the hash-join key
/// sets (executor.h). Each column's Value::Hash is folded in with the
/// FNV-1a 64-bit step (common/fnv.h) over the whole word. Value::Hash of an
/// integer is the integer itself, and the fold's multiply only carries
/// upward, so the folded hash's low bits depend on the columns' low bits
/// alone; FinalizeKeyHash (MurmurHash3's fmix64) spreads every input bit
/// into them, which is what lets Index take a slot from the low bits.
inline uint64_t CombineKeyHash(uint64_t hash, const Value& column) {
  return (hash ^ column.Hash()) * kFnvPrime;
}

inline uint64_t FinalizeKeyHash(uint64_t hash) {
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdULL;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ULL;
  hash ^= hash >> 33;
  return hash;
}

/// A composite key: the element type of the hash-join key sets, whose
/// values borrow (Value::Borrow) the text of the build side's rows and
/// literals, which outlive the set. Hashing and equality are consistent
/// with Value::OrderCompare.
struct IndexKey {
  std::vector<Value> values;

  bool operator==(const IndexKey& other) const {
    return values == other.values;
  }
};

/// Non-owning view of a composite key: an array of pointers to Values that
/// live elsewhere (the executor's stack, an expression result, a row). Index
/// probes and hash-join key-set probes take one, so no probe materializes a
/// std::vector<Value>.
struct IndexKeyView {
  const Value* const* values = nullptr;
  size_t size = 0;
};

struct IndexKeyHash {
  using is_transparent = void;

  size_t operator()(const IndexKey& k) const {
    uint64_t h = kFnvOffsetBasis;
    for (const Value& v : k.values) h = CombineKeyHash(h, v);
    return FinalizeKeyHash(h);
  }
  size_t operator()(const IndexKeyView& k) const {
    uint64_t h = kFnvOffsetBasis;
    for (size_t i = 0; i < k.size; ++i) h = CombineKeyHash(h, *k.values[i]);
    return FinalizeKeyHash(h);
  }
};

struct IndexKeyEqual {
  using is_transparent = void;

  bool operator()(const IndexKey& a, const IndexKey& b) const {
    return a == b;
  }
  bool operator()(const IndexKey& a, const IndexKeyView& b) const {
    if (a.values.size() != b.size) return false;
    for (size_t i = 0; i < b.size; ++i) {
      if (!(a.values[i] == *b.values[i])) return false;
    }
    return true;
  }
  bool operator()(const IndexKeyView& a, const IndexKey& b) const {
    return operator()(b, a);
  }
};

class Table;

/// The rows under one key of an Index, in ascending row-id order: a walk
/// down the index's duplicate chain. Valid until the index next changes.
class IndexRows {
 public:
  static constexpr uint32_t kEnd = UINT32_MAX;

  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = size_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const size_t*;
    using reference = size_t;

    Iterator() = default;
    size_t operator*() const { return row_; }
    Iterator& operator++() {
      row_ = next_[row_];
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const Iterator& other) const { return row_ == other.row_; }

   private:
    friend class IndexRows;
    Iterator(uint32_t row, const uint32_t* next) : row_(row), next_(next) {}
    uint32_t row_ = kEnd;
    const uint32_t* next_ = nullptr;
  };

  IndexRows() = default;
  IndexRows(uint32_t first, const uint32_t* next)
      : first_(first), next_(next) {}

  bool empty() const { return first_ == kEnd; }
  Iterator begin() const { return Iterator(first_, next_); }
  Iterator end() const { return Iterator(kEnd, next_); }

 private:
  uint32_t first_ = kEnd;
  const uint32_t* next_ = nullptr;
};

/// A secondary (or primary) hash index over one or more columns of its
/// table. An entry is a row id, not a copy of its key: an open-addressing
/// table (linear probing, power-of-two capacity, at most 3/4 full) holds
/// one 16-byte slot per distinct key — its finalized hash and the first and
/// last row id with that key — and a next-row array indexed by row id
/// chains the rows that share a key in ascending row-id order. Key equality
/// reads the key columns from the table's own rows (the slot's first row),
/// so the index copies no Value.
class Index {
 public:
  /// `table` owns the rows the index reads its keys from. Without one the
  /// index is a definition only (name, columns, uniqueness) and holds no
  /// rows, as the storage serde's encoder takes it.
  Index(std::string name, std::vector<size_t> column_ordinals, bool unique,
        const Table* table = nullptr)
      : table_(table),
        name_(std::move(name)),
        column_ordinals_(std::move(column_ordinals)),
        unique_(unique) {}

  const std::string& name() const { return name_; }
  const std::vector<size_t>& column_ordinals() const {
    return column_ordinals_;
  }
  bool unique() const { return unique_; }

  /// Adds row `row_id`, whose values are `row`: the table's row, or the
  /// one Table::Insert is about to append at that id. Row ids arrive in
  /// ascending order, as the table appends them. A key with a NULL column
  /// is not indexed. Fails on a unique violation.
  Status Insert(RowView row, size_t row_id);
  /// Removes row `row_id` (values `row`) from its key's chain.
  void Erase(RowView row, size_t row_id);

  /// The rows whose key equals `key` (empty if none). A key containing
  /// NULL never matches (SQL semantics: NULL = NULL is not true).
  IndexRows Lookup(const IndexKeyView& key) const;

  /// Occupancy and heap bytes of the hash table, for memory accounting and
  /// the tests that pin the hash's spread. `max_probe` is the longest
  /// distance, in slots, from a key's home slot to where it sits.
  struct Footprint {
    size_t keys = 0;
    size_t slots = 0;
    size_t max_probe = 0;
    size_t heap_bytes = 0;
  };
  Footprint footprint() const;

 private:
  struct Slot {
    uint64_t hash;
    uint32_t first;  // IndexRows::kEnd: the slot is empty
    uint32_t last;
  };

  template <typename KeyAt>
  uint64_t HashKey(KeyAt key_at) const;
  /// The slot holding the key `key_at` yields, or the empty slot that ends
  /// its probe sequence. `self` is a row id known to carry that key (the
  /// row being erased; `kEnd` if none), which may not be in the table yet.
  template <typename KeyAt>
  size_t FindSlot(uint64_t hash, KeyAt key_at, uint32_t self) const;
  void Grow();

  const Table* table_;
  std::string name_;
  std::vector<size_t> column_ordinals_;
  bool unique_;
  std::vector<Slot> slots_;  // empty, or a power of two
  size_t keys_ = 0;
  std::vector<uint32_t> next_;  // by row id; kEnd ends a chain
};

/// Observes physical mutations of a table. The disk-backed storage engine
/// registers itself here so every row insert/delete and index creation —
/// whether it came from SQL DML, programmatic InsertRow, or a shredder
/// writing through the table directly — lands in the write-ahead log.
/// Callbacks fire after the mutation succeeded, under the same external
/// serialization as the mutation itself.
class TableObserver {
 public:
  virtual ~TableObserver() = default;
  virtual void OnInsert(const Table& table, size_t row_id, RowView row) = 0;
  virtual void OnDelete(const Table& table, size_t row_id) = 0;
  virtual void OnCreateIndex(const Table& table, const Index& index) = 0;
};

/// The distinct long text (longer than Value::kInlineText) of one table's
/// rows, each stored once with its hash (Value::StoreText) in chunks that
/// never move. Append-only: an entry's bytes stay unchanged until the pool
/// dies with its table, so readers of shared Values into it take no lock of
/// their own. Only the table's single writer appends, under the same
/// serialization as every other mutation of the table (the server's
/// exclusive install lock).
class TextPool {
 public:
  TextPool() = default;
  TextPool(const TextPool&) = delete;
  TextPool& operator=(const TextPool&) = delete;

  /// `v` as a table cell: long text shares the pool's copy of its bytes,
  /// stored on first sight; any other value is copied as is.
  Value Intern(const Value& v);

  /// Distinct texts held.
  size_t size() const { return size_; }
  /// Heap bytes: the chunks and the lookup table.
  size_t heap_bytes() const {
    return chunk_bytes_ + slots_.capacity() * sizeof(Value);
  }

 private:
  void Grow();

  // Open addressing by the text's hash (linear probing, power-of-two
  // capacity, at most 3/4 full); a NULL slot is empty, every other one a
  // shared Value into a chunk.
  std::vector<Value> slots_;
  size_t size_ = 0;
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* free_ = nullptr;  // unused tail of the newest chunk
  size_t free_bytes_ = 0;
  size_t chunk_bytes_ = 0;
};

/// A table: schema, rows, and indexes.
class Table {
 public:
  explicit Table(TableSchema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }

  /// Validates and inserts a row, maintaining all indexes (including the
  /// implicit primary-key index, so duplicate PKs are rejected). The table
  /// keeps its own copy: long text is interned in its TextPool.
  Status Insert(RowView row);
  Status Insert(std::initializer_list<Value> row) {
    return Insert(RowView(row.begin(), row.size()));
  }

  /// Deletes the row with the given id (must be live).
  void Delete(size_t row_id);

  /// Number of live rows.
  size_t RowCount() const { return live_count_; }

  /// Total slots including tombstones (scan bound).
  size_t SlotCount() const { return live_.size(); }

  bool IsLive(size_t row_id) const { return live_[row_id]; }
  /// The values of slot `row_id`: valid until the table's next insert.
  /// Long text in them shares the table's TextPool; a copy of a Value
  /// stands alone (value.h).
  RowView RowAt(size_t row_id) const {
    return RowView(cells_.data() + row_id * columns_, columns_);
  }

  /// Heap bytes of the rows: the cell array and the interned text.
  struct Footprint {
    size_t cell_bytes = 0;
    size_t text_bytes = 0;
    size_t distinct_texts = 0;
  };
  Footprint footprint() const {
    return {cells_.capacity() * sizeof(Value), text_.heap_bytes(),
            text_.size()};
  }

  /// Creates a named index over the given columns. Existing rows are
  /// indexed immediately.
  Status CreateIndex(const std::string& index_name,
                     const std::vector<std::string>& column_names,
                     bool unique);

  /// Finds an index whose columns are exactly a permutation-free prefix
  /// match of `column_ordinals` (same set). Returns nullptr if none.
  const Index* FindIndexCovering(
      std::span<const size_t> column_ordinals) const;
  const Index* FindIndexCovering(
      const std::vector<size_t>& column_ordinals) const {
    return FindIndexCovering(std::span<const size_t>(column_ordinals));
  }

  const std::vector<std::unique_ptr<Index>>& indexes() const {
    return indexes_;
  }

  /// Monotonic modification counter, bumped on every Insert/Delete. The
  /// planner's cached hash-join key sets stamp the versions of the tables
  /// they read and rebuild when any of them move. Relaxed ordering suffices:
  /// writes happen under the server's exclusive install lock, reads under
  /// its shared lock, so the counter is a staleness tally, not a
  /// synchronization point.
  uint64_t version() const { return version_.load(std::memory_order_relaxed); }

  /// Registers a mutation observer (the storage engine, the statistics
  /// catalog). Observers fire in registration order. Not retroactive: the
  /// implicit PK index built by the constructor predates any observer,
  /// which is exactly right — it is part of the schema, not a logged
  /// mutation. Duplicate registration is a no-op.
  void AddObserver(TableObserver* observer);
  void RemoveObserver(TableObserver* observer);
  void ClearObservers() { observers_.clear(); }

  /// Re-creates one physical slot from a storage checkpoint: appends the
  /// row at the next id, dead slots as tombstones (placeholder rows,
  /// never validated or indexed). Bypasses the observer — a restore is not
  /// a new mutation. Used only by storage recovery; regular writers use
  /// Insert/Delete.
  Status RestoreSlot(RowView row, bool live);
  /// Sizes the row storage for `slots` slots in all, as a restore that
  /// knows its slot count does before its first RestoreSlot.
  void ReserveSlots(size_t slots) {
    cells_.reserve(slots * columns_);
    live_.reserve(slots);
  }

 private:
  /// Appends `row` as the cells of slot SlotCount(), interning its text.
  void AppendCells(RowView row);
  /// Indexes the row just appended at `row_id`; on failure removes it from
  /// the indexes that took it and drops its cells again.
  Status IndexAppended(size_t row_id);

  TableSchema schema_;
  size_t columns_;
  std::vector<Value> cells_;  // slot r: [r * columns_, (r + 1) * columns_)
  std::vector<bool> live_;
  TextPool text_;
  size_t live_count_ = 0;
  std::vector<std::unique_ptr<Index>> indexes_;
  std::atomic<uint64_t> version_{0};
  std::vector<TableObserver*> observers_;
};

/// A database's tables by catalog slot: its creation-order table array, in
/// which a dropped table leaves an empty slot. Bound plans name tables by
/// slot (TableRef::table, HashJoinExpr::dep_tables) and every execution
/// resolves them through the executing database's TableSlots, so one plan
/// serves every database with the planner's schema identity. A view: valid
/// until the next CREATE TABLE, which the callers' serialization keeps
/// apart from executions.
class TableSlots {
 public:
  TableSlots() = default;
  explicit TableSlots(std::span<const std::unique_ptr<Table>> tables)
      : tables_(tables) {}

  /// The table at a slot the binder resolved (never an empty one: a DROP
  /// changes the schema identity, so no plan naming the slot runs after).
  const Table& operator[](CatalogSlot slot) const { return *tables_[slot]; }

 private:
  std::span<const std::unique_ptr<Table>> tables_;
};

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_TABLE_H_
