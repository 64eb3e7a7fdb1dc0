// In-memory row-store table with hash indexes.
//
// Rows live in an append-only vector; deletion marks a tombstone so row ids
// stay stable for the indexes. Hash indexes map a composite key (one or more
// column values) to row ids; the primary key is backed by an automatically
// created unique index, which is what makes the shredded policy-id joins in
// the generated APPEL queries fast.

#ifndef P3PDB_SQLDB_TABLE_H_
#define P3PDB_SQLDB_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "sqldb/schema.h"
#include "sqldb/value.h"

namespace p3pdb::sqldb {

/// Composite key wrapper with hashing/equality consistent with
/// Value::OrderCompare.
struct IndexKey {
  std::vector<Value> values;

  bool operator==(const IndexKey& other) const {
    if (values.size() != other.values.size()) return false;
    for (size_t i = 0; i < values.size(); ++i) {
      if (Value::OrderCompare(values[i], other.values[i]) != 0) return false;
    }
    return true;
  }
};

/// Non-owning view of a composite key: an array of pointers to Values that
/// live elsewhere (the executor's stack, an expression result). Lets the
/// executor probe indexes and hash-join key sets without materializing a
/// std::vector<Value> per probe. Hash/equality are kept consistent with
/// IndexKey via the transparent functors below.
struct IndexKeyView {
  const Value* const* values = nullptr;
  size_t size = 0;
};

struct IndexKeyHash {
  using is_transparent = void;

  size_t operator()(const IndexKey& k) const {
    size_t h = 0x811C9DC5;
    for (const Value& v : k.values) {
      h = (h ^ v.Hash()) * 0x01000193;
    }
    return h;
  }
  size_t operator()(const IndexKeyView& k) const {
    size_t h = 0x811C9DC5;
    for (size_t i = 0; i < k.size; ++i) {
      h = (h ^ k.values[i]->Hash()) * 0x01000193;
    }
    return h;
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
      if (Value::OrderCompare(a.values[i], *b.values[i]) != 0) return false;
    }
    return true;
  }
  bool operator()(const IndexKeyView& a, const IndexKey& b) const {
    return operator()(b, a);
  }
  bool operator()(const IndexKeyView& a, const IndexKeyView& b) const {
    if (a.size != b.size) return false;
    for (size_t i = 0; i < a.size; ++i) {
      if (Value::OrderCompare(*a.values[i], *b.values[i]) != 0) return false;
    }
    return true;
  }
};

/// A secondary (or primary) hash index over one or more columns.
class Index {
 public:
  Index(std::string name, std::vector<size_t> column_ordinals, bool unique)
      : name_(std::move(name)),
        column_ordinals_(std::move(column_ordinals)),
        unique_(unique) {}

  const std::string& name() const { return name_; }
  const std::vector<size_t>& column_ordinals() const {
    return column_ordinals_;
  }
  bool unique() const { return unique_; }

  /// Adds a row id for the key extracted from `row`. Fails on unique
  /// violation.
  Status Insert(const Row& row, size_t row_id);
  void Erase(const Row& row, size_t row_id);

  /// Row ids matching the key (empty if none). Keys containing NULL never
  /// match (SQL semantics: NULL = NULL is not true).
  const std::vector<size_t>* Lookup(const IndexKey& key) const;

  /// Same, but from a non-owning key view — no per-probe allocation.
  const std::vector<size_t>* Lookup(const IndexKeyView& key) const;

  IndexKey ExtractKey(const Row& row) const;

 private:
  std::string name_;
  std::vector<size_t> column_ordinals_;
  bool unique_;
  std::unordered_map<IndexKey, std::vector<size_t>, IndexKeyHash,
                     IndexKeyEqual>
      map_;
};

class Table;

/// Observes physical mutations of a table. The disk-backed storage engine
/// registers itself here so every row insert/delete and index creation —
/// whether it came from SQL DML, programmatic InsertRow, or a shredder
/// writing through the table directly — lands in the write-ahead log.
/// Callbacks fire after the mutation succeeded, under the same external
/// serialization as the mutation itself.
class TableObserver {
 public:
  virtual ~TableObserver() = default;
  virtual void OnInsert(const Table& table, size_t row_id, const Row& row) = 0;
  virtual void OnDelete(const Table& table, size_t row_id) = 0;
  virtual void OnCreateIndex(const Table& table, const Index& index) = 0;
};

/// A table: schema, rows, and indexes.
class Table {
 public:
  explicit Table(TableSchema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }

  /// Validates and inserts a row, maintaining all indexes (including the
  /// implicit primary-key index, so duplicate PKs are rejected).
  Status Insert(Row row);

  /// Deletes the row with the given id (must be live).
  void Delete(size_t row_id);

  /// Number of live rows.
  size_t RowCount() const { return live_count_; }

  /// Total slots including tombstones (scan bound).
  size_t SlotCount() const { return rows_.size(); }

  bool IsLive(size_t row_id) const { return live_[row_id]; }
  const Row& RowAt(size_t row_id) const { return rows_[row_id]; }

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
  Status RestoreSlot(Row row, bool live);

 private:
  TableSchema schema_;
  std::vector<Row> rows_;
  std::vector<bool> live_;
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
