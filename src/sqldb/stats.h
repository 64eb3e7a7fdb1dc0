// Table and column statistics for the cost-based planner.
//
// The paper measured its translated rule queries against DB2, whose
// optimizer picks plans from catalog statistics; our PR-4 planner is purely
// syntactic, so build-side choice and access paths are fixed regardless of
// data shape. This catalog closes that gap: per-table row counts and
// per-column NDV (a HyperLogLog sketch), min/max, and null counts,
// maintained incrementally through the TableObserver hook so every DML path
// (SQL INSERT/UPDATE/DELETE, programmatic InsertRow, shredder writes) is
// covered by construction, in-memory and disk-backed alike.
//
// Maintenance strategy per mutation kind:
//   - Insert: exact row/null counts, exact min/max widening, one HLL
//     register update per column. O(columns), no allocation.
//   - Delete: exact row/null counts (the tombstoned row's data is still
//     readable when OnDelete fires). Min/max are only *invalidated* when
//     the deleted value equals the tracked extremum (a sketch cannot
//     un-see a value), and the NDV sketch accrues `deletes_since_rebuild`;
//     once deletes pass a threshold the column is marked stale and the
//     next reader rebuilds it from the live rows.
//   - Recovery: storage replay restores rows via RestoreSlot, which
//     bypasses observers; Database::OpenStorage calls AnalyzeAll once
//     afterwards. The HLL registers are max-based (order- and
//     duplicate-insensitive), so a rebuild from live rows lands on the
//     same sketch state an incremental history would have — which is what
//     makes "stats identical after reopen" testable, and why the sketch is
//     rebuilt rather than serialized into the checkpoint format.
//
// Thread-safety: mutations run under the server's exclusive install lock;
// reads (planning, snapshots) run under its shared lock and may be
// concurrent with each other. Each table's stats carry their own mutex so
// a lazy rebuild triggered by one reader is invisible to the rest. That
// mutex (TableEntry::mu) also guards the sketches' memoized estimates:
// HllSketch::Estimate() caches its result, only Insert and Reset
// invalidate the cache, and every catalog call into a sketch holds the
// owning entry's mutex.

#ifndef P3PDB_SQLDB_STATS_H_
#define P3PDB_SQLDB_STATS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sqldb/table.h"
#include "sqldb/value.h"

namespace p3pdb::sqldb {

/// HyperLogLog distinct-count sketch. p=9 (512 registers) keeps the
/// standard error around 1.04/sqrt(512) = 4.6% while costing 512 bytes per
/// column. Values are hashed through Value::Hash() and finalized with a
/// SplitMix64 mix — the raw integer hash is close to identity, which would
/// starve the leading-zero estimator.
///
/// Estimate() is memoized: the planner reads a column's NDV many times per
/// cold plan, and a fresh estimate walks all 512 registers. Only Insert
/// (when a register rises) and Reset invalidate the memo, so it always
/// equals a fresh recompute bit for bit. Callers serialize on the owning
/// StatsCatalog::TableEntry::mu, as every catalog caller does.
class HllSketch {
 public:
  static constexpr int kPrecision = 9;
  static constexpr size_t kRegisters = size_t{1} << kPrecision;

  void Insert(const Value& v);
  /// Cardinality estimate with linear-counting correction for the small
  /// range (the classic HLL bias region).
  double Estimate();
  void Reset() {
    registers_.assign(kRegisters, 0);
    estimate_.reset();
  }
  bool operator==(const HllSketch& other) const {
    return registers_ == other.registers_;
  }

 private:
  double ComputeEstimate() const;

  std::vector<uint8_t> registers_ = std::vector<uint8_t>(kRegisters, 0);
  /// Estimate of the current registers; empty once a register changed.
  std::optional<double> estimate_;
};

/// Point-in-time view of one column's statistics (tests, admin endpoint).
struct ColumnStatsSnapshot {
  double ndv = 0.0;           // HLL estimate over non-null values
  uint64_t null_count = 0;    // exact
  std::optional<Value> min;   // exact; nullopt when no non-null values
  std::optional<Value> max;
};

struct TableStatsSnapshot {
  uint64_t row_count = 0;
  std::vector<ColumnStatsSnapshot> columns;
};

/// Monotonic maintenance tallies, delta-synced into server metrics.
struct StatsCounters {
  uint64_t updates = 0;      // incremental insert/delete observations
  uint64_t rebuilds = 0;     // full per-table recomputes (lazy or Analyze)
  uint64_t epoch_bumps = 0;  // row-count drift crossings (plan re-cost)
};

/// The statistics catalog: one entry per registered table, maintained
/// through TableObserver callbacks. Also the keeper of the *stats epoch*:
/// a counter bumped whenever any table's live row count drifts past 2x (or
/// below 0.5x) of the count it had when its plans were last costed. Cached
/// plans stamp the epoch they were costed under; a mismatch tells the plan
/// cache the cardinality landscape moved enough that the cost choices may
/// no longer hold, so the entry is dropped and re-costed. The databases
/// sharing one PlanCache point their catalogs at the cache's epoch
/// (ShareEpoch), so a drift on any of them re-costs the shared plans.
class StatsCatalog : public TableObserver {
 public:
  StatsCatalog() = default;
  StatsCatalog(const StatsCatalog&) = delete;
  StatsCatalog& operator=(const StatsCatalog&) = delete;

  // TableObserver. Fires after the mutation succeeded; OnDelete can still
  // read the tombstoned row's data.
  void OnInsert(const Table& table, size_t row_id, RowView row) override;
  void OnDelete(const Table& table, size_t row_id) override;
  void OnCreateIndex(const Table& /*table*/, const Index& /*index*/) override {
  }

  /// Starts tracking `table`, analyzing its current contents (usually
  /// empty at CreateTable time; full after recovery).
  void Register(const Table* table);
  /// Stops tracking (DROP TABLE). Safe on unregistered tables.
  void Forget(const Table* table);
  /// Recomputes every registered table from its live rows (post-recovery:
  /// replay bypassed the observers).
  void AnalyzeAll();
  /// Forces a full recompute of one table (tests; also the lazy-rebuild
  /// entry point).
  void Analyze(const Table* table);

  /// Estimated live rows; falls back to the table's own count when the
  /// table is untracked.
  double EstimatedRows(const Table* table) const;
  /// Estimated distinct non-null values in a column; 0 when unknown.
  double EstimatedNdv(const Table* table, size_t column_ordinal) const;
  /// Fraction of rows where the column is NULL, in [0, 1].
  double NullFraction(const Table* table, size_t column_ordinal) const;

  /// Exact (min, max) over the column's non-null values, rescanning lazily
  /// when a deleted extremum left them stale. nullopt when the table is
  /// untracked or the column has no non-null values. The planner's range
  /// selectivity interpolates literals against this span.
  std::optional<std::pair<Value, Value>> MinMax(const Table* table,
                                                size_t column_ordinal) const;

  /// Full snapshot for tests and the admin endpoint; nullopt if untracked.
  std::optional<TableStatsSnapshot> Snapshot(const Table* table) const;

  uint64_t epoch() const { return epoch_->load(std::memory_order_relaxed); }
  /// Bumps (and reads) `*epoch` instead of the catalog's own counter from
  /// now on; `*epoch` must outlive the catalog.
  void ShareEpoch(std::atomic<uint64_t>* epoch) { epoch_ = epoch; }
  StatsCounters counters() const;

 private:
  struct ColumnEntry {
    HllSketch sketch;
    uint64_t null_count = 0;
    std::optional<Value> min;
    std::optional<Value> max;
    bool minmax_stale = false;  // extremum deleted; rescan before reading
  };

  struct TableEntry {
    mutable std::mutex mu;
    uint64_t row_count = 0;
    uint64_t deletes_since_rebuild = 0;
    bool ndv_stale = false;  // delete churn passed threshold
    /// Live row count when the epoch last moved on this table's account —
    /// the anchor the 2x/0.5x drift test compares against.
    uint64_t epoch_anchor_rows = 0;
    std::vector<ColumnEntry> columns;
  };

  TableEntry* Find(const Table* table) const;
  /// Recomputes `entry` from `table`'s live rows. Caller holds entry->mu.
  /// Const: lazy rebuilds fire from read paths (planning, snapshots).
  void RebuildLocked(const Table& table, TableEntry* entry) const;
  void RebuildIfStaleLocked(const Table& table, TableEntry* entry) const;
  /// Bumps the global epoch when `entry`'s row count drifted past the
  /// 2x/0.5x boundary of its anchor. Caller holds entry->mu.
  void MaybeBumpEpochLocked(TableEntry* entry);

  mutable std::mutex mu_;  // guards the map only; entries have their own
  std::unordered_map<const Table*, std::unique_ptr<TableEntry>> entries_;
  std::atomic<uint64_t> own_epoch_{0};
  std::atomic<uint64_t>* epoch_ = &own_epoch_;
  mutable std::atomic<uint64_t> updates_{0};
  mutable std::atomic<uint64_t> rebuilds_{0};
  std::atomic<uint64_t> epoch_bumps_{0};
};

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_STATS_H_
