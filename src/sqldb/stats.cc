#include "sqldb/stats.h"

#include <algorithm>
#include <cmath>

namespace p3pdb::sqldb {
namespace {

/// SplitMix64 finalizer over the container hash. Value::Hash() for integers
/// is near-identity, which would leave the HLL's leading-zero counter
/// starved; this mix spreads every input across the full 64 bits.
uint64_t MixHash(const Value& v) {
  uint64_t z = static_cast<uint64_t>(v.Hash()) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Delete churn past this bound marks the NDV sketch stale (a sketch cannot
/// un-see values, so enough deletes force a rebuild from live rows).
uint64_t StaleDeleteThreshold(uint64_t live_rows) {
  return std::max<uint64_t>(16, live_rows / 4);
}

}  // namespace

void HllSketch::Insert(const Value& v) {
  const uint64_t h = MixHash(v);
  const size_t bucket = h >> (64 - kPrecision);
  // Rank of the first set bit in the remaining 64-p bits, 1-based; an
  // all-zero remainder gets the maximum rank.
  const uint64_t rest = h << kPrecision;
  const uint8_t rank =
      rest == 0 ? static_cast<uint8_t>(64 - kPrecision + 1)
                : static_cast<uint8_t>(__builtin_clzll(rest) + 1);
  if (rank > registers_[bucket]) {
    registers_[bucket] = rank;
    estimate_.reset();
  }
}

double HllSketch::Estimate() {
  if (!estimate_.has_value()) estimate_ = ComputeEstimate();
  return *estimate_;
}

double HllSketch::ComputeEstimate() const {
  const double m = static_cast<double>(kRegisters);
  double sum = 0.0;
  size_t zeros = 0;
  for (uint8_t r : registers_) {
    sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  // alpha_m for m >= 128.
  const double alpha = 0.7213 / (1.0 + 1.079 / m);
  double estimate = alpha * m * m / sum;
  if (estimate <= 2.5 * m && zeros != 0) {
    // Linear counting: far more accurate in the small-cardinality regime.
    estimate = m * std::log(m / static_cast<double>(zeros));
  }
  return estimate;
}

void StatsCatalog::OnInsert(const Table& table, size_t row_id,
                            RowView row) {
  TableEntry* entry = Find(&table);
  if (entry == nullptr) return;
  std::lock_guard<std::mutex> lock(entry->mu);
  ++entry->row_count;
  for (size_t c = 0; c < entry->columns.size() && c < row.size(); ++c) {
    ColumnEntry& col = entry->columns[c];
    const Value& v = row[c];
    if (v.is_null()) {
      ++col.null_count;
      continue;
    }
    col.sketch.Insert(v);
    if (!col.min.has_value() || Value::OrderCompare(v, *col.min) < 0) {
      col.min = v;
    }
    if (!col.max.has_value() || Value::OrderCompare(v, *col.max) > 0) {
      col.max = v;
    }
  }
  updates_.fetch_add(1, std::memory_order_relaxed);
  MaybeBumpEpochLocked(entry);
}

void StatsCatalog::OnDelete(const Table& table, size_t row_id) {
  TableEntry* entry = Find(&table);
  if (entry == nullptr) return;
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->row_count > 0) --entry->row_count;
  ++entry->deletes_since_rebuild;
  // The observer fires after the slot is tombstoned but before the row data
  // is reclaimed (it never is; slots are append-only), so the deleted
  // values are still readable here.
  const RowView row = table.RowAt(row_id);
  for (size_t c = 0; c < entry->columns.size() && c < row.size(); ++c) {
    ColumnEntry& col = entry->columns[c];
    const Value& v = row[c];
    if (v.is_null()) {
      if (col.null_count > 0) --col.null_count;
      continue;
    }
    // Min/max can only shrink inward on delete; invalidate when the
    // tracked extremum just left.
    if (col.min.has_value() && Value::OrderCompare(v, *col.min) == 0) {
      col.minmax_stale = true;
    }
    if (col.max.has_value() && Value::OrderCompare(v, *col.max) == 0) {
      col.minmax_stale = true;
    }
  }
  if (entry->deletes_since_rebuild > StaleDeleteThreshold(entry->row_count)) {
    entry->ndv_stale = true;
  }
  updates_.fetch_add(1, std::memory_order_relaxed);
  MaybeBumpEpochLocked(entry);
}

void StatsCatalog::Register(const Table* table) {
  auto entry = std::make_unique<TableEntry>();
  entry->columns.resize(table->schema().ColumnCount());
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    RebuildLocked(*table, entry.get());
    entry->epoch_anchor_rows = entry->row_count;
  }
  std::lock_guard<std::mutex> lock(mu_);
  entries_[table] = std::move(entry);
}

void StatsCatalog::Forget(const Table* table) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(table);
}

void StatsCatalog::AnalyzeAll() {
  std::vector<const Table*> tables;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tables.reserve(entries_.size());
    for (const auto& [table, entry] : entries_) tables.push_back(table);
  }
  for (const Table* table : tables) Analyze(table);
}

void StatsCatalog::Analyze(const Table* table) {
  TableEntry* entry = Find(table);
  if (entry == nullptr) return;
  std::lock_guard<std::mutex> lock(entry->mu);
  RebuildLocked(*table, entry);
  entry->epoch_anchor_rows = entry->row_count;
}

double StatsCatalog::EstimatedRows(const Table* table) const {
  TableEntry* entry = Find(table);
  if (entry == nullptr) return static_cast<double>(table->RowCount());
  std::lock_guard<std::mutex> lock(entry->mu);
  return static_cast<double>(entry->row_count);
}

double StatsCatalog::EstimatedNdv(const Table* table,
                                  size_t column_ordinal) const {
  TableEntry* entry = Find(table);
  if (entry == nullptr) return 0.0;
  std::lock_guard<std::mutex> lock(entry->mu);
  if (column_ordinal >= entry->columns.size()) return 0.0;
  RebuildIfStaleLocked(*table, entry);
  return entry->columns[column_ordinal].sketch.Estimate();
}

double StatsCatalog::NullFraction(const Table* table,
                                  size_t column_ordinal) const {
  TableEntry* entry = Find(table);
  if (entry == nullptr) return 0.0;
  std::lock_guard<std::mutex> lock(entry->mu);
  if (column_ordinal >= entry->columns.size() || entry->row_count == 0) {
    return 0.0;
  }
  const double f = static_cast<double>(
                       entry->columns[column_ordinal].null_count) /
                   static_cast<double>(entry->row_count);
  return std::clamp(f, 0.0, 1.0);
}

std::optional<std::pair<Value, Value>> StatsCatalog::MinMax(
    const Table* table, size_t column_ordinal) const {
  TableEntry* entry = Find(table);
  if (entry == nullptr) return std::nullopt;
  std::lock_guard<std::mutex> lock(entry->mu);
  if (column_ordinal >= entry->columns.size()) return std::nullopt;
  if (entry->columns[column_ordinal].minmax_stale) {
    RebuildLocked(*table, entry);
  }
  const ColumnEntry& col = entry->columns[column_ordinal];
  if (!col.min.has_value() || !col.max.has_value()) return std::nullopt;
  return std::make_pair(*col.min, *col.max);
}

std::optional<TableStatsSnapshot> StatsCatalog::Snapshot(
    const Table* table) const {
  TableEntry* entry = Find(table);
  if (entry == nullptr) return std::nullopt;
  std::lock_guard<std::mutex> lock(entry->mu);
  RebuildIfStaleLocked(*table, entry);
  // Min/max staleness is per-column lazy: resolve it here by rescanning
  // only when an extremum was deleted since the last rebuild.
  bool any_minmax_stale = false;
  for (const ColumnEntry& col : entry->columns) {
    if (col.minmax_stale) any_minmax_stale = true;
  }
  if (any_minmax_stale) RebuildLocked(*table, entry);
  TableStatsSnapshot snap;
  snap.row_count = entry->row_count;
  snap.columns.reserve(entry->columns.size());
  for (ColumnEntry& col : entry->columns) {
    ColumnStatsSnapshot cs;
    cs.ndv = col.sketch.Estimate();
    cs.null_count = col.null_count;
    cs.min = col.min;
    cs.max = col.max;
    snap.columns.push_back(std::move(cs));
  }
  return snap;
}

StatsCounters StatsCatalog::counters() const {
  StatsCounters c;
  c.updates = updates_.load(std::memory_order_relaxed);
  c.rebuilds = rebuilds_.load(std::memory_order_relaxed);
  c.epoch_bumps = epoch_bumps_.load(std::memory_order_relaxed);
  return c;
}

StatsCatalog::TableEntry* StatsCatalog::Find(const Table* table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(table);
  return it == entries_.end() ? nullptr : it->second.get();
}

void StatsCatalog::RebuildLocked(const Table& table,
                                 TableEntry* entry) const {
  entry->row_count = table.RowCount();
  entry->deletes_since_rebuild = 0;
  entry->ndv_stale = false;
  for (ColumnEntry& col : entry->columns) {
    col.sketch.Reset();
    col.null_count = 0;
    col.min.reset();
    col.max.reset();
    col.minmax_stale = false;
  }
  for (size_t row_id = 0; row_id < table.SlotCount(); ++row_id) {
    if (!table.IsLive(row_id)) continue;
    const RowView row = table.RowAt(row_id);
    for (size_t c = 0; c < entry->columns.size() && c < row.size(); ++c) {
      ColumnEntry& col = entry->columns[c];
      const Value& v = row[c];
      if (v.is_null()) {
        ++col.null_count;
        continue;
      }
      col.sketch.Insert(v);
      if (!col.min.has_value() || Value::OrderCompare(v, *col.min) < 0) {
        col.min = v;
      }
      if (!col.max.has_value() || Value::OrderCompare(v, *col.max) > 0) {
        col.max = v;
      }
    }
  }
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
}

void StatsCatalog::RebuildIfStaleLocked(const Table& table,
                                        TableEntry* entry) const {
  if (entry->ndv_stale) RebuildLocked(table, entry);
}

void StatsCatalog::MaybeBumpEpochLocked(TableEntry* entry) {
  // Drift test: the live row count moved past 2x (or under 0.5x) of the
  // anchor stamped at the last bump. Small tables are exempt below 16 rows
  // so a cold-start trickle of inserts does not thrash the plan cache.
  const uint64_t anchor = entry->epoch_anchor_rows;
  const uint64_t now = entry->row_count;
  const bool grew = now >= 16 && now > anchor * 2;
  const bool shrank = anchor >= 16 && now * 2 < anchor;
  if (!grew && !shrank) return;
  entry->epoch_anchor_rows = now;
  epoch_->fetch_add(1, std::memory_order_relaxed);
  epoch_bumps_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace p3pdb::sqldb
