// Statement-level telemetry: per-fingerprint execution aggregates, in the
// spirit of pg_stat_statements.
//
// Every SELECT the database prepares is normalized (string and integer
// literals collapse to `?`, exactly like bind-parameter placeholders, and
// whitespace/keyword case is canonicalized) and fingerprinted with FNV-1a
// over the normalized text. Statements that differ only in their literal
// values — the translated rule queries re-submitted per match with a
// different policy id — therefore share one StatementStatsEntry, which
// accumulates calls, rows, plan-cache hits, planner rewrites, and a
// latency distribution.
//
// Concurrency: the registry mutex is taken only at prepare time (Intern)
// and snapshot time; the per-execution tallies on an entry are relaxed
// fetch_adds, like the MetricsRegistry instruments and the Database's
// stats stripes, so the hot loop never blocks.

#ifndef P3PDB_SQLDB_STATEMENT_STATS_H_
#define P3PDB_SQLDB_STATEMENT_STATS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace p3pdb::sqldb {

/// Collapses literals to `?` and canonicalizes spacing and keyword case so
/// that textually different statements with the same shape normalize to the
/// same text. `SELECT x FROM t WHERE id = 3` and `select x from t where
/// id=?` produce identical output. Falls back to a whitespace-collapsed
/// copy of the input when the text does not tokenize.
std::string NormalizeStatementText(std::string_view sql);

/// FNV-1a 64-bit over the normalized text: the statement's fingerprint.
uint64_t FingerprintStatementText(std::string_view normalized);

/// One statement shape's live aggregates. All tallies are relaxed atomics;
/// Record() is safe from any number of concurrent executions.
class StatementStatsEntry {
 public:
  StatementStatsEntry(uint64_t fingerprint, std::string normalized_sql)
      : fingerprint_(fingerprint), normalized_sql_(std::move(normalized_sql)) {}

  /// Tallies one finished execution. `rows` is the result row count (0 on
  /// error) and `elapsed_us` the wall time of the execute step.
  void RecordExecution(uint64_t rows, double elapsed_us, bool ok);

  /// Tallies a plan-cache hit for this shape (parse/bind/plan skipped).
  void RecordPlanCacheHit() {
    plan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Tallies the planner's rewrite decisions, once per plan build.
  void RecordPlanned(uint64_t semi_rewrites, uint64_t anti_rewrites) {
    plans_built_.fetch_add(1, std::memory_order_relaxed);
    semi_join_rewrites_.fetch_add(semi_rewrites, std::memory_order_relaxed);
    anti_join_rewrites_.fetch_add(anti_rewrites, std::memory_order_relaxed);
  }

  uint64_t fingerprint() const { return fingerprint_; }
  const std::string& normalized_sql() const { return normalized_sql_; }
  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  friend class StatementStatsRegistry;

  const uint64_t fingerprint_;
  const std::string normalized_sql_;

  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> rows_returned_{0};
  std::atomic<uint64_t> plans_built_{0};
  std::atomic<uint64_t> plan_cache_hits_{0};
  std::atomic<uint64_t> semi_join_rewrites_{0};
  std::atomic<uint64_t> anti_join_rewrites_{0};
  // Latency: total in integer microseconds plus a log-bucketed histogram
  // for percentiles; min/max maintained with relaxed CAS loops.
  std::atomic<uint64_t> total_us_{0};
  std::atomic<uint64_t> min_us_{UINT64_MAX};
  std::atomic<uint64_t> max_us_{0};
  obs::Histogram latency_us_;
};

/// Frozen copy of one entry, for reports and tests.
struct StatementStatsSnapshot {
  uint64_t fingerprint = 0;
  std::string normalized_sql;
  uint64_t calls = 0;
  uint64_t errors = 0;
  uint64_t rows_returned = 0;
  uint64_t plans_built = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t semi_join_rewrites = 0;
  uint64_t anti_join_rewrites = 0;
  uint64_t total_us = 0;
  uint64_t min_us = 0;
  uint64_t max_us = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Owns the per-fingerprint entries. Intern() is called at prepare time
/// (never per execution: the entry pointer rides on the bound statement),
/// so the registry mutex is off the hot path.
class StatementStatsRegistry {
 public:
  StatementStatsRegistry() = default;
  StatementStatsRegistry(const StatementStatsRegistry&) = delete;
  StatementStatsRegistry& operator=(const StatementStatsRegistry&) = delete;

  /// Normalizes and fingerprints `sql`, returning the (possibly new) entry
  /// for its shape. The pointer is stable for the registry's lifetime.
  StatementStatsEntry* Intern(std::string_view sql);

  /// Snapshots every entry, ordered by total time descending (the
  /// `/statements?top=N` order). `top` = 0 means all entries.
  std::vector<StatementStatsSnapshot> Snapshot(size_t top = 0) const;

  /// JSON array of the top-N snapshots (ordered by total time).
  std::string RenderJson(size_t top) const;

  /// Fixed-width text table of the top-N snapshots — the human rendering
  /// shipped next to differential_failure.txt in CI artifacts.
  std::string RenderText(size_t top) const;

  size_t size() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::unique_ptr<StatementStatsEntry>> entries_;
};

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_STATEMENT_STATS_H_
