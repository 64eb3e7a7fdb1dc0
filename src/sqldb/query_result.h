// The result of executing a SQL statement.

#ifndef P3PDB_SQLDB_QUERY_RESULT_H_
#define P3PDB_SQLDB_QUERY_RESULT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sqldb/schema.h"

namespace p3pdb::sqldb {

/// Result column headers. The hot execute path borrows the header list
/// precomputed on the bound statement (one shared_ptr copy per execution
/// instead of a heap vector of string copies); EXPLAIN, the aggregate path,
/// and statements bound outside BindAndPlan still build their own list
/// incrementally. Copy-on-write: the first mutation of a borrowed list
/// detaches it.
class ResultColumns {
 public:
  void push_back(std::string name) { Own().push_back(std::move(name)); }
  void Borrow(std::shared_ptr<const std::vector<std::string>> cols) {
    shared_ = std::move(cols);
    owned_.clear();
  }

  size_t size() const { return Get().size(); }
  bool empty() const { return Get().empty(); }
  const std::string& operator[](size_t i) const { return Get()[i]; }
  std::vector<std::string>::const_iterator begin() const {
    return Get().begin();
  }
  std::vector<std::string>::const_iterator end() const { return Get().end(); }

 private:
  const std::vector<std::string>& Get() const {
    return shared_ != nullptr ? *shared_ : owned_;
  }
  std::vector<std::string>& Own() {
    if (shared_ != nullptr) {
      owned_ = *shared_;
      shared_.reset();
    }
    return owned_;
  }

  std::shared_ptr<const std::vector<std::string>> shared_;
  std::vector<std::string> owned_;
};

/// Rows and column names for queries; rows_affected for DML/DDL.
struct QueryResult {
  ResultColumns columns;
  std::vector<Row> rows;
  int64_t rows_affected = 0;

  bool empty() const { return rows.empty(); }

  /// Renders an ASCII table (for examples and debugging).
  std::string ToString() const;
};

// The executor's counters, declared once. One line per counter:
// X(field, exported metric name or nullptr) followed by what it counts.
// ExecStats, AtomicExecStats and kExecStatsFields are generated from this
// list, and the server's metric collector exports every named counter, so
// adding a counter (exported or not) is a one-line edit here.
//
// Planner rewrite and cost-model decision counters tick at plan time (see
// planner.h, stats.h); plan_recosts ticks when the plan cache drops an
// entry whose stats epoch drifted; the scan and hash-join counters tick at
// execution time (executor.cc).
#define P3PDB_EXEC_STATS_FIELDS(X)                                                        \
  X(statements_executed, nullptr)                         /* statements run */            \
  X(rows_scanned, nullptr)                                /* live rows visited */         \
  X(index_lookups, nullptr)                               /* hash-index point lookups */  \
  X(full_scans, nullptr)                                  /* scans, no usable index */    \
  X(subquery_evals, nullptr)                              /* EXISTS subquery runs */      \
  X(comparisons, nullptr)                                 /* predicate comparisons */     \
  X(plans_built, "sqldb_plans_built_total")               /* SELECTs bound + planned */   \
  X(plan_cache_hits, "sqldb_plan_cache_hits_total")       /* parse/bind skipped */        \
  X(semi_join_rewrites, "sqldb_semi_join_rewrites_total") /* EXISTS -> semi-join */       \
  X(anti_join_rewrites, "sqldb_anti_join_rewrites_total") /* NOT EXISTS -> anti-join */   \
  X(hash_join_builds, "sqldb_hash_join_builds_total")     /* key-set builds */            \
  X(hash_join_build_rows, nullptr)                        /* rows enumerated by builds */ \
  X(hash_join_probes, "sqldb_hash_join_probes_total")     /* key-set probes */            \
  X(cost_exists_kept, "sqldb_cost_exists_kept_total")     /* rewrites vetoed by cost */   \
  X(cost_join_reorders, "sqldb_cost_join_reorders_total") /* AND chains reordered */      \
  X(cost_seq_forced, "sqldb_cost_seq_forced_total")       /* index -> seq scan */         \
  X(plan_recosts, "sqldb_plan_recosts_total")             /* plans dropped on drift */

/// Counters accumulated by the executor; reset via Database::ResetStats().
/// The ablation benchmarks report these to explain *why* one plan shape is
/// faster than another (index lookups vs. full scans). Each execution fills
/// a private ExecStats, which the Database merges into one of its
/// AtomicExecStats stripes, so concurrent read-only executions never race
/// on counters.
struct ExecStats {
#define P3PDB_EXEC_STATS_DECLARE(field, metric) uint64_t field = 0;
  P3PDB_EXEC_STATS_FIELDS(P3PDB_EXEC_STATS_DECLARE)
#undef P3PDB_EXEC_STATS_DECLARE

  void Accumulate(const ExecStats& s) {
#define P3PDB_EXEC_STATS_ADD(field, metric) field += s.field;
    P3PDB_EXEC_STATS_FIELDS(P3PDB_EXEC_STATS_ADD)
#undef P3PDB_EXEC_STATS_ADD
  }
};

/// One row of the counter table, for code that walks every counter
/// (metric export, tests).
struct ExecStatsField {
  const char* name;    // the ExecStats member name
  const char* metric;  // exported counter name; nullptr when not exported
  uint64_t ExecStats::*member;
};

inline constexpr ExecStatsField kExecStatsFields[] = {
#define P3PDB_EXEC_STATS_ROW(field, metric) {#field, metric, &ExecStats::field},
    P3PDB_EXEC_STATS_FIELDS(P3PDB_EXEC_STATS_ROW)
#undef P3PDB_EXEC_STATS_ROW
};

/// Stats aggregate safe under concurrent executions. Relaxed ordering
/// suffices: the counters are monotonic tallies, not synchronization
/// points.
struct AtomicExecStats {
#define P3PDB_EXEC_STATS_DECLARE(field, metric) std::atomic<uint64_t> field{0};
  P3PDB_EXEC_STATS_FIELDS(P3PDB_EXEC_STATS_DECLARE)
#undef P3PDB_EXEC_STATS_DECLARE

  void Merge(const ExecStats& s) {
    // Skip zero counters: a typical statement touches a handful of the
    // fields, and an uncontended atomic RMW still costs a locked cycle the
    // per-match path pays per execution. A load+branch is ~free.
#define P3PDB_EXEC_STATS_MERGE(field, metric) \
  if (s.field != 0) field.fetch_add(s.field, std::memory_order_relaxed);
    P3PDB_EXEC_STATS_FIELDS(P3PDB_EXEC_STATS_MERGE)
#undef P3PDB_EXEC_STATS_MERGE
  }

  ExecStats Snapshot() const {
    ExecStats s;
#define P3PDB_EXEC_STATS_LOAD(field, metric) \
  s.field = field.load(std::memory_order_relaxed);
    P3PDB_EXEC_STATS_FIELDS(P3PDB_EXEC_STATS_LOAD)
#undef P3PDB_EXEC_STATS_LOAD
    return s;
  }

  void Reset() {
#define P3PDB_EXEC_STATS_ZERO(field, metric) \
  field.store(0, std::memory_order_relaxed);
    P3PDB_EXEC_STATS_FIELDS(P3PDB_EXEC_STATS_ZERO)
#undef P3PDB_EXEC_STATS_ZERO
  }
};

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_QUERY_RESULT_H_
