// Query executor.
//
// Evaluation is tuple-at-a-time over nested loops. Each table in a FROM
// list is positioned through the access path the planner annotated on the
// statement (AnnotateSelect, planner.h): a hash-index point lookup when the
// WHERE clause equates indexed columns of that table with values already
// available (outer-scope tables of a correlated subquery, or earlier tables
// in the same FROM list), otherwise a scan. Correlated EXISTS subqueries are
// re-evaluated per outer row with early-out on the first matching row — the
// execution shape DB2 would pick for the highly selective key joins of the
// generated APPEL queries. The executor decides nothing the binder or
// planner recorded: access paths, aggregate mode, result headers and ORDER
// BY targets are all read from the bound statement.

#ifndef P3PDB_SQLDB_EXECUTOR_H_
#define P3PDB_SQLDB_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "sqldb/ast.h"
#include "sqldb/query_result.h"
#include "sqldb/table.h"

namespace p3pdb::sqldb {

class StatementStatsEntry;

/// Runtime state of one planner-produced hash join (see planner.h) on one
/// database: the build-side key set, cached across executions of the plan
/// on that database and across the concurrent executors sharing it.
/// `built_at_version` is the sum of that database's dep-table modification
/// counters at build time; any mismatch means a table changed and the set is
/// rebuilt. Probers copy the shared_ptr under the mutex and then probe
/// lock-free, so a rebuild never invalidates a set another thread is still
/// reading.
struct HashJoinRuntime {
  // Transparent hash/equality so probes can use IndexKeyView without
  // materializing an IndexKey per probe (heterogeneous lookup).
  using KeySet = std::unordered_set<IndexKey, IndexKeyHash, IndexKeyEqual>;

  std::mutex mu;
  std::shared_ptr<const KeySet> keys;  // null until first build
  uint64_t built_at_version = 0;
};

/// One database's runtime state for one bound plan: a HashJoinRuntime per
/// hash join of the plan (indexed by HashJoinExpr::ordinal) and the
/// statement-stats entry its executions tally into (null = untracked). The
/// plan itself is immutable and may be shared by every database of a
/// PlanCache; each of them executes it against its own block (see
/// SharedPlan, plan_cache.h). The join states trail the block in the same
/// allocation: the planning database's block is placed in the plan's arena
/// (StatementArena::NewFinalizedWithTail), another member's on the heap
/// (New/Delete).
class PlanRuntime {
 public:
  /// Bytes a block for a plan with `hash_joins` joins occupies.
  static size_t Bytes(size_t hash_joins) {
    return sizeof(PlanRuntime) + hash_joins * sizeof(HashJoinRuntime);
  }
  /// Constructs the block in storage of Bytes(hash_joins) bytes.
  PlanRuntime(size_t hash_joins, StatementStatsEntry* stats_entry);
  ~PlanRuntime();
  PlanRuntime(const PlanRuntime&) = delete;
  PlanRuntime& operator=(const PlanRuntime&) = delete;

  /// A heap block, released with Delete.
  static PlanRuntime* New(size_t hash_joins, StatementStatsEntry* stats_entry);
  static void Delete(PlanRuntime* runtime);

  HashJoinRuntime& join(size_t ordinal) { return joins()[ordinal]; }
  StatementStatsEntry* stats_entry() const { return stats_entry_; }

 private:
  HashJoinRuntime* joins() {
    return reinterpret_cast<HashJoinRuntime*>(this + 1);
  }

  size_t hash_joins_;
  StatementStatsEntry* stats_entry_;
};
static_assert(sizeof(PlanRuntime) % alignof(HashJoinRuntime) == 0);

/// Runtime counters for one plan node, accumulated across loops (EXPLAIN
/// ANALYZE). `elapsed_us` is inclusive of child nodes, Postgres-style.
struct PlanNodeStats {
  uint64_t loops = 0;   // times the node was (re)started
  uint64_t rows = 0;    // rows the node produced, summed over loops
  double elapsed_us = 0.0;
};

/// Side table of actual runtime stats keyed by plan-node identity: a
/// SelectStmt* for select nodes (top-level or EXISTS subquery), a
/// (SelectStmt*, FROM slot) pair for scan nodes. The AST nodes themselves
/// stay immutable during execution, so one bound statement can be profiled
/// without perturbing concurrent readers of the tree.
class PlanProfile {
 public:
  PlanNodeStats* Select(const SelectStmt* stmt) { return &selects_[stmt]; }
  PlanNodeStats* Scan(const SelectStmt* stmt, size_t slot) {
    return &scans_[{stmt, slot}];
  }
  /// Hash-join nodes are keyed by expression identity; `loops` counts
  /// probes, `rows` counts probe hits. Build-side actuals live on the build
  /// SelectStmt's own node.
  PlanNodeStats* HashJoin(const Expr* join) { return &hash_joins_[join]; }

  /// nullptr when the node never executed (e.g. short-circuited subquery).
  const PlanNodeStats* FindSelect(const SelectStmt* stmt) const;
  const PlanNodeStats* FindScan(const SelectStmt* stmt, size_t slot) const;
  const PlanNodeStats* FindHashJoin(const Expr* join) const;

 private:
  std::map<const SelectStmt*, PlanNodeStats> selects_;
  std::map<std::pair<const SelectStmt*, size_t>, PlanNodeStats> scans_;
  std::map<const Expr*, PlanNodeStats> hash_joins_;
};

/// Non-owning view of a `Result<bool>()` callable. The per-row callbacks of
/// EnumerateRows are constructed once per scan setup, and the match path
/// sets up several scans per query — a std::function would heap-allocate
/// its captures every time. The viewed callable must outlive the view; every
/// use here passes a lambda that lives for the whole enumeration call.
class RowCallback {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, RowCallback>>>
  RowCallback(const F& f)  // NOLINT(google-explicit-constructor)
      : obj_(&f), call_([](const void* o) {
          return (*static_cast<const F*>(o))();
        }) {}

  Result<bool> operator()() const { return call_(obj_); }

 private:
  const void* obj_;
  Result<bool> (*call_)(const void*);
};

/// Executes bound SELECT statements against one database: `tables`
/// resolves the plan's catalog slots, and `runtime` (that database's block
/// for the plan; needed only when the plan holds hash joins) keeps the
/// joins' key sets. Stateless apart from those, the stats sink, the
/// optional bind-parameter values, and the optional plan profile; one
/// instance can run many queries of the same plan. `stats` is a
/// per-execution object owned by the caller, so concurrent executors never
/// share mutable state beyond the runtime block's locked key sets.
class Executor {
 public:
  explicit Executor(ExecStats* stats, TableSlots tables = {},
                    const std::vector<Value>* params = nullptr,
                    PlanRuntime* runtime = nullptr,
                    PlanProfile* profile = nullptr)
      : stats_(stats),
        tables_(tables),
        params_(params),
        runtime_(runtime),
        profile_(profile) {}

  /// Runs a bound SELECT and materializes the full result.
  Result<QueryResult> RunSelect(const SelectStmt& stmt);

  /// Evaluates an expression with no row context (INSERT VALUES lists).
  /// Column references fail.
  Result<Value> EvalConstant(const Expr& expr);

  /// Evaluates the WHERE clause of a bound single-table SELECT against one
  /// candidate row (DELETE uses this to collect victims by row id). A null
  /// WHERE accepts every row.
  Result<bool> EvalRowPredicate(const SelectStmt& stmt, RowView row);

  /// Evaluates an arbitrary expression bound within `stmt`'s scope against
  /// one row of its single FROM table (UPDATE assignment values). Text in
  /// the result, as in EvalConstant's, may borrow (Value::Borrow) from the
  /// row, the statement or the parameters.
  Result<Value> EvalRowExpression(const SelectStmt& stmt, RowView row,
                                  const Expr& expr);

 private:
  struct Scope {
    const SelectStmt* stmt = nullptr;
    const Value** rows = nullptr;  // a row's cells per FROM entry

    /// Points `rows` at cleared storage for `n` slots: inline for the
    /// common narrow FROM lists (a heap vector per scope showed up in the
    /// per-match profile), spilling to the heap only for very wide ones.
    void Reset(size_t n) {
      if (n > kInlineSlots) {
        spill_.assign(n, nullptr);
        rows = spill_.data();
        return;
      }
      rows = inline_rows_;
      for (size_t i = 0; i < n; ++i) rows[i] = nullptr;
    }

   private:
    static constexpr size_t kInlineSlots = 8;
    const Value* inline_rows_[kInlineSlots];
    std::vector<const Value*> spill_;
  };

  /// Stack of enclosing scopes, innermost last. Depth is bounded by the
  /// binder's subquery budget, so the inline buffer covers every statement
  /// the stock servers accept; a heap vector per RunSelect was measurable
  /// on the per-match profile. Deeper stacks (custom budgets) spill.
  class ScopeStack {
   public:
    void push_back(Scope* s) {
      if (size_ < kInline) {
        inline_[size_++] = s;
        return;
      }
      spill_.push_back(s);
      ++size_;
    }
    void pop_back() {
      if (size_ > kInline) spill_.pop_back();
      --size_;
    }
    size_t size() const { return size_; }
    Scope* operator[](size_t i) const {
      return i < kInline ? inline_[i] : spill_[i - kInline];
    }
    Scope* back() const { return (*this)[size_ - 1]; }

   private:
    static constexpr size_t kInline = 40;
    size_t size_ = 0;
    Scope* inline_[kInline];
    std::vector<Scope*> spill_;
  };

  /// Text in the result borrows (Value::Borrow) from the rows, literals
  /// and parameters it was read from, which outlive the execution.
  Result<Value> Eval(const Expr& expr, ScopeStack& stack);
  /// Evaluates a predicate; the row passes only when the result is TRUE
  /// (NULL and FALSE both reject — SQL three-valued filter semantics).
  Result<bool> EvalFilter(const Expr& expr, ScopeStack& stack);
  Result<bool> ExistsAnyRow(const SelectStmt& sub, ScopeStack& stack);

  /// Semi/anti-join probe: evaluates the probe keys in the current scope
  /// and answers from the (possibly cached) build-side key set.
  Result<Value> EvalHashJoin(const HashJoinExpr& join, ScopeStack& stack);
  /// Returns the current key set for `join`, building (and caching) it if
  /// the cache is empty or stale.
  Result<std::shared_ptr<const HashJoinRuntime::KeySet>> HashJoinKeySet(
      const HashJoinExpr& join);
  /// Per-execution memo over HashJoinKeySet: one mutex acquisition and
  /// version check per (execution, join) instead of per probe row. The
  /// memo's shared_ptr keeps the snapshot alive for the whole execution —
  /// the same lock-free-probe guarantee the per-row fetch gave one probe,
  /// extended to the execution. The pointer is valid until the Executor is
  /// destroyed.
  Result<const HashJoinRuntime::KeySet*> MemoKeySet(const HashJoinExpr& join);

  /// Depth-first enumeration of FROM-row combinations that satisfy WHERE.
  /// `on_row` returns true to stop early (EXISTS).
  Status EnumerateRows(const SelectStmt& stmt, ScopeStack& stack, Scope& scope,
                       size_t slot, const RowCallback& on_row,
                       bool* stopped);
  /// The per-slot body of EnumerateRows: positions `slot` through its
  /// annotated access path (SlotPlan) — an index probe with a non-owning
  /// IndexKeyView, or a full scan — and recurses into the next slot once
  /// per live row. `node` collects actuals when profiling, else nullptr.
  Status ScanSlot(const SelectStmt& stmt, ScopeStack& stack, Scope& scope,
                  size_t slot, const RowCallback& on_row,
                  bool* stopped, PlanNodeStats* node);

  Result<QueryResult> RunPlainSelect(const SelectStmt& stmt,
                                     ScopeStack& stack);
  Result<QueryResult> RunAggregateSelect(const SelectStmt& stmt,
                                         ScopeStack& stack);

  Status ApplyDistinctOrderLimit(const SelectStmt& stmt, QueryResult* result,
                                 const std::vector<Row>& order_keys);
  Status SortAndLimit(const SelectStmt& stmt, QueryResult* result,
                      const std::vector<Row>& order_keys);

  ExecStats* stats_;
  TableSlots tables_;
  const std::vector<Value>* params_;  // null = statement takes no parameters
  PlanRuntime* runtime_;  // null = the plan holds no hash joins
  PlanProfile* profile_;  // null = no per-node actuals collected

  // MemoKeySet state: a small direct-scan cache (statements carry at most a
  // handful of distinct joins; round-robin eviction covers the rest).
  struct KeySetMemoEntry {
    const HashJoinExpr* join = nullptr;
    std::shared_ptr<const HashJoinRuntime::KeySet> keys;
  };
  static constexpr size_t kKeySetMemoSlots = 4;
  KeySetMemoEntry keyset_memo_[kKeySetMemoSlots];
  size_t keyset_memo_next_ = 0;
};

/// SQL LIKE with % (any run) and _ (any single char). `escape_char` ('\0'
/// for none) makes the following pattern character literal. NULL operands
/// yield NULL at the caller; this is the non-null core.
bool SqlLikeMatch(std::string_view text, std::string_view pattern,
                  char escape_char = '\0');

/// Renders the bound root SELECT's result column headers once, so no
/// execution re-derives them. Called from Database::BindAndPlan after
/// planning. The headers' shared_ptr is placed, finalized, in `arena`.
void PrecomputeExecHints(SelectStmt* stmt, TableSlots tables,
                         StatementArena* arena);

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_EXECUTOR_H_
