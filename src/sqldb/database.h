// Database: the top-level facade of the sqldb engine.
//
// Owns the catalog of tables and executes SQL text end to end:
// tokenize -> parse -> bind -> execute. This is the component that stands in
// for DB2 UDB in the paper's server-centric architecture; the APPEL
// translators hand it SQL strings exactly as the paper's system handed
// generated SQL to DB2.

#ifndef P3PDB_SQLDB_DATABASE_H_
#define P3PDB_SQLDB_DATABASE_H_

#include <array>
#include <cstddef>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/string_util.h"
#include "common/thread_ordinal.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "sqldb/ast.h"
#include "sqldb/binder.h"
#include "sqldb/plan_cache.h"
#include "sqldb/query_result.h"
#include "sqldb/statement_stats.h"
#include "sqldb/stats.h"
#include "sqldb/storage.h"
#include "sqldb/table.h"

namespace p3pdb::sqldb {

class Database;
class PlanRuntime;

/// Planner default: on, unless the environment sets P3PDB_NO_PLANNER to a
/// non-empty value other than "0". Read at Database construction time, so
/// harnesses (the cross-engine differential, the `--no-planner` bench
/// ablations) can flip the whole executor path without threading a flag
/// through every layer.
bool PlannerEnabledFromEnv();

/// Cost-model default: on, unless the environment sets P3PDB_NO_COST to a
/// non-empty value other than "0". Same contract as PlannerEnabledFromEnv,
/// so bench/CI ablations can compare rule-only planning against cost-based
/// planning without code changes.
bool CostModelEnabledFromEnv();

/// A parsed-and-bound SELECT that can be executed repeatedly without
/// re-preparing — what the generated rule queries become after the
/// "conversion" step, so match-time cost is execution only.
///
/// Execution is read-only over the bound AST, so one PreparedStatement may
/// be executed from many threads concurrently (each call supplies its own
/// parameter values and accumulates into a private ExecStats). The
/// statement owns its database's runtime block for the plan (hash-join key
/// sets, statement-stats entry), placed in the plan's arena; copies share
/// both.
class PreparedStatement {
 public:
  PreparedStatement() = default;

  /// Runs the statement against the database it was prepared on, with one
  /// value per `?` placeholder, in order (`params.size()` must equal
  /// param_count()). The catalog must still contain the bound tables. A
  /// non-null `trace` records an `sql-execute` span (row and access-path
  /// counters attached).
  Result<QueryResult> Execute(const std::vector<Value>& params = {},
                              obs::TraceContext* trace = nullptr) const;

  bool valid() const { return stmt_ != nullptr; }
  /// The SQL text the statement was prepared from (its arena's copy).
  std::string_view sql() const {
    return stmt_ == nullptr ? std::string_view() : stmt_->arena->text();
  }
  /// Number of `?` placeholders the statement takes.
  size_t param_count() const;
  /// The arena holding the bound statement's nodes (see ast.h); null when
  /// !valid().
  const StatementArena* arena() const {
    return stmt_ == nullptr ? nullptr : stmt_->arena;
  }

 private:
  friend class Database;
  Database* db_ = nullptr;
  std::shared_ptr<Statement> stmt_;  // bound SELECT
  PlanRuntime* runtime_ = nullptr;   // db_'s block, in stmt_'s arena
  uint64_t catalog_generation_ = 0;  // guards against post-DDL execution
};

class Database : public CatalogView {
 public:
  struct Options {
    /// Maximum SELECT nesting depth accepted by the binder. Models the
    /// complexity budget that made DB2 reject the XTABLE-generated SQL for
    /// the Medium preference (Figure 21). The default accommodates every
    /// query the optimized translator generates.
    int max_subquery_depth = 32;
    /// Verify FOREIGN KEY references on INSERT (parents must exist).
    bool enforce_foreign_keys = true;
    /// Run the rule-based planner (EXISTS decorrelation into hash
    /// semi/anti-joins, see planner.h) after binding every SELECT.
    bool enable_planner = PlannerEnabledFromEnv();
    /// Cache parsed+bound+planned SELECTs keyed by schema identity and SQL
    /// text (see plan_cache.h), so repeated executions of the same
    /// statement (the server's per-match rule queries) skip
    /// parse/bind/plan entirely. DDL changes the schema identity, so
    /// statements re-prepare after it.
    bool enable_plan_cache = PlannerEnabledFromEnv();
    /// Bounded LRU capacity of the private plan cache (unused when
    /// `plan_cache` names a shared one).
    size_t plan_cache_capacity = 256;
    /// The plan cache this database shares with others (the serving
    /// tier's replicas): plans any member built serve every member of the
    /// same schema identity. Null = a private cache of
    /// `plan_cache_capacity` plans.
    std::shared_ptr<PlanCache> plan_cache;
    /// Maintain table/column statistics (see stats.h) and let them moderate
    /// the rule planner: build-side estimates, EXISTS rewrite vetoes,
    /// cheapest-build-first join ordering, index-vs-seq access choice, and
    /// stats-epoch invalidation of cached plans. Off = the planner is
    /// purely syntactic, exactly as before, and stats maintenance costs
    /// zero on every DML path.
    bool enable_cost_model = CostModelEnabledFromEnv();
    /// No effect; set only by perfbench's model servers.
    bool enable_vectorized_executor = false;
    /// Fingerprint every prepared SELECT (literals normalize to `?`) and
    /// keep per-fingerprint aggregates — calls, rows, cache hits, rewrites,
    /// latency distribution (see statement_stats.h). Off by default: the
    /// raw engine stays exactly as before; the policy server turns it on.
    bool enable_statement_stats = false;
    /// With statement stats on, executions slower than this land in the
    /// slow-query log with their bound params and an EXPLAIN ANALYZE plan.
    /// 0 disables slow capture.
    uint64_t slow_query_threshold_us = 0;
    /// With statement stats on, every Nth execution of a statement shape is
    /// captured into the slow log as a trace sample regardless of latency.
    /// 0 disables sampling.
    uint32_t trace_sample_every = 0;
    /// Ring capacity of the slow-query log.
    size_t slow_log_capacity = 128;
    /// The disk-backed storage engine (checkpoint image + WAL, see
    /// storage.h). An empty `storage.path` — the default — keeps the
    /// database purely in-memory with zero storage overhead on any path.
    /// A non-empty one opens (creating or recovering) the directory at
    /// construction; check storage_status() before use.
    StorageEngine::Options storage;
    /// Take a final checkpoint in the destructor so the next open loads a
    /// compact image instead of replaying the whole WAL.
    bool storage_checkpoint_on_close = true;
  };

  Database() : Database(Options{}) {}
  explicit Database(Options options);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// OK for in-memory databases and for successfully opened/recovered
  /// disk-backed ones; otherwise the open/recovery error (every mutating
  /// call then fails with this status rather than diverging from disk).
  const Status& storage_status() const { return storage_status_; }
  /// True when this database is disk-backed and healthy.
  bool storage_active() const {
    return storage_ != nullptr && storage_status_.ok();
  }
  /// WAL/checkpoint/recovery counters; zeros when not disk-backed.
  StorageStats storage_stats() const {
    return storage_ != nullptr ? storage_->stats() : StorageStats{};
  }

  /// Opens an explicit transaction: subsequent statements share one WAL
  /// commit, issued by CommitTransaction. No-op (OK) when in-memory.
  /// Transactions group durability only — there is no rollback; partial
  /// effects of a failed statement remain, exactly as in-memory.
  Status BeginTransaction();
  Status CommitTransaction();

  /// Two-phase variant of CommitTransaction: appends the commit record and
  /// returns a durability ticket without fsyncing, so a caller holding an
  /// exclusive lock can release it before blocking on the disk in
  /// WaitDurable. Ticket 0 = already durable (in-memory database, empty
  /// transaction, or sync-on-commit off); WaitDurable(0) returns
  /// immediately. Staging must be serialized by the caller (like every
  /// other mutating call); WaitDurable is thread-safe.
  Result<uint64_t> CommitTransactionStaged();
  Status WaitDurable(uint64_t ticket);

  /// Runs `write` as one transaction, with `lock` (held on entry)
  /// serializing it, and commits on every path: there is no rollback, so
  /// disk keeps what memory kept; `write`'s error wins over the commit's.
  /// Under group commit `lock` is released between the staged commit and
  /// WaitDurable, so concurrent writers share an fsync and the lock's
  /// readers never wait behind the disk.
  template <typename Lock, typename Write>
  Status CommitDurably(Lock& lock, Write&& write) {
    P3PDB_RETURN_IF_ERROR(BeginTransaction());
    Status result = write();
    Status commit;
    if (options_.storage.group_commit) {
      Result<uint64_t> ticket = CommitTransactionStaged();
      commit = ticket.status();
      if (ticket.ok()) {
        lock.unlock();
        commit = WaitDurable(ticket.value());
      }
    } else {
      commit = CommitTransaction();
    }
    return result.ok() ? commit : result;
  }

  /// Forces a checkpoint (full catalog image + WAL truncation). No-op when
  /// in-memory.
  Status Checkpoint();

  /// Parses and executes one SQL statement. Statements containing `?`
  /// placeholders are rejected (use the parameterized overload). A non-null
  /// `trace` records `sql-parse` / `sql-bind` / `sql-execute` spans; it
  /// changes nothing else.
  Result<QueryResult> Execute(std::string_view sql,
                              obs::TraceContext* trace = nullptr) {
    return ExecuteSql(sql, nullptr, trace);
  }

  /// Parses and executes one SELECT (or EXPLAIN [ANALYZE]) with one value
  /// per `?` placeholder.
  Result<QueryResult> Execute(std::string_view sql,
                              const std::vector<Value>& params,
                              obs::TraceContext* trace = nullptr) {
    return ExecuteSql(sql, &params, trace);
  }

  /// Parses and binds a SELECT once for repeated execution.
  Result<PreparedStatement> Prepare(std::string_view sql);

  /// Executes a semicolon-separated script, discarding row results.
  Status ExecuteScript(std::string_view sql);

  /// Programmatic DDL, used by the shredders.
  Status CreateTable(TableSchema schema);
  Status DropTable(std::string_view name, bool if_exists);
  /// Programmatic insert (bypasses SQL text; values must match the schema).
  /// The table copies the values, so a braced list is never copied into a
  /// Row first.
  Status InsertRow(std::string_view table_name, RowView row);
  Status InsertRow(std::string_view table_name,
                   std::initializer_list<Value> row) {
    return InsertRow(table_name, RowView(row.begin(), row.size()));
  }

  /// Case-insensitive table lookup; nullptr if absent.
  const Table* LookupTable(std::string_view name) const;
  Table* GetMutableTable(std::string_view name);
  // CatalogView.
  CatalogSlot LookupSlot(std::string_view name) const override;
  TableSlots table_slots() const override { return TableSlots(tables_); }

  std::vector<std::string> TableNames() const;
  size_t TableCount() const { return table_names_.size(); }

  /// Hash of the planning options and of every CREATE TABLE, CREATE INDEX
  /// (SQL or Table::CreateIndex) and DROP TABLE so far, in order. Plans are
  /// cached under it: databases with equal identities have the same tables
  /// in the same slots with the same indexes in the same order, so they
  /// can run each other's plans.
  uint64_t schema_identity() const { return schema_identity_; }

  const Options& options() const { return options_; }
  /// Snapshot of the accumulated execution counters (sums the stats
  /// stripes). Returned by value: the stripes are atomic and may be
  /// concurrently updated.
  ExecStats stats() const;
  /// Zeroes every counter. The server's exported sqldb_* counters read
  /// stats() directly, so they drop back to zero too; only tests and the
  /// scaling/schema-ablation benches call this.
  void ResetStats();

  /// Per-statement aggregates (populated only when
  /// options().enable_statement_stats; empty otherwise).
  const StatementStatsRegistry& statement_stats() const {
    return statement_stats_;
  }
  StatementStatsRegistry& mutable_statement_stats() { return statement_stats_; }
  /// The statistics catalog backing the cost model. Always present; only
  /// populated (and only consulted) when options().enable_cost_model.
  const StatsCatalog& stats_catalog() const { return stats_catalog_; }
  StatsCatalog& mutable_stats_catalog() { return stats_catalog_; }
  /// Slow-query/trace-sample ring; nullptr unless statement stats are on
  /// and a threshold or sampling stride is configured.
  obs::SlowQueryLog* slow_log() { return slow_log_.get(); }
  const obs::SlowQueryLog* slow_log() const { return slow_log_.get(); }

 private:
  friend class PreparedStatement;
  friend class StorageEngine;

  /// Recovery-only table creation: no PK/FK validation (the definition was
  /// validated when first created), attaches the storage observer. Returns
  /// nullptr if the name is already taken.
  Table* RestoreTable(TableSchema schema);
  /// Places a new table in the next catalog slot: name map, schema
  /// identity, catalog generation, and the schema and (with the cost model)
  /// statistics observers.
  Table* AddTable(std::string key, TableSchema schema);
  /// Folds `table`'s new index into the schema identity.
  void OnCreateIndex(const Table& table, const Index& index);
  Status OpenStorage();
  /// Commits the statement-level implicit transaction and runs the
  /// auto-checkpoint policy. Called at the end of every mutating
  /// operation; no-op when not disk-backed.
  Status StorageStatementEnd();

  Result<QueryResult> ExecuteParsed(Statement* stmt,
                                    const std::vector<Value>* params = nullptr);
  /// The one text-execution path: plan-cache lookup, then parse, the
  /// parameter-count check, bind/plan, cache store and run. `params` is
  /// null when the caller supplied none.
  Result<QueryResult> ExecuteSql(std::string_view sql,
                                 const std::vector<Value>* params,
                                 obs::TraceContext* trace);

  /// Binds (and, when enabled, plans) a freshly parsed SELECT, counting the
  /// work in the stats aggregate, and returns this database's runtime
  /// block for it. `arena` is the root statement's arena; planner rewrites
  /// and annotations place their nodes and lists there, and so does the
  /// block; nothing allocates from it once the plan is published. The
  /// binder's and planner's temporary vectors come from a stack buffer (the
  /// heap only past it). With statement stats on and a non-empty `sql`,
  /// interns the statement shape into the block so executions tally
  /// without any lookup.
  Result<PlanRuntime*> BindAndPlan(SelectStmt* select, StatementArena* arena,
                                   std::string_view sql = {});
  /// Binds the probe SELECT an UPDATE or DELETE wraps its WHERE (and
  /// assignments) in, and annotates its subqueries (AnnotateSubqueries: the
  /// probe's own table is visited by row id). Probes are not planned: DML
  /// runs without a PlanRuntime, so their subqueries stay correlated. Slot
  /// plans go in `arena`, the DML statement's; cost decisions tally into
  /// `stats`.
  Status BindDmlProbe(SelectStmt* probe, StatementArena* arena,
                      ExecStats* stats);
  /// This database's block for a cached plan, created on its first
  /// execution here (the plan may have been built by another member).
  PlanRuntime& RuntimeFor(SharedPlan& plan);
  /// Post-execution telemetry hook: decides whether this execution crossed
  /// the slow threshold or hit the trace-sampling stride, and if so
  /// re-executes with a PlanProfile to capture an EXPLAIN ANALYZE plan into
  /// the slow log. Called only when the runtime carries a stats entry.
  void MaybeCaptureStatement(const SelectStmt& select, PlanRuntime& runtime,
                             const std::vector<Value>* params,
                             double elapsed_us);
  /// Runs a bound SELECT against this database's `runtime` block:
  /// param-count check, private-stats execution, merge. Shared by the
  /// plan-cache hit path, the fresh-parse path and PreparedStatement.
  Result<QueryResult> RunBoundSelect(const SelectStmt& select,
                                     PlanRuntime& runtime,
                                     const std::vector<Value>* params,
                                     obs::TraceContext* trace);
  Result<QueryResult> ExecuteInsert(InsertStmt* stmt);
  Result<QueryResult> ExecuteUpdate(UpdateStmt* stmt);
  Result<QueryResult> ExecuteDelete(DeleteStmt* stmt);
  Status CheckForeignKeys(const Table& table, RowView row) const;

  /// This thread's stats stripe (see stripes_).
  AtomicExecStats& Stripe();

  /// Folds index creation into the schema identity, however the index was
  /// created (SQL, a shredder's Table::CreateIndex, recovery replay).
  class SchemaObserver : public TableObserver {
   public:
    explicit SchemaObserver(Database* db) : db_(db) {}
    void OnInsert(const Table&, size_t, RowView) override {}
    void OnDelete(const Table&, size_t) override {}
    void OnCreateIndex(const Table& table, const Index& index) override {
      db_->OnCreateIndex(table, index);
    }

   private:
    Database* db_;
  };

  Options options_;
  // Every table by catalog slot, in creation order; a dropped table leaves
  // its slot empty (and changes the schema identity).
  std::vector<std::unique_ptr<Table>> tables_;
  // Lower-cased name -> slot, ordered case-insensitively so a lookup
  // takes any spelling without lower-casing a copy.
  std::map<std::string, CatalogSlot, LessIgnoreCase> table_names_;
  uint64_t schema_identity_ = 0;
  SchemaObserver schema_observer_{this};

  // Execution counters, striped so concurrent executions rarely share a
  // cache line: each thread merges into its ThreadStripe() (see
  // common/thread_ordinal.h), with skip-zero relaxed fetch_adds. stats()
  // and ResetStats() walk every stripe without a lock.
  struct alignas(64) StatsStripe {
    AtomicExecStats stats;
  };
  std::array<StatsStripe, kThreadStripes> stripes_;
  // Bumped on every CREATE/DROP TABLE; prepared statements from an older
  // generation refuse to run rather than resolve a stale slot.
  uint64_t catalog_generation_ = 0;

  /// The plan cache (plan_cache.h): private unless Options::plan_cache
  /// names a shared one; null when plan caching is off. `member_` is this
  /// database's ordinal in it, which finds its runtime block in every
  /// cached plan.
  std::shared_ptr<PlanCache> plan_cache_;
  size_t member_ = 0;

  // Statement telemetry. The registry always exists (entries are only
  // created when enable_statement_stats is set); the slow log exists only
  // when capture is configured.
  StatementStatsRegistry statement_stats_;
  std::unique_ptr<obs::SlowQueryLog> slow_log_;

  // Disk-backed persistence; null for in-memory databases (the default).
  std::unique_ptr<StorageEngine> storage_;
  Status storage_status_ = Status::OK();

  // Cost-model statistics; registered as a table observer (alongside the
  // storage engine) only when options_.enable_cost_model.
  StatsCatalog stats_catalog_;
};

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_DATABASE_H_
