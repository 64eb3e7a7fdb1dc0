#include "sqldb/database.h"

#include <array>
#include <cstddef>
#include <cstdlib>
#include <memory_resource>
#include <optional>

#include "common/fnv.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "sqldb/executor.h"
#include "sqldb/explain.h"
#include "sqldb/parser.h"
#include "sqldb/plan_cache.h"
#include "sqldb/planner.h"

namespace p3pdb::sqldb {

bool PlannerEnabledFromEnv() {
  const char* v = std::getenv("P3PDB_NO_PLANNER");
  return v == nullptr || v[0] == '\0' || std::string_view(v) == "0";
}

bool CostModelEnabledFromEnv() {
  const char* v = std::getenv("P3PDB_NO_COST");
  return v == nullptr || v[0] == '\0' || std::string_view(v) == "0";
}

namespace {

/// Shared ownership of a bound root SELECT still owned by its Statement
/// base, as the SharedPlan a plan cache holds: placed in the root's arena
/// and kept alive by the root's own shared_ptr control block. `runtime` is
/// member `member`'s block, already in the arena.
std::shared_ptr<SharedPlan> SharePlan(std::unique_ptr<Statement> root,
                                      const SelectStmt* select, size_t member,
                                      PlanRuntime* runtime) {
  SharedPlan* plan =
      root->arena->NewFinalized<SharedPlan>(select, member, runtime);
  return std::shared_ptr<SharedPlan>(ShareStatement(std::move(root)), plan);
}

/// FNV-1a steps over the schema identity's inputs.
uint64_t Mix(uint64_t h, std::string_view bytes) {
  // The terminator keeps "ab"+"c" apart from "a"+"bc".
  return FnvStep(FnvHash(bytes, h), 0xff);
}

uint64_t Mix(uint64_t h, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h = FnvStep(h, static_cast<unsigned char>(value >> (8 * i)));
  }
  return h;
}

/// The identity a database starts from: its options that shape plans.
uint64_t PlanningIdentity(const Database::Options& options) {
  uint64_t h = kFnvOffsetBasis;
  h = Mix(h, uint64_t{options.enable_planner});
  h = Mix(h, uint64_t{options.enable_cost_model});
  return Mix(h, static_cast<uint64_t>(options.max_subquery_depth));
}

/// Folds one CREATE TABLE into a schema identity.
uint64_t MixTable(uint64_t h, const TableSchema& schema) {
  h = Mix(h, "table");
  h = Mix(h, ToLower(schema.name()));
  for (const ColumnDef& col : schema.columns()) {
    h = Mix(h, ToLower(col.name));
    h = Mix(h, static_cast<uint64_t>(col.type));
    h = Mix(h, uint64_t{col.nullable});
  }
  h = Mix(h, "pk");
  for (const std::string& col : schema.primary_key()) h = Mix(h, ToLower(col));
  return h;
}

/// InvalidArgument unless `params` (null = none) holds exactly `expected`
/// values.
Status CheckParamCount(size_t expected, const std::vector<Value>* params) {
  const size_t supplied = params == nullptr ? 0 : params->size();
  if (supplied == expected) return Status::OK();
  return Status::InvalidArgument("statement takes " + std::to_string(expected) +
                                 " parameter(s) but " +
                                 std::to_string(supplied) + " were supplied");
}

void Bump(std::atomic<uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

// Stack bytes for bind and plan temporaries (BindAndPlan); the translators'
// rule queries fit, larger statements spill to the heap.
constexpr size_t kPlanScratchBytes = 8192;

}  // namespace

Database::Database(Options options)
    : options_(std::move(options)),
      schema_identity_(PlanningIdentity(options_)) {
  if (options_.enable_plan_cache) {
    plan_cache_ = options_.plan_cache;
    if (plan_cache_ == nullptr && options_.plan_cache_capacity > 0) {
      plan_cache_ = std::make_shared<PlanCache>(options_.plan_cache_capacity);
    }
  }
  if (plan_cache_ != nullptr) {
    member_ = plan_cache_->AddMember();
    stats_catalog_.ShareEpoch(plan_cache_->stats_epoch());
  }
  if (options_.enable_statement_stats &&
      (options_.slow_query_threshold_us > 0 ||
       options_.trace_sample_every > 0)) {
    slow_log_ = std::make_unique<obs::SlowQueryLog>(options_.slow_log_capacity);
  }
  if (!options_.storage.path.empty()) {
    storage_status_ = OpenStorage();
  }
}

Database::~Database() {
  if (storage_ != nullptr && storage_status_.ok() &&
      options_.storage_checkpoint_on_close) {
    // Final checkpoint: the next open loads a compact image instead of
    // replaying the whole WAL. Close-time failures are unreportable; the
    // WAL alone is sufficient for recovery, so best-effort is safe.
    (void)storage_->CommitIfImplicit();
    (void)storage_->Checkpoint(*this);
  }
  for (auto& table : tables_) {
    if (table != nullptr) table->ClearObservers();
  }
}

Status Database::OpenStorage() {
  auto engine = StorageEngine::Open(options_.storage);
  if (!engine.ok()) return engine.status();
  storage_ = std::move(engine).value();
  Status st = storage_->RecoverInto(this);
  if (!st.ok()) {
    for (auto& table : tables_) {
      if (table != nullptr) table->ClearObservers();
    }
    storage_.reset();
    return st;
  }
  // Checkpoint load restores rows through RestoreSlot, which bypasses the
  // observers; one analysis pass brings the stats catalog up to the
  // recovered state. The HLL sketches are order/duplicate-insensitive, so
  // this lands on the same state incremental maintenance would have.
  if (options_.enable_cost_model) stats_catalog_.AnalyzeAll();
  return Status::OK();
}

Table* Database::RestoreTable(TableSchema schema) {
  std::string key = ToLower(schema.name());
  if (table_names_.count(key) != 0) return nullptr;
  Table* table = AddTable(std::move(key), std::move(schema));
  table->AddObserver(storage_.get());
  return table;
}

Table* Database::AddTable(std::string key, TableSchema schema) {
  const auto slot = static_cast<CatalogSlot>(tables_.size());
  schema_identity_ = MixTable(schema_identity_, schema);
  tables_.push_back(std::make_unique<Table>(std::move(schema)));
  table_names_.emplace(std::move(key), slot);
  ++catalog_generation_;
  Table* table = tables_.back().get();
  table->AddObserver(&schema_observer_);
  if (options_.enable_cost_model) {
    stats_catalog_.Register(table);
    table->AddObserver(&stats_catalog_);
  }
  return table;
}

void Database::OnCreateIndex(const Table& table, const Index& index) {
  uint64_t h = Mix(schema_identity_, "index");
  h = Mix(h, uint64_t{LookupSlot(table.schema().name())});
  h = Mix(h, index.name());
  for (size_t ord : index.column_ordinals()) h = Mix(h, uint64_t{ord});
  schema_identity_ = Mix(h, uint64_t{index.unique()});
}

Status Database::StorageStatementEnd() {
  if (!storage_active() || storage_->replaying()) return Status::OK();
  P3PDB_RETURN_IF_ERROR(storage_->CommitIfImplicit());
  return storage_->MaybeCheckpoint(*this);
}

Status Database::BeginTransaction() {
  if (!storage_status_.ok()) return storage_status_;
  if (storage_ == nullptr) return Status::OK();
  return storage_->Begin();
}

Status Database::CommitTransaction() {
  if (!storage_status_.ok()) return storage_status_;
  if (storage_ == nullptr) return Status::OK();
  P3PDB_RETURN_IF_ERROR(storage_->Commit());
  return storage_->MaybeCheckpoint(*this);
}

Result<uint64_t> Database::CommitTransactionStaged() {
  if (!storage_status_.ok()) return storage_status_;
  if (storage_ == nullptr) return 0;
  P3PDB_ASSIGN_OR_RETURN(uint64_t ticket, storage_->CommitStaged());
  // MaybeCheckpoint runs here, under the caller's serialization — if it
  // fires, the checkpoint itself durably covers the staged commit and
  // WaitDurable(ticket) returns without another fsync.
  P3PDB_RETURN_IF_ERROR(storage_->MaybeCheckpoint(*this));
  return ticket;
}

Status Database::WaitDurable(uint64_t ticket) {
  if (storage_ == nullptr || ticket == 0) return Status::OK();
  return storage_->WaitDurable(ticket);
}

Status Database::Checkpoint() {
  if (!storage_status_.ok()) return storage_status_;
  if (storage_ == nullptr) return Status::OK();
  return storage_->Checkpoint(*this);
}

AtomicExecStats& Database::Stripe() {
  return stripes_[ThreadStripe()].stats;
}

ExecStats Database::stats() const {
  ExecStats total;
  for (const StatsStripe& stripe : stripes_) {
    total.Accumulate(stripe.stats.Snapshot());
  }
  return total;
}

void Database::ResetStats() {
  for (StatsStripe& stripe : stripes_) stripe.stats.Reset();
}

Result<QueryResult> Database::ExecuteSql(std::string_view sql,
                                         const std::vector<Value>* params,
                                         obs::TraceContext* trace) {
  // A plan-cache hit skips the parse and bind spans entirely — that absence
  // in the trace *is* the signal that the cached path ran. The text is
  // hashed once for both the lookup and a miss's store.
  const size_t hash =
      plan_cache_ != nullptr ? std::hash<std::string_view>{}(sql) : 0;
  if (plan_cache_ != nullptr) {
    PlanCache::Probe probe = plan_cache_->Lookup(schema_identity_, sql, hash);
    if (probe.recosted) Bump(Stripe().plan_recosts);
    if (probe.plan != nullptr) {
      Bump(Stripe().plan_cache_hits);
      PlanRuntime& runtime = RuntimeFor(*probe.plan);
      if (runtime.stats_entry() != nullptr) {
        runtime.stats_entry()->RecordPlanCacheHit();
      }
      return RunBoundSelect(probe.plan->select(), runtime, params, trace);
    }
  }
  obs::ScopedSpan parse_span(trace, "sql-parse");
  auto parsed = ParseStatement(sql);
  parse_span.End();
  P3PDB_RETURN_IF_ERROR(parsed.status());
  Statement* stmt = parsed.value().get();
  if (params != nullptr && stmt->kind != StatementKind::kSelect &&
      stmt->kind != StatementKind::kExplain) {
    return Status::Unsupported(
        "bind parameters are only supported for SELECT statements");
  }
  if (stmt->kind != StatementKind::kSelect) {
    // DDL/DML/EXPLAIN: bind+execute as one span; per-node detail for
    // SELECTs comes from EXPLAIN ANALYZE, not the trace.
    obs::ScopedSpan exec_span(trace, "sql-execute");
    return ExecuteParsed(stmt, params);
  }
  auto* select = static_cast<SelectStmt*>(stmt);
  P3PDB_RETURN_IF_ERROR(CheckParamCount(select->param_count, params));
  PlanRuntime* runtime = nullptr;
  {
    obs::ScopedSpan bind_span(trace, "sql-bind");
    P3PDB_ASSIGN_OR_RETURN(runtime, BindAndPlan(select, select->arena, sql));
  }
  if (plan_cache_ == nullptr) {
    return RunBoundSelect(*select, *runtime, params, trace);
  }
  std::shared_ptr<SharedPlan> plan =
      SharePlan(std::move(parsed).value(), select, member_, runtime);
  plan_cache_->Store(schema_identity_, hash, plan,
                     /*costed=*/options_.enable_cost_model);
  return RunBoundSelect(*select, *runtime, params, trace);
}

Result<PlanRuntime*> Database::BindAndPlan(SelectStmt* select,
                                           StatementArena* arena,
                                           std::string_view sql) {
  // Bind and plan temporaries: a stack buffer, the heap only past it.
  alignas(std::max_align_t) std::array<std::byte, kPlanScratchBytes> buffer;
  std::pmr::monotonic_buffer_resource scratch(buffer.data(), buffer.size());
  Binder binder(*this, options_.max_subquery_depth, &scratch);
  P3PDB_RETURN_IF_ERROR(binder.BindSelect(select));
  ExecStats local;
  ++local.plans_built;
  const StatsCatalog* catalog =
      options_.enable_cost_model ? &stats_catalog_ : nullptr;
  const TableSlots tables = table_slots();
  if (options_.enable_planner) {
    PlanSelect(select, tables, arena, &local, catalog, &scratch);
  }
  // Annotation must follow planning: the rewrite replaces EXISTS subtrees
  // with hash joins, and the slot plans point into the final tree.
  AnnotateSelect(select, tables, arena, catalog, &local, &scratch);
  PrecomputeExecHints(select, tables, arena);
  StatementStatsEntry* entry = nullptr;
  if (options_.enable_statement_stats && !sql.empty()) {
    entry = statement_stats_.Intern(sql);
    entry->RecordPlanned(local.semi_join_rewrites, local.anti_join_rewrites);
  }
  Stripe().Merge(local);
  return arena->NewFinalizedWithTail<PlanRuntime>(
      PlanRuntime::Bytes(select->hash_joins), select->hash_joins, entry);
}

Status Database::BindDmlProbe(SelectStmt* probe, StatementArena* arena,
                              ExecStats* stats) {
  Binder binder(*this, options_.max_subquery_depth);
  P3PDB_RETURN_IF_ERROR(binder.BindSelect(probe));
  AnnotateSubqueries(*probe, table_slots(), arena,
                     options_.enable_cost_model ? &stats_catalog_ : nullptr,
                     stats);
  return Status::OK();
}

PlanRuntime& Database::RuntimeFor(SharedPlan& plan) {
  if (PlanRuntime* runtime = plan.runtime(member_)) return *runtime;
  // The first execution here of a plan another member built: this
  // database's own key sets and statement-stats entry.
  const SelectStmt& select = plan.select();
  StatementStatsEntry* entry =
      options_.enable_statement_stats
          ? statement_stats_.Intern(select.arena->text())
          : nullptr;
  return *plan.Install(member_,
                       PlanRuntime::New(select.hash_joins, entry));
}

Result<QueryResult> Database::RunBoundSelect(const SelectStmt& select,
                                             PlanRuntime& runtime,
                                             const std::vector<Value>* params,
                                             obs::TraceContext* trace) {
  P3PDB_RETURN_IF_ERROR(CheckParamCount(select.param_count, params));
  obs::ScopedSpan exec_span(trace, "sql-execute");
  // Telemetry costs one branch when off; when on, two clock reads plus a
  // handful of relaxed fetch_adds on the interned entry.
  StatementStatsEntry* entry = runtime.stats_entry();
  std::optional<Stopwatch> timer;
  if (entry != nullptr) timer.emplace();
  ExecStats local;
  Executor executor(&local, table_slots(), params, &runtime);
  auto result = executor.RunSelect(select);
  Stripe().Merge(local);
  if (entry != nullptr) {
    const double elapsed_us = timer->ElapsedMicros();
    entry->RecordExecution(result.ok() ? result.value().rows.size() : 0,
                           elapsed_us, result.ok());
    if (result.ok() && slow_log_ != nullptr) {
      MaybeCaptureStatement(select, runtime, params, elapsed_us);
    }
  }
  if (result.ok()) {
    exec_span.AddCount("rows", result.value().rows.size());
    exec_span.AddCount("rows-scanned", local.rows_scanned);
    exec_span.AddCount("index-lookups", local.index_lookups);
  }
  return result;
}

void Database::MaybeCaptureStatement(const SelectStmt& select,
                                     PlanRuntime& runtime,
                                     const std::vector<Value>* params,
                                     double elapsed_us) {
  StatementStatsEntry* entry = runtime.stats_entry();
  const bool slow = options_.slow_query_threshold_us > 0 &&
                    elapsed_us >=
                        static_cast<double>(options_.slow_query_threshold_us);
  const bool sampled =
      options_.trace_sample_every > 0 &&
      entry->calls() % options_.trace_sample_every == 0;
  if (!slow && !sampled) return;

  // Re-execute with a profile to render EXPLAIN ANALYZE. The capture pays
  // for a second run, but only for statements already past the threshold
  // (or on the sampling stride), and the profiled run's counters go to a
  // scratch ExecStats so the aggregate tallies are not double-counted.
  obs::SlowQueryEntry capture;
  capture.kind = slow ? obs::SlowQueryEntry::Kind::kSlow
                      : obs::SlowQueryEntry::Kind::kTraceSample;
  capture.fingerprint = entry->fingerprint();
  capture.sql = entry->normalized_sql();
  capture.elapsed_us = elapsed_us;
  std::string rendered = "[";
  if (params != nullptr) {
    for (size_t i = 0; i < params->size(); ++i) {
      if (i != 0) rendered += ", ";
      rendered += (*params)[i].ToString();
    }
  }
  rendered += "]";
  capture.params = std::move(rendered);
  PlanProfile profile;
  ExecStats scratch;
  Executor executor(&scratch, table_slots(), params, &runtime, &profile);
  if (executor.RunSelect(select).ok()) {
    ExplainOptions explain_options;
    explain_options.tables = table_slots();
    explain_options.params = params;
    explain_options.profile = &profile;
    capture.plan = ExplainPlan(select, explain_options);
  }
  slow_log_->Add(std::move(capture));
}

Result<PreparedStatement> Database::Prepare(std::string_view sql) {
  P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt,
                         ParseStatement(sql));
  if (stmt->kind != StatementKind::kSelect) {
    return Status::Unsupported("only SELECT statements can be prepared");
  }
  P3PDB_ASSIGN_OR_RETURN(
      PlanRuntime* runtime,
      BindAndPlan(static_cast<SelectStmt*>(stmt.get()), stmt->arena, sql));
  PreparedStatement prepared;
  prepared.db_ = this;
  prepared.stmt_ = ShareStatement(std::move(stmt));
  prepared.runtime_ = runtime;
  prepared.catalog_generation_ = catalog_generation_;
  return prepared;
}

Result<QueryResult> PreparedStatement::Execute(
    const std::vector<Value>& params, obs::TraceContext* trace) const {
  if (stmt_ == nullptr) {
    return Status::InvalidArgument("executing an empty prepared statement");
  }
  if (catalog_generation_ != db_->catalog_generation_) {
    return Status::InvalidArgument(
        "prepared statement is stale: the catalog changed since Prepare()");
  }
  const auto* select = static_cast<const SelectStmt*>(stmt_.get());
  // RunBoundSelect executes with per-call private stats (concurrent
  // executions stay race-free; the merge is the only shared-state touch)
  // and applies the same telemetry as the text-execution path.
  return db_->RunBoundSelect(*select, *runtime_, &params, trace);
}

size_t PreparedStatement::param_count() const {
  if (stmt_ == nullptr) return 0;
  return static_cast<const SelectStmt*>(stmt_.get())->param_count;
}

Status Database::ExecuteScript(std::string_view sql) {
  P3PDB_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<Statement>> stmts,
                         ParseScript(sql));
  for (auto& stmt : stmts) {
    auto result = ExecuteParsed(stmt.get());
    if (!result.ok()) return result.status();
  }
  return Status::OK();
}

Result<QueryResult> Database::ExecuteParsed(Statement* stmt,
                                            const std::vector<Value>* params) {
  switch (stmt->kind) {
    case StatementKind::kSelect: {
      auto* select = static_cast<SelectStmt*>(stmt);
      P3PDB_RETURN_IF_ERROR(CheckParamCount(select->param_count, params));
      P3PDB_ASSIGN_OR_RETURN(PlanRuntime* runtime,
                             BindAndPlan(select, stmt->arena));
      ExecStats local;
      Executor executor(&local, table_slots(), params, runtime);
      auto result = executor.RunSelect(*select);
      Stripe().Merge(local);
      return result;
    }
    case StatementKind::kInsert: {
      auto result = ExecuteInsert(static_cast<InsertStmt*>(stmt));
      // Commit even a failed statement's partial effects: the in-memory
      // state keeps them (no rollback), so disk must too.
      Status st = StorageStatementEnd();
      if (result.ok() && !st.ok()) return st;
      return result;
    }
    case StatementKind::kUpdate: {
      auto result = ExecuteUpdate(static_cast<UpdateStmt*>(stmt));
      Status st = StorageStatementEnd();
      if (result.ok() && !st.ok()) return st;
      return result;
    }
    case StatementKind::kDelete: {
      auto result = ExecuteDelete(static_cast<DeleteStmt*>(stmt));
      Status st = StorageStatementEnd();
      if (result.ok() && !st.ok()) return st;
      return result;
    }
    case StatementKind::kCreateTable: {
      auto* ct = static_cast<CreateTableStmt*>(stmt);
      if (ct->if_not_exists &&
          LookupTable(ct->schema.name()) != nullptr) {
        return QueryResult{};
      }
      // CreateTable consumes the schema; copy so re-execution stays valid.
      TableSchema schema = ct->schema;
      P3PDB_RETURN_IF_ERROR(CreateTable(std::move(schema)));
      Bump(Stripe().statements_executed);
      return QueryResult{};
    }
    case StatementKind::kCreateIndex: {
      auto* ci = static_cast<CreateIndexStmt*>(stmt);
      Table* table = GetMutableTable(ci->table_name);
      if (table == nullptr) {
        return Status::NotFound("table '" + ci->table_name +
                                "' does not exist");
      }
      P3PDB_RETURN_IF_ERROR(
          table->CreateIndex(ci->index_name, ci->columns, ci->unique));
      P3PDB_RETURN_IF_ERROR(StorageStatementEnd());
      Bump(Stripe().statements_executed);
      return QueryResult{};
    }
    case StatementKind::kDropTable: {
      auto* dt = static_cast<DropTableStmt*>(stmt);
      P3PDB_RETURN_IF_ERROR(DropTable(dt->table_name, dt->if_exists));
      Bump(Stripe().statements_executed);
      return QueryResult{};
    }
    case StatementKind::kExplain: {
      auto* explain = static_cast<ExplainStmt*>(stmt);
      SelectStmt* select = explain->select.get();
      // Plain EXPLAIN renders a parameterized plan without values (the
      // placeholders stay `?`); ANALYZE executes, so values are mandatory.
      if (explain->analyze || (params != nullptr && !params->empty())) {
        P3PDB_RETURN_IF_ERROR(CheckParamCount(select->param_count, params));
      }
      P3PDB_ASSIGN_OR_RETURN(PlanRuntime* runtime,
                             BindAndPlan(select, explain->arena));
      ExplainOptions explain_options;
      explain_options.tables = table_slots();
      explain_options.params = params;
      PlanProfile profile;
      if (explain->analyze) {
        ExecStats local;
        Executor executor(&local, table_slots(), params, runtime, &profile);
        P3PDB_RETURN_IF_ERROR(executor.RunSelect(*select).status());
        Stripe().Merge(local);
        explain_options.profile = &profile;
      }
      QueryResult result;
      result.columns.push_back("plan");
      std::string plan = ExplainPlan(*select, explain_options);
      for (const std::string& line : Split(plan, '\n')) {
        if (!line.empty()) result.rows.push_back({Value::Text(line)});
      }
      return result;
    }
  }
  return Status::Internal("unhandled statement kind");
}

Status Database::CreateTable(TableSchema schema) {
  if (!storage_status_.ok()) return storage_status_;
  std::string key = ToLower(schema.name());
  if (table_names_.count(key) != 0) {
    return Status::AlreadyExists("table '" + schema.name() +
                                 "' already exists");
  }
  // Validate the primary key columns exist.
  for (const std::string& col : schema.primary_key()) {
    if (!schema.ColumnIndex(col).has_value()) {
      return Status::InvalidArgument("primary key column '" + col +
                                     "' not in table '" + schema.name() + "'");
    }
  }
  // Validate foreign keys against existing tables.
  for (const ForeignKeyDef& fk : schema.foreign_keys()) {
    if (fk.columns.size() != fk.referenced_columns.size()) {
      return Status::InvalidArgument(
          "foreign key column count mismatch in table '" + schema.name() +
          "'");
    }
    for (const std::string& col : fk.columns) {
      if (!schema.ColumnIndex(col).has_value()) {
        return Status::InvalidArgument("foreign key column '" + col +
                                       "' not in table '" + schema.name() +
                                       "'");
      }
    }
    const Table* ref = LookupTable(fk.referenced_table);
    if (ref == nullptr) {
      return Status::NotFound("referenced table '" + fk.referenced_table +
                              "' does not exist");
    }
    for (const std::string& col : fk.referenced_columns) {
      if (!ref->schema().ColumnIndex(col).has_value()) {
        return Status::InvalidArgument(
            "referenced column '" + col + "' not in table '" +
            fk.referenced_table + "'");
      }
    }
  }
  Table* table = AddTable(std::move(key), std::move(schema));
  if (storage_active()) {
    storage_->LogCreateTable(table->schema());
    table->AddObserver(storage_.get());
    P3PDB_RETURN_IF_ERROR(StorageStatementEnd());
  }
  return Status::OK();
}

Status Database::DropTable(std::string_view name, bool if_exists) {
  if (!storage_status_.ok()) return storage_status_;
  auto it = table_names_.find(ToLower(name));
  if (it == table_names_.end()) {
    if (if_exists) return Status::OK();
    return Status::NotFound("table '" + std::string(name) +
                            "' does not exist");
  }
  const CatalogSlot slot = it->second;
  stats_catalog_.Forget(tables_[slot].get());
  tables_[slot].reset();
  table_names_.erase(it);
  schema_identity_ = Mix(Mix(schema_identity_, "drop"), uint64_t{slot});
  ++catalog_generation_;
  if (storage_active() && !storage_->replaying()) {
    storage_->LogDropTable(std::string(name));
    P3PDB_RETURN_IF_ERROR(StorageStatementEnd());
  }
  return Status::OK();
}

Status Database::InsertRow(std::string_view table_name, Row row) {
  if (!storage_status_.ok()) return storage_status_;
  Table* table = GetMutableTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("table '" + std::string(table_name) +
                            "' does not exist");
  }
  if (options_.enforce_foreign_keys) {
    P3PDB_RETURN_IF_ERROR(CheckForeignKeys(*table, row));
  }
  P3PDB_RETURN_IF_ERROR(table->Insert(std::move(row)));
  return StorageStatementEnd();
}

CatalogSlot Database::LookupSlot(std::string_view name) const {
  auto it = table_names_.find(ToLower(name));
  return it == table_names_.end() ? kNoSlot : it->second;
}

const Table* Database::LookupTable(std::string_view name) const {
  const CatalogSlot slot = LookupSlot(name);
  return slot == kNoSlot ? nullptr : tables_[slot].get();
}

Table* Database::GetMutableTable(std::string_view name) {
  const CatalogSlot slot = LookupSlot(name);
  return slot == kNoSlot ? nullptr : tables_[slot].get();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(table_names_.size());
  for (const auto& [key, slot] : table_names_) {
    names.push_back(tables_[slot]->schema().name());
  }
  return names;
}

Status Database::CheckForeignKeys(const Table& table, const Row& row) const {
  for (const ForeignKeyDef& fk : table.schema().foreign_keys()) {
    const Table* ref = LookupTable(fk.referenced_table);
    if (ref == nullptr) {
      return Status::Internal("referenced table '" + fk.referenced_table +
                              "' vanished");
    }
    // Build the referencing key; NULL components skip the check (SQL MATCH
    // SIMPLE semantics).
    std::vector<Value> key_values;
    bool has_null = false;
    for (const std::string& col : fk.columns) {
      size_t ord = *table.schema().ColumnIndex(col);
      if (row[ord].is_null()) {
        has_null = true;
        break;
      }
      key_values.push_back(row[ord]);
    }
    if (has_null) continue;

    std::vector<size_t> ref_ordinals;
    for (const std::string& col : fk.referenced_columns) {
      ref_ordinals.push_back(*ref->schema().ColumnIndex(col));
    }
    const Index* index = ref->FindIndexCovering(ref_ordinals);
    bool found = false;
    if (index != nullptr &&
        index->column_ordinals().size() == ref_ordinals.size()) {
      // Reorder key values to the index's column order.
      IndexKey key;
      for (size_t ord : index->column_ordinals()) {
        for (size_t i = 0; i < ref_ordinals.size(); ++i) {
          if (ref_ordinals[i] == ord) {
            key.values.push_back(key_values[i]);
            break;
          }
        }
      }
      found = index->Lookup(key) != nullptr;
    } else {
      for (size_t row_id = 0; row_id < ref->SlotCount() && !found; ++row_id) {
        if (!ref->IsLive(row_id)) continue;
        const Row& candidate = ref->RowAt(row_id);
        bool all_equal = true;
        for (size_t i = 0; i < ref_ordinals.size(); ++i) {
          if (Value::OrderCompare(candidate[ref_ordinals[i]],
                                  key_values[i]) != 0) {
            all_equal = false;
            break;
          }
        }
        found = all_equal;
      }
    }
    if (!found) {
      return Status::InvalidArgument(
          "foreign key violation: no matching row in '" + fk.referenced_table +
          "' for insert into '" + table.schema().name() + "'");
    }
  }
  return Status::OK();
}

Result<QueryResult> Database::ExecuteInsert(InsertStmt* stmt) {
  if (!storage_status_.ok()) return storage_status_;
  Table* table = GetMutableTable(stmt->table_name);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt->table_name +
                            "' does not exist");
  }
  const TableSchema& schema = table->schema();

  // Map the column list (or positional order) to ordinals.
  std::vector<size_t> ordinals;
  if (stmt->columns.empty()) {
    for (size_t i = 0; i < schema.ColumnCount(); ++i) ordinals.push_back(i);
  } else {
    for (const std::string& col : stmt->columns) {
      std::optional<size_t> ord = schema.ColumnIndex(col);
      if (!ord.has_value()) {
        return Status::NotFound("column '" + col + "' not in table '" +
                                stmt->table_name + "'");
      }
      ordinals.push_back(*ord);
    }
  }

  ExecStats local;
  Executor executor(&local);
  int64_t inserted = 0;
  for (const std::vector<ExprPtr>& value_exprs : stmt->rows) {
    if (value_exprs.size() != ordinals.size()) {
      return Status::InvalidArgument(
          "INSERT has " + std::to_string(value_exprs.size()) +
          " values for " + std::to_string(ordinals.size()) + " columns");
    }
    Row row(schema.ColumnCount(), Value::Null());
    for (size_t i = 0; i < value_exprs.size(); ++i) {
      P3PDB_ASSIGN_OR_RETURN(Value v, executor.EvalConstant(*value_exprs[i]));
      row[ordinals[i]] = std::move(v);
    }
    if (options_.enforce_foreign_keys) {
      P3PDB_RETURN_IF_ERROR(CheckForeignKeys(*table, row));
    }
    P3PDB_RETURN_IF_ERROR(table->Insert(std::move(row)));
    ++inserted;
  }
  ++local.statements_executed;
  Stripe().Merge(local);
  QueryResult result;
  result.rows_affected = inserted;
  return result;
}

Result<QueryResult> Database::ExecuteUpdate(UpdateStmt* stmt) {
  if (!storage_status_.ok()) return storage_status_;
  Table* table = GetMutableTable(stmt->table_name);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt->table_name +
                            "' does not exist");
  }
  const TableSchema& schema = table->schema();

  std::vector<size_t> ordinals;
  for (const UpdateStmt::Assignment& a : stmt->assignments) {
    std::optional<size_t> ord = schema.ColumnIndex(a.column);
    if (!ord.has_value()) {
      return Status::NotFound("column '" + a.column + "' not in table '" +
                              stmt->table_name + "'");
    }
    ordinals.push_back(*ord);
  }

  // Bind WHERE and the assignment expressions through a probe SELECT whose
  // select list carries the assignment values. Its lists view local
  // storage; nothing of the probe outlives this call.
  SelectStmt probe;
  TableRef ref;
  ref.table_name = stmt->table_name;
  ref.alias = stmt->table_name;
  probe.from = ArenaVector<TableRef>(&ref, 1);
  std::vector<SelectItem> items(stmt->assignments.size());
  for (size_t i = 0; i < items.size(); ++i) {
    items[i].expr = std::move(stmt->assignments[i].value);
  }
  probe.items = ArenaVector<SelectItem>(items.data(), items.size());
  probe.where = std::move(stmt->where);

  // Whatever happens, restore the statement for potential re-execution.
  auto restore = [&]() {
    for (size_t i = 0; i < stmt->assignments.size(); ++i) {
      stmt->assignments[i].value = std::move(probe.items[i].expr);
    }
    stmt->where = std::move(probe.where);
  };

  ExecStats local;
  if (Status st = BindDmlProbe(&probe, stmt->arena, &local); !st.ok()) {
    restore();
    return st;
  }

  // Snapshot pass: compute every victim's new row from its old values
  // before mutating anything.
  Executor executor(&local, table_slots());
  std::vector<std::pair<size_t, Row>> updates;
  for (size_t row_id = 0; row_id < table->SlotCount(); ++row_id) {
    if (!table->IsLive(row_id)) continue;
    const Row& old_row = table->RowAt(row_id);
    auto pass = executor.EvalRowPredicate(probe, old_row);
    if (!pass.ok()) {
      restore();
      return pass.status();
    }
    if (!pass.value()) continue;
    Row new_row = old_row;
    for (size_t i = 0; i < ordinals.size(); ++i) {
      auto value =
          executor.EvalRowExpression(probe, old_row, *probe.items[i].expr);
      if (!value.ok()) {
        restore();
        return value.status();
      }
      new_row[ordinals[i]] = std::move(value).value();
    }
    updates.emplace_back(row_id, std::move(new_row));
  }
  restore();

  // Apply. Not transactional: a constraint violation mid-way leaves earlier
  // updates in place (as in many engines without ROLLBACK).
  for (auto& [row_id, new_row] : updates) {
    if (options_.enforce_foreign_keys) {
      P3PDB_RETURN_IF_ERROR(CheckForeignKeys(*table, new_row));
    }
    Row old_row = table->RowAt(row_id);
    table->Delete(row_id);
    Status st = table->Insert(std::move(new_row));
    if (!st.ok()) {
      // Try to put the old row back so a unique violation does not lose it.
      (void)table->Insert(std::move(old_row));
      return st;
    }
  }
  ++local.statements_executed;
  Stripe().Merge(local);
  QueryResult result;
  result.rows_affected = static_cast<int64_t>(updates.size());
  return result;
}

Result<QueryResult> Database::ExecuteDelete(DeleteStmt* stmt) {
  if (!storage_status_.ok()) return storage_status_;
  Table* table = GetMutableTable(stmt->table_name);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt->table_name +
                            "' does not exist");
  }

  // Reuse the SELECT machinery: wrap the WHERE in a single-table SELECT to
  // bind it, then evaluate per row.
  ExecStats local;
  std::vector<size_t> victims;
  if (stmt->where == nullptr) {
    for (size_t row_id = 0; row_id < table->SlotCount(); ++row_id) {
      if (table->IsLive(row_id)) victims.push_back(row_id);
    }
  } else {
    SelectStmt probe;
    TableRef ref;
    ref.table_name = stmt->table_name;
    ref.alias = stmt->table_name;
    probe.from = ArenaVector<TableRef>(&ref, 1);
    SelectItem star;
    star.is_star = true;
    probe.items = ArenaVector<SelectItem>(&star, 1);
    probe.where = std::move(stmt->where);

    Status bind_status = BindDmlProbe(&probe, stmt->arena, &local);
    if (!bind_status.ok()) {
      stmt->where = std::move(probe.where);
      return bind_status;
    }

    // Enumerate matching rows by id (a bespoke loop rather than RunSelect so
    // the victim row ids are known).
    Executor executor(&local, table_slots());
    for (size_t row_id = 0; row_id < table->SlotCount(); ++row_id) {
      if (!table->IsLive(row_id)) continue;
      auto pass = executor.EvalRowPredicate(probe, table->RowAt(row_id));
      if (!pass.ok()) {
        stmt->where = std::move(probe.where);
        return pass.status();
      }
      if (pass.value()) victims.push_back(row_id);
    }
    stmt->where = std::move(probe.where);  // restore for re-execution
  }

  for (size_t row_id : victims) table->Delete(row_id);
  ++local.statements_executed;
  Stripe().Merge(local);
  QueryResult result;
  result.rows_affected = static_cast<int64_t>(victims.size());
  return result;
}

}  // namespace p3pdb::sqldb
