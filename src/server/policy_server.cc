#include "server/policy_server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <shared_mutex>

#include "appel/fingerprint.h"
#include "common/string_util.h"
#include "p3p/augment.h"
#include "p3p/policy_xml.h"
#include "server/admin_http.h"
#include "sqldb/parser.h"
#include "translator/applicable_policy.h"
#include "translator/sql_optimized.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xquery/eval.h"
#include "xquery/parser.h"
#include "xquery/xtable.h"

namespace p3pdb::server {

using shredder::PolicyCatalog;
using sqldb::QueryResult;
using sqldb::Value;

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNativeAppel:
      return "native-appel";
    case EngineKind::kSql:
      return "sql";
    case EngineKind::kSqlSimple:
      return "sql-simple";
    case EngineKind::kXQueryNative:
      return "xquery-native";
    case EngineKind::kXQueryXTable:
      return "xquery-xtable";
  }
  return "?";
}

namespace {

constexpr size_t kBehaviorCount = appel::kBehaviors.size();

/// Microseconds since `start`. Callers read the clock only when
/// collect_metrics is on, so the start point is a plain time_point rather
/// than a Stopwatch (whose constructor always reads the clock).
double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Stamps the outcome onto the root `match` span (no-op when tracing is
/// off or the match failed).
void FinishMatchSpan(obs::ScopedSpan& span,
                     const Result<MatchResult>& result) {
  if (!span.active()) return;
  if (!result.ok()) {
    span.SetAttr("error", result.status().message());
    return;
  }
  const MatchResult& match = result.value();
  span.SetAttr("behavior", match.behavior);
  if (match.policy_found) {
    span.SetAttr("policy-id", std::to_string(match.policy_id));
    if (match.fired_rule_index >= 0) {
      span.SetAttr("rule", std::to_string(match.fired_rule_index));
    }
  }
}

/// The form every engine evaluates: canonicalized, augmented if kAtInstall.
p3p::Policy Canonical(const p3p::Policy& policy, Augmentation augmentation) {
  p3p::Policy canonical = p3p::Canonicalized(policy);
  if (augmentation == Augmentation::kAtInstall) p3p::AugmentPolicy(&canonical);
  return canonical;
}

Status NotInstalled(int64_t policy_id) {
  return Status::NotFound("policy id " + std::to_string(policy_id) +
                          " not installed");
}

}  // namespace

std::string_view AboutToPolicyName(std::string_view about) {
  size_t hash = about.find('#');
  if (hash == std::string_view::npos) return about;
  return about.substr(hash + 1);
}

PolicyServer::PolicyServer(Options options)
    : options_(options),
      db_(sqldb::Database::Options{
          .max_subquery_depth = options.max_subquery_depth,
          .enforce_foreign_keys = true,
          .enable_planner = options.enable_planner,
          .enable_plan_cache = options.enable_planner,
          .plan_cache = options.plan_cache,
          .enable_cost_model = options.enable_cost_model,
          .enable_statement_stats = options.enable_statement_stats,
          .slow_query_threshold_us = options.slow_query_threshold_us,
          .trace_sample_every = options.trace_sample_every,
          .slow_log_capacity = options.slow_log_capacity,
          .storage =
              {.path = options.storage_path,
               .checkpoint_wal_bytes = options.storage_checkpoint_wal_bytes,
               .group_commit = options.storage_group_commit,
               .group_commit_window_us = options.storage_group_commit_window_us,
               .backend_factory = options.storage_backend_factory},
          .storage_checkpoint_on_close = options.storage_checkpoint_on_close}),
      native_engine_(appel::NativeEngine::Options{
          .augment_per_match =
              options.augmentation == Augmentation::kPerMatch}),
      start_time_(std::chrono::steady_clock::now()) {
  // Instruments register once here; the match path then touches them
  // through cached pointers only (relaxed atomics, no registry lock).
  // Build identity: the `_info` idiom (constant labels, value 1).
#ifndef P3PDB_GIT_SHA
#define P3PDB_GIT_SHA "unknown"
#endif
#ifndef P3PDB_BUILD_TYPE
#define P3PDB_BUILD_TYPE "unknown"
#endif
  metrics_.SetInfo("p3p_build_info", {{"git_sha", P3PDB_GIT_SHA},
                                      {"build_type", P3PDB_BUILD_TYPE}});
  matches_total_ = metrics_.GetCounter("p3p_matches_total");
  match_errors_total_ = metrics_.GetCounter("p3p_match_errors_total");
  no_policy_total_ = metrics_.GetCounter("p3p_match_no_policy_total");
  rule_queries_total_ = metrics_.GetCounter("p3p_rule_queries_total");
  compiles_total_ = metrics_.GetCounter("p3p_preference_compiles_total");
  policies_installed_ = metrics_.GetGauge("p3p_policies_installed");
  match_us_ = metrics_.GetHistogram("p3p_match_duration_us");
  ref_lookup_us_ = metrics_.GetHistogram("p3p_ref_lookup_duration_us");
  compile_us_ = metrics_.GetHistogram("p3p_preference_compile_duration_us");
  cache_hit_us_ = metrics_.GetHistogram("p3p_match_cache_hit_duration_us");
  cache_miss_us_ = metrics_.GetHistogram("p3p_match_cache_miss_duration_us");
  // Executor, stats-catalog, storage and uptime values have no
  // instruments: the collector reads them from their sources per snapshot.
  metrics_.AddCollector(
      [this](obs::MetricsSnapshot* snapshot) { CollectMetrics(snapshot); });
  if (options_.enable_match_cache) {
    match_cache_ = std::make_unique<MatchCache>(
        MatchCache::Options{
            .shards = options_.match_cache_shards,
            .capacity_per_shard = options_.match_cache_capacity_per_shard},
        &metrics_);
  }
}

PolicyServer::~PolicyServer() {
  // Stop the admin thread before any member it scrapes is destroyed.
  admin_.reset();
}

Result<std::unique_ptr<PolicyServer>> PolicyServer::Create(Options options) {
  if (options.augmentation == Augmentation::kPerMatch &&
      options.engine != EngineKind::kNativeAppel) {
    return Status::InvalidArgument(
        "per-match augmentation is only meaningful for the native APPEL "
        "engine; SQL engines expand categories while shredding");
  }
  std::unique_ptr<PolicyServer> server(new PolicyServer(options));
  P3PDB_RETURN_IF_ERROR(server->Init());
  return server;
}

bool PolicyServer::UsesSqlMatching() const {
  return options_.engine == EngineKind::kSql ||
         options_.engine == EngineKind::kSqlSimple ||
         options_.engine == EngineKind::kXQueryXTable;
}

bool PolicyServer::UsesSimpleSchema() const {
  return options_.engine == EngineKind::kSqlSimple ||
         options_.engine == EngineKind::kXQueryXTable;
}

Status PolicyServer::Init() {
  // Disk-backed servers surface open/recovery failures at Create time
  // rather than on the first statement.
  P3PDB_RETURN_IF_ERROR(db_.storage_status());
  if (db_.storage_active() && catalog_.Present()) {
    // The storage directory already holds a bootstrapped catalog: rebuild
    // the in-memory server state from it instead of re-installing schemas.
    P3PDB_RETURN_IF_ERROR(RestoreFromStorage());
  } else {
    // Group the bootstrap DDL and the ApplicablePolicy anchor into one WAL
    // transaction: the anchor insert goes through the table directly (no
    // per-statement commit), so without the explicit commit it would stay
    // uncommitted and be dropped by the next recovery.
    P3PDB_RETURN_IF_ERROR(InstallDurably([this] { return InitSchema(); }));
  }
  if (options_.enable_admin_endpoint) {
    AdminHttpServer::Handlers handlers;
    handlers.healthz_json = [this] { return RenderHealthzJson(); };
    handlers.metrics_text = [this] { return RenderMetricsText(); };
    handlers.metrics_json = [this] { return RenderMetricsJson(); };
    handlers.statements_json = [this](size_t top) {
      return RenderStatementStatsJson(top);
    };
    handlers.slow_json = [this] {
      return RenderSlowLogJson(obs::SlowQueryEntry::Kind::kSlow);
    };
    handlers.traces_json = [this] {
      return RenderSlowLogJson(obs::SlowQueryEntry::Kind::kTraceSample);
    };
    P3PDB_ASSIGN_OR_RETURN(
        admin_, AdminHttpServer::Start(
                    std::move(handlers),
                    AdminHttpServer::Options{.host = options_.admin_host,
                                             .port = options_.admin_port}));
  }
  return Status::OK();
}

Status PolicyServer::InitSchema() {
  P3PDB_RETURN_IF_ERROR(catalog_.CreateTables());
  if (UsesSqlMatching()) {
    if (UsesSimpleSchema()) {
      P3PDB_RETURN_IF_ERROR(shredder::InstallSimpleSchema(&db_));
      simple_shredder_ = std::make_unique<shredder::SimpleShredder>(&db_);
    } else {
      P3PDB_RETURN_IF_ERROR(shredder::InstallOptimizedSchema(&db_));
      optimized_shredder_ =
          std::make_unique<shredder::OptimizedShredder>(&db_);
    }
    P3PDB_RETURN_IF_ERROR(shredder::InstallReferenceSchema(&db_));
    reference_shredder_ = std::make_unique<shredder::ReferenceShredder>(&db_);
    P3PDB_RETURN_IF_ERROR(
        db_.ExecuteScript(translator::ApplicablePolicyDdl()));
    // The rule queries bind the policy id and never join ApplicablePolicy;
    // they only need it as a one-row FROM anchor so catch-all rules return
    // a row. Install that anchor once; matches never mutate it.
    sqldb::Table* table =
        db_.GetMutableTable(translator::kApplicablePolicyTable);
    if (table == nullptr) {
      return Status::Internal("ApplicablePolicy table missing");
    }
    P3PDB_RETURN_IF_ERROR(table->Insert({Value::Integer(0)}));
  }
  return Status::OK();
}

Status PolicyServer::RestoreFromStorage() {
  if (UsesSqlMatching()) {
    // Guard against reopening a directory that was bootstrapped under a
    // different engine configuration: the shredded schemas would not match
    // the SQL this engine generates.
    for (const char* name :
         {"Meta", "Policyref", "Include", "Exclude", "CookieInclude",
          "CookieExclude", translator::kApplicablePolicyTable}) {
      if (db_.LookupTable(name) == nullptr) {
        return Status::InvalidArgument(
            "storage at '" + options_.storage_path + "' lacks table '" +
            std::string(name) + "'; created under a different engine?");
      }
    }
    if (UsesSimpleSchema()) {
      for (const sqldb::TableSchema& expected :
           shredder::GenerateSimpleSchema().tables) {
        const sqldb::Table* table = db_.LookupTable(expected.name());
        if (table == nullptr || table->schema().columns().size() !=
                                    expected.columns().size()) {
          return Status::InvalidArgument(
              "storage at '" + options_.storage_path +
              "' does not carry the simple schema (table '" +
              expected.name() + "' missing or mismatched)");
        }
      }
      simple_shredder_ = std::make_unique<shredder::SimpleShredder>(&db_);
      simple_shredder_->ResumeIds();
    } else {
      const sqldb::Table* policy_table = db_.LookupTable("Policy");
      if (policy_table == nullptr ||
          policy_table->schema().columns().size() != 5) {
        return Status::InvalidArgument(
            "storage at '" + options_.storage_path +
            "' does not carry the optimized schema");
      }
      optimized_shredder_ =
          std::make_unique<shredder::OptimizedShredder>(&db_);
      optimized_shredder_->ResumeIds();
    }
    reference_shredder_ = std::make_unique<shredder::ReferenceShredder>(&db_);
    reference_shredder_->ResumeIds();
    // Re-seed the one-row FROM anchor if the directory was written by an
    // older build whose matches rewrote the table and could leave it empty.
    sqldb::Table* anchor =
        db_.GetMutableTable(translator::kApplicablePolicyTable);
    if (anchor->RowCount() == 0) {
      P3PDB_RETURN_IF_ERROR(
          InstallDurably([&] { return anchor->Insert({Value::Integer(0)}); }));
    }
  }

  // Policy catalog -> policy entries. Only the two non-SQL engines parse
  // the catalog's un-augmented XML, to rebuild their evidence exactly as
  // InstallPolicy built it.
  P3PDB_RETURN_IF_ERROR(
      catalog_.Restore([&](const PolicyCatalog::Row& row) -> Status {
        PolicyEntry entry;
        entry.id = row.id;
        entry.version = row.version;
        if (!UsesSqlMatching()) {
          P3PDB_ASSIGN_OR_RETURN(p3p::Policy policy,
                                 p3p::PolicyFromText(row.text));
          entry.dom =
              p3p::PolicyToXml(Canonical(policy, options_.augmentation));
        }
        AddPolicy(std::move(entry));
        return Status::OK();
      }));
  // Reference file: every engine keeps the native copy for URI resolution.
  P3PDB_ASSIGN_OR_RETURN(reference_file_, catalog_.ReferenceFile());
  return Status::OK();
}

Result<std::vector<InstalledPolicyRecord>>
PolicyServer::InstalledPolicyRecords() const {
  std::shared_lock<StripedSharedMutex> lock(mu_);
  std::vector<InstalledPolicyRecord> records;
  P3PDB_RETURN_IF_ERROR(catalog_.Scan([&](const PolicyCatalog::Row& row) {
    records.push_back(
        {row.id, std::string(row.name), row.version, std::string(row.text)});
    return Status::OK();
  }));
  return records;
}

Status PolicyServer::InstallDurably(const std::function<Status()>& install) {
  std::unique_lock<StripedSharedMutex> lock(mu_);
  return db_.CommitDurably(lock, install);
}

Result<int64_t> PolicyServer::InstallPolicy(const p3p::Policy& policy) {
  // One durable unit: every row the shred writes plus the catalog entry
  // commit together, so a crash mid-install recovers to "not installed".
  int64_t policy_id = -1;
  P3PDB_RETURN_IF_ERROR(InstallDurably([&]() -> Status {
    P3PDB_ASSIGN_OR_RETURN(policy_id, InstallPolicyLocked(policy));
    return Status::OK();
  }));
  return policy_id;
}

Result<int64_t> PolicyServer::InstallPolicyLocked(const p3p::Policy& policy) {
  P3PDB_RETURN_IF_ERROR(policy.Validate());
  const p3p::Policy canonical = Canonical(policy, options_.augmentation);

  PolicyEntry entry;
  if (options_.engine == EngineKind::kSql) {
    P3PDB_ASSIGN_OR_RETURN(entry.id,
                           optimized_shredder_->ShredPolicy(canonical));
  } else {
    // Every other engine reads the policy as XML: the simple shredder walks
    // the DOM, and the two non-SQL engines keep it as evidence.
    entry.dom = p3p::PolicyToXml(canonical);
    if (UsesSimpleSchema()) {
      P3PDB_ASSIGN_OR_RETURN(entry.id,
                             simple_shredder_->ShredPolicy(*entry.dom));
    } else {
      entry.id = static_cast<int64_t>(policies_.size()) + 1;
    }
  }

  // The catalog keeps the original, un-augmented text for PolicyXml.
  P3PDB_ASSIGN_OR_RETURN(entry.version, catalog_.Append(entry.id, policy));
  const int64_t policy_id = entry.id;
  AddPolicy(std::move(entry));
  if (UsesSqlMatching() && reference_file_.has_value()) {
    // applicablePolicy() reads Policyref.policy_id: rebind every ref whose
    // `about` now names this install, as the other engines' catalog lookup
    // does at match time.
    for (const p3p::PolicyRef& ref : reference_file_->refs()) {
      if (catalog_.LatestId(AboutToPolicyName(ref.about)) != policy_id) {
        continue;
      }
      P3PDB_RETURN_IF_ERROR(
          db_.Execute("UPDATE Policyref SET policy_id = " +
                      std::to_string(policy_id) +
                      " WHERE about = " + SqlQuote(ref.about))
              .status());
    }
  }
  // Cached URI/cookie results may now be stale (a re-installed name changes
  // what a path resolves to): bump the catalog version. Stale entries are
  // invalidated lazily at their next lookup. Policy-id entries are keyed by
  // this id's immutable (id, version) pair and stay valid.
  ++catalog_epoch_;
  return policy_id;
}

void PolicyServer::AddPolicy(PolicyEntry entry) {
  if (options_.engine == EngineKind::kNativeAppel) {
    entry.text = xml::Write(*entry.dom);
  }
  if (options_.engine != EngineKind::kXQueryNative) entry.dom.reset();
  policies_.push_back(std::move(entry));
  const size_t lines = (policies_.size() * kBehaviorCount +
                        CountLine::kCounts - 1) / CountLine::kCounts;
  for (std::vector<CountLine>& stripe : conflict_counts_) stripe.resize(lines);
  if (options_.collect_metrics) {
    policies_installed_->Set(static_cast<int64_t>(policies_.size()));
  }
}

void PolicyServer::CountMatch(const PolicyEntry& policy,
                              std::string_view behavior) {
  const std::optional<size_t> b = appel::BehaviorIndex(behavior);
  if (!b.has_value()) return;
  ConflictCountRef(conflict_counts_[ThreadStripe()],
                   static_cast<size_t>(&policy - policies_.data()), *b)
      .fetch_add(1, std::memory_order_relaxed);
}

std::atomic_ref<uint64_t> PolicyServer::ConflictCountRef(
    std::vector<CountLine>& stripe, size_t policy, size_t behavior) {
  const size_t slot = policy * kBehaviorCount + behavior;
  return std::atomic_ref<uint64_t>(
      stripe[slot / CountLine::kCounts].counts[slot % CountLine::kCounts]);
}

const PolicyServer::PolicyEntry* PolicyServer::FindPolicy(
    int64_t policy_id) const {
  auto it =
      std::ranges::lower_bound(policies_, policy_id, {}, &PolicyEntry::id);
  return it != policies_.end() && it->id == policy_id ? &*it : nullptr;
}

std::vector<int64_t> PolicyServer::policy_ids() const {
  std::shared_lock<StripedSharedMutex> lock(mu_);
  std::vector<int64_t> ids;
  for (const PolicyEntry& entry : policies_) ids.push_back(entry.id);
  return ids;
}

Status PolicyServer::InstallReferenceFile(const p3p::ReferenceFile& rf) {
  // One durable unit, as in InstallPolicy: the old reference rows' deletes,
  // the reshred, and the RefFileCatalog swap commit together.
  return InstallDurably([&] { return InstallReferenceFileLocked(rf); });
}

Status PolicyServer::InstallReferenceFileLocked(const p3p::ReferenceFile& rf) {
  // Resolve about -> latest installed policy id by fragment name.
  std::map<std::string, int64_t> resolution;
  for (const p3p::PolicyRef& ref : rf.refs()) {
    if (auto id = catalog_.LatestId(AboutToPolicyName(ref.about))) {
      resolution[ref.about] = *id;
    }
  }

  if (UsesSqlMatching()) {
    // Replace any previous reference data.
    for (const char* table : {"Include", "Exclude", "CookieInclude",
                              "CookieExclude", "Policyref", "Meta"}) {
      auto cleared = db_.Execute(std::string("DELETE FROM ") + table);
      if (!cleared.ok()) return cleared.status();
    }
    auto meta = reference_shredder_->ShredReferenceFile(rf, resolution);
    if (!meta.ok()) return meta.status();
  }
  // Persist the reference XML itself so a disk-backed reopen can rebuild
  // the native-path copy (the shredded rows only carry LIKE patterns).
  P3PDB_RETURN_IF_ERROR(catalog_.PutReferenceFile(rf));
  reference_file_ = rf;
  // The path -> policy mapping changed; cached URI/cookie results computed
  // under the previous reference file must never be served again.
  ++catalog_epoch_;
  return Status::OK();
}

Result<CompiledPreference> PolicyServer::CompilePreference(
    const appel::AppelRuleset& ruleset, obs::TraceContext* trace) {
  // Read-only against the server: translation touches no shared state and
  // statement preparation only reads the catalog, so compiles run
  // concurrently with matches and each other.
  std::shared_lock<StripedSharedMutex> lock(mu_);
  obs::ScopedSpan compile_span(trace, "compile-preference");
  if (compile_span.active()) {
    compile_span.SetAttr("engine", EngineKindName(options_.engine));
    compile_span.AddCount("rules", ruleset.rules.size());
  }
  std::chrono::steady_clock::time_point start{};
  if (options_.collect_metrics) start = std::chrono::steady_clock::now();

  P3PDB_RETURN_IF_ERROR(ruleset.Validate());
  CompiledPreference pref;
  // The fingerprint is the preference's identity in the match cache — over
  // every field of the ruleset, so it is the same on every server and
  // engine this preference compiles on.
  pref.fingerprint = appel::RulesetFingerprint(ruleset);
  {
    obs::ScopedSpan translate_span(trace, "translate");
    switch (options_.engine) {
      case EngineKind::kNativeAppel:
        // No compilation in the client-centric model: the engine consumes
        // the APPEL text itself on every match.
        pref.appel_text = appel::RulesetToText(ruleset);
        break;
      case EngineKind::kSql: {
        translator::OptimizedSqlTranslator translator(
            /*parameterized=*/true);
        P3PDB_ASSIGN_OR_RETURN(pref.sql,
                               translator.TranslateRuleset(ruleset, trace));
        break;
      }
      case EngineKind::kSqlSimple: {
        translator::SimpleSqlTranslator translator(
            /*parameterized=*/true);
        P3PDB_ASSIGN_OR_RETURN(pref.sql,
                               translator.TranslateRuleset(ruleset, trace));
        break;
      }
      case EngineKind::kXQueryNative: {
        xquery::AppelToXQueryTranslator translator;
        P3PDB_ASSIGN_OR_RETURN(pref.xquery_text,
                               translator.TranslateRuleset(ruleset));
        for (const std::string& text : pref.xquery_text.rule_queries) {
          P3PDB_ASSIGN_OR_RETURN(xquery::Query q, xquery::ParseQuery(text));
          pref.xquery_asts.push_back(std::move(q));
        }
        break;
      }
      case EngineKind::kXQueryXTable: {
        xquery::AppelToXQueryTranslator to_xq;
        P3PDB_ASSIGN_OR_RETURN(pref.xquery_text,
                               to_xq.TranslateRuleset(ruleset));
        xquery::XTableTranslator to_sql;
        // Like the Figure 11/15 translations, the generated SQL binds the
        // policy id to each `?` and runs through the kSql rule loop.
        pref.sql.behaviors = pref.xquery_text.behaviors;
        for (const std::string& text : pref.xquery_text.rule_queries) {
          // XTABLE consumes the XQuery *text*, so parse then translate —
          // both conversions are part of this path's cost.
          P3PDB_ASSIGN_OR_RETURN(xquery::Query q, xquery::ParseQuery(text));
          P3PDB_ASSIGN_OR_RETURN(std::string sql, to_sql.TranslateQuery(q));
          // Prepare-time validation, as DB2 would do: parse and bind the
          // generated SQL, enforcing the statement complexity budget. This
          // is where the deeply nested Medium translation fails (Figure
          // 21).
          P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<sqldb::Statement> stmt,
                                 sqldb::ParseStatement(sql));
          size_t param_count = 0;
          if (stmt->kind == sqldb::StatementKind::kSelect) {
            auto* select = static_cast<sqldb::SelectStmt*>(stmt.get());
            sqldb::Binder binder(db_, options_.max_subquery_depth);
            P3PDB_RETURN_IF_ERROR(binder.BindSelect(select));
            param_count = select->param_count;
          }
          pref.sql.rule_queries.push_back(std::move(sql));
          pref.sql.param_counts.push_back(param_count);
        }
        break;
      }
    }
  }
  if (options_.use_prepared_statements) {
    obs::ScopedSpan prepare_span(trace, "prepare");
    for (const std::string& sql : pref.sql.rule_queries) {
      P3PDB_ASSIGN_OR_RETURN(sqldb::PreparedStatement stmt, db_.Prepare(sql));
      pref.prepared_sql.push_back(std::move(stmt));
    }
    if (prepare_span.active()) {
      prepare_span.AddCount("statements", pref.prepared_sql.size());
    }
  }
  if (options_.collect_metrics) {
    compiles_total_->Increment();
    compile_us_->Record(static_cast<uint64_t>(MicrosSince(start)));
  }
  return pref;
}

Result<int64_t> PolicyServer::FindApplicablePolicyId(
    std::string_view local_path, bool for_cookie, obs::TraceContext* trace) {
  if (!reference_file_.has_value()) {
    return Status::InvalidArgument("no reference file installed");
  }
  obs::ScopedSpan span(trace, "ref-lookup");
  if (span.active()) {
    span.SetAttr("path", local_path);
    if (for_cookie) span.SetAttr("cookie", "true");
  }
  std::chrono::steady_clock::time_point start{};
  if (options_.collect_metrics) start = std::chrono::steady_clock::now();

  Result<int64_t> id = [&]() -> Result<int64_t> {
    if (UsesSqlMatching()) {
      P3PDB_ASSIGN_OR_RETURN(
          QueryResult result,
          db_.Execute(
              translator::ApplicablePolicyQuery(local_path, for_cookie),
              trace));
      if (result.rows.empty() || result.rows[0][0].is_null()) {
        return int64_t{-1};
      }
      return result.rows[0][0].AsInteger();
    }
    std::optional<size_t> ref =
        for_cookie ? reference_file_->RefIndexForCookie(local_path)
                   : reference_file_->RefIndexForPath(local_path);
    if (!ref.has_value()) return int64_t{-1};
    return catalog_
        .LatestId(AboutToPolicyName(reference_file_->refs()[*ref].about))
        .value_or(-1);
  }();

  if (options_.collect_metrics) {
    ref_lookup_us_->Record(static_cast<uint64_t>(MicrosSince(start)));
  }
  if (span.active() && id.ok()) {
    span.SetAttr("policy-id", std::to_string(id.value()));
  }
  return id;
}

std::optional<int64_t> PolicyServer::FindPolicyIdByAbout(
    std::string_view about) const {
  std::shared_lock<StripedSharedMutex> lock(mu_);
  return catalog_.LatestId(AboutToPolicyName(about));
}

Result<MatchResult> PolicyServer::EvaluateAgainstCurrent(
    const CompiledPreference& pref, const PolicyEntry& policy,
    obs::TraceContext* trace) {
  MatchResult result;
  result.policy_id = policy.id;
  result.behavior = appel::kDefaultBehavior;

  switch (options_.engine) {
    case EngineKind::kNativeAppel: {
      // The client-centric pipeline, per match: parse the policy XML the
      // site served, parse the user's APPEL text, then evaluate (with the
      // engine's per-match augmentation when so configured).
      xml::Document policy_doc;
      {
        obs::ScopedSpan parse_span(trace, "policy-parse");
        P3PDB_ASSIGN_OR_RETURN(policy_doc, xml::Parse(policy.text));
        if (parse_span.active()) {
          parse_span.AddCount("chars", policy.text.size());
        }
      }
      appel::AppelRuleset ruleset;
      {
        obs::ScopedSpan parse_span(trace, "appel-parse");
        P3PDB_ASSIGN_OR_RETURN(ruleset,
                               appel::RulesetFromText(pref.appel_text));
        if (parse_span.active()) {
          parse_span.AddCount("chars", pref.appel_text.size());
        }
      }
      // The engine adds the §6 breakdown: category-augmentation (when
      // configured per match) and connective-eval spans.
      P3PDB_ASSIGN_OR_RETURN(
          appel::MatchOutcome outcome,
          native_engine_.Evaluate(ruleset, *policy_doc.root, trace));
      result.behavior = outcome.behavior;
      result.fired_rule_index = outcome.fired_rule_index;
      break;
    }
    case EngineKind::kSql:
    case EngineKind::kSqlSimple:
    case EngineKind::kXQueryXTable: {
      const bool prepared = !pref.prepared_sql.empty();
      const size_t rule_count = pref.sql.rule_queries.size();
      std::vector<Value> params;  // reused across rules (capacity sticks)
      for (size_t i = 0; i < rule_count; ++i) {
        obs::ScopedSpan rule_span(trace, "rule-query");
        if (rule_span.active()) {
          rule_span.SetAttr("rule", std::to_string(i));
          rule_span.SetAttr("behavior", pref.sql.behaviors[i]);
        }
        // Every `?` of the rule query binds the applicable policy id;
        // catch-all rules take none.
        params.assign(pref.sql.param_counts[i], Value::Integer(policy.id));
        // Without prepared statements (the paper's methodology) the SQL
        // text is submitted to the database for every match; query time
        // includes its prepare.
        P3PDB_ASSIGN_OR_RETURN(
            QueryResult rows,
            prepared ? pref.prepared_sql[i].Execute(params, trace)
                     : db_.Execute(pref.sql.rule_queries[i], params, trace));
        if (options_.collect_metrics) rule_queries_total_->Increment();
        if (rule_span.active()) rule_span.AddCount("rows", rows.rows.size());
        if (!rows.rows.empty()) {
          result.behavior = rows.rows[0][0].AsText();
          result.fired_rule_index = static_cast<int>(i);
          break;
        }
      }
      break;
    }
    case EngineKind::kXQueryNative: {
      for (size_t i = 0; i < pref.xquery_asts.size(); ++i) {
        obs::ScopedSpan rule_span(trace, "rule-query");
        if (rule_span.active()) rule_span.SetAttr("rule", std::to_string(i));
        P3PDB_ASSIGN_OR_RETURN(
            bool fired, xquery::EvalQuery(pref.xquery_asts[i], *policy.dom));
        if (options_.collect_metrics) rule_queries_total_->Increment();
        if (fired) {
          result.behavior = pref.xquery_text.behaviors[i];
          result.fired_rule_index = static_cast<int>(i);
          break;
        }
      }
      break;
    }
  }
  return result;
}

Result<MatchResult> PolicyServer::Match(const CompiledPreference& pref,
                                        MatchSubject subject,
                                        int64_t policy_id,
                                        std::string_view path,
                                        obs::TraceContext* trace) {
  obs::ScopedSpan match_span(trace, "match");
  if (match_span.active()) {
    match_span.SetAttr("engine", EngineKindName(options_.engine));
    if (subject == MatchSubject::kUri) match_span.SetAttr("uri", path);
    if (subject == MatchSubject::kCookie) match_span.SetAttr("cookie", path);
  }
  std::chrono::steady_clock::time_point start{};
  if (options_.collect_metrics) start = std::chrono::steady_clock::now();

  // Matching is read-only for every engine, so matches run concurrently
  // under the shared lock.
  std::shared_lock<StripedSharedMutex> lock(mu_);
  const bool cacheable = match_cache_ != nullptr && pref.fingerprint != 0;
  bool cache_hit = false;
  MatchCacheKey key;
  uint64_t version = 0;
  // The matched policy's entry: found by the id check or the resolution,
  // null after a URI/cookie cache hit.
  const PolicyEntry* policy = nullptr;
  Result<MatchResult> result = [&]() -> Result<MatchResult> {
    if (subject == MatchSubject::kPolicyId) {
      policy = FindPolicy(policy_id);
      if (policy == nullptr) return NotInstalled(policy_id);
    }
    if (cacheable) {
      // Policy ids are immutable (re-installing a name mints a new id), so
      // an id's entry is stamped with its own version and survives
      // unrelated catalog changes.
      version = policy != nullptr ? static_cast<uint64_t>(policy->version)
                                  : catalog_epoch_;
      key = MatchCacheKey{pref.fingerprint, subject, policy_id,
                          std::string(path),
                          static_cast<uint8_t>(options_.engine)};
      std::optional<MatchResult> hit = match_cache_->Lookup(key, version);
      if (match_span.active()) {
        match_span.SetAttr("cache", hit.has_value() ? "hit" : "miss");
      }
      if (hit.has_value()) {
        cache_hit = true;
        return *hit;
      }
    }
    if (subject != MatchSubject::kPolicyId) {
      P3PDB_ASSIGN_OR_RETURN(
          policy_id,
          FindApplicablePolicyId(path, subject == MatchSubject::kCookie,
                                 trace));
      if (policy_id < 0) {
        MatchResult miss;
        miss.behavior = kNoPolicyBehavior;
        miss.policy_found = false;
        return miss;
      }
      policy = FindPolicy(policy_id);
      if (policy == nullptr) return NotInstalled(policy_id);
    }
    return EvaluateAgainstCurrent(pref, *policy, trace);
  }();
  // One count per match that found a policy, computed or cached alike; a
  // URI no policy covers counts nothing.
  if (result.ok() && result.value().policy_found) {
    if (policy == nullptr) policy = FindPolicy(result.value().policy_id);
    if (policy != nullptr) CountMatch(*policy, result.value().behavior);
  }
  // Errors are not memoized: they describe the attempt, not the catalog.
  if (cacheable && !cache_hit && result.ok()) {
    match_cache_->Insert(key, version, result.value());
  }
  FinishMatchSpan(match_span, result);
  if (options_.collect_metrics) {
    TallyMatch(result, MicrosSince(start), cache_hit);
  }
  return result;
}

uint64_t PolicyServer::catalog_epoch() const {
  std::shared_lock<StripedSharedMutex> lock(mu_);
  return catalog_epoch_;
}

void PolicyServer::TallyMatch(const Result<MatchResult>& result,
                              double elapsed_us, bool cache_hit) {
  matches_total_->Increment();
  match_us_->Record(static_cast<uint64_t>(elapsed_us));
  obs::Histogram* bucket = cache_hit ? cache_hit_us_ : cache_miss_us_;
  if (match_cache_ != nullptr && bucket != nullptr) {
    bucket->Record(static_cast<uint64_t>(elapsed_us));
  }
  if (!result.ok()) {
    match_errors_total_->Increment();
  } else if (!result.value().policy_found) {
    no_policy_total_->Increment();
  }
}

void PolicyServer::CollectMetrics(obs::MetricsSnapshot* snapshot) const {
  auto& counters = snapshot->counters;
  const sqldb::ExecStats exec = db_.stats();
  for (const sqldb::ExecStatsField& field : sqldb::kExecStatsFields) {
    if (field.metric != nullptr) counters[field.metric] = exec.*field.member;
  }
  const sqldb::StatsCounters catalog = db_.stats_catalog().counters();
  counters["sqldb_stats_updates_total"] = catalog.updates;
  counters["sqldb_stats_rebuilds_total"] = catalog.rebuilds;
  counters["sqldb_stats_epoch_bumps_total"] = catalog.epoch_bumps;
  if (!options_.storage_path.empty()) {
    const sqldb::StorageStats storage = db_.storage_stats();
    counters["p3p_storage_wal_records_total"] = storage.wal_records;
    counters["p3p_storage_wal_commits_total"] = storage.wal_commits;
    counters["p3p_storage_wal_syncs_total"] = storage.wal_syncs;
    counters["p3p_storage_wal_group_syncs_total"] = storage.wal_group_syncs;
    counters["p3p_storage_wal_bytes_total"] = storage.wal_bytes;
    counters["p3p_storage_checkpoints_total"] = storage.checkpoints;
    counters["p3p_storage_recovered_txns_total"] = storage.recovered_txns;
  }
  snapshot->gauges["p3p_uptime_seconds"] =
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count();
}

obs::MetricsSnapshot PolicyServer::MetricsSnapshot() const {
  return metrics_.Snapshot();
}

std::string PolicyServer::RenderMetricsText() const {
  return metrics_.RenderText();
}

std::string PolicyServer::RenderMetricsJson() const {
  return metrics_.RenderJson();
}

std::string PolicyServer::RenderStatementStatsJson(size_t top) const {
  return db_.statement_stats().RenderJson(top);
}

std::string PolicyServer::RenderStatementStatsText(size_t top) const {
  return db_.statement_stats().RenderText(top);
}

std::string PolicyServer::RenderSlowLogJson(
    obs::SlowQueryEntry::Kind kind) const {
  const obs::SlowQueryLog* log = db_.slow_log();
  if (log == nullptr) return "[]\n";
  return log->RenderJson(kind);
}

std::string PolicyServer::RenderHealthzJson() const {
  std::shared_lock<StripedSharedMutex> lock(mu_);
  std::string out = "{\"status\":\"ok\",\"catalog_epoch\":" +
                    std::to_string(catalog_epoch_) +
                    ",\"policies\":" + std::to_string(policies_.size()) +
                    ",\"match_cache_shards\":[";
  if (match_cache_ != nullptr) {
    for (size_t shard = 0; shard < match_cache_->shard_count(); ++shard) {
      if (shard > 0) out += ',';
      out += "{\"shard\":" + std::to_string(shard) + ",\"entries\":" +
             std::to_string(match_cache_->ShardStats(shard).entries) + "}";
    }
  }
  out += "]}\n";
  return out;
}

bool PolicyServer::admin_endpoint_running() const { return admin_ != nullptr; }

uint16_t PolicyServer::admin_port() const {
  return admin_ == nullptr ? 0 : admin_->port();
}

int64_t PolicyServer::PolicyVersion(std::string_view name) {
  std::shared_lock<StripedSharedMutex> lock(mu_);
  return catalog_.LatestVersion(name);
}

Result<std::string> PolicyServer::PolicyXml(std::string_view name,
                                            int64_t version) {
  std::shared_lock<StripedSharedMutex> lock(mu_);
  return catalog_.PolicyXml(name, version);
}

std::vector<ConflictCount> PolicyServer::ConflictReport() const {
  // Shared: the counts' layout only changes under the exclusive lock, and
  // concurrent matches increment them atomically.
  std::shared_lock<StripedSharedMutex> lock(mu_);
  std::vector<ConflictCount> rows;
  for (size_t i = 0; i < policies_.size(); ++i) {
    for (size_t b = 0; b < kBehaviorCount; ++b) {
      uint64_t matches = 0;
      for (std::vector<CountLine>& stripe : conflict_counts_) {
        matches +=
            ConflictCountRef(stripe, i, b).load(std::memory_order_relaxed);
      }
      if (matches > 0) {
        rows.push_back(
            {policies_[i].id, std::string(appel::kBehaviors[b]), matches});
      }
    }
  }
  return rows;
}

}  // namespace p3pdb::server
