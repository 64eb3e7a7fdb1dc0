// PolicyServer: the server-centric P3P deployment of the paper's §4
// (Figures 5 and 6).
//
// A web site installs its privacy policies (shredded into relational
// tables, Figure 5) and its reference file; user preferences arrive as
// APPEL, are compiled once into the engine's query form, and every page
// request is checked by locating the applicable policy for the URI and
// evaluating the compiled rules in order (Figure 6).
//
// Five engines cover the architecture matrix of Figure 7 and the three
// variations of §4:
//   kNativeAppel  — client-centric baseline: the JRC-style APPEL engine
//                   matching against the policy DOM (specialized engine).
//   kSql          — the proposed system: optimized schema + Figure 15 SQL.
//   kSqlSimple    — pedagogical: Figure 8 schema + Figure 11 SQL.
//   kXQueryNative — APPEL -> XQuery evaluated directly on the XML policy
//                   (native XML store variation).
//   kXQueryXTable — APPEL -> XQuery -> SQL over the simple schema
//                   (XTABLE/XPERANTO variation).
//
// The server also demonstrates the §4.2 advantages: policy versioning in
// the database, and conflict statistics that tell the site owner which
// policies collide with users' preferences.
//
// Thread safety: all public methods are safe to call from multiple threads.
// Installs (InstallPolicy, InstallReferenceFile) take the server mutex
// exclusively; matching, preference compilation, the catalog lookups and
// ConflictReport take it shared and therefore run concurrently. This works
// because every engine's match path is read-only against the database: the
// generated rule queries take the applicable policy id as a bind parameter
// (`?`) instead of joining a materialized one-row ApplicablePolicy table
// (which stays only as a static one-row FROM anchor), the executor
// statistics merge into atomic counters at the Database level, and the
// per-policy conflict counts a match bumps are in-memory atomics in the
// calling thread's stripe.
//
// Caching: repeated (preference, subject) checks — the server-centric load
// of Figure 6 — are memoized in a sharded CLOCK MatchCache keyed by the
// preference fingerprint, the subject (policy id or URI/cookie path), the
// catalog version, and the engine kind. Installs bump the catalog epoch so
// stale entries are never served (versioned invalidation; see
// match_cache.h). A warm hit takes the shared lock, one shard lookup, and
// zero SQL. On by default for every engine (Options::enable_match_cache).
//
// Locking: the main lock is a StripedSharedMutex
// (common/striped_shared_mutex.h), so taking it shared writes only the
// calling thread's stripe; with the cache's striped counters and CLOCK
// bits, a warm hit writes no cache line another thread writes. The lock is
// writer-preferring: no method takes it shared while already holding it.

#ifndef P3PDB_SERVER_POLICY_SERVER_H_
#define P3PDB_SERVER_POLICY_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "appel/engine.h"
#include "appel/model.h"
#include "common/result.h"
#include "common/striped_shared_mutex.h"
#include "common/thread_ordinal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "p3p/policy.h"
#include "p3p/reference_file.h"
#include "server/match_cache.h"
#include "server/match_result.h"
#include "shredder/optimized_schema.h"
#include "shredder/policy_catalog.h"
#include "shredder/reference_schema.h"
#include "shredder/simple_schema.h"
#include "sqldb/database.h"
#include "translator/sql_simple.h"
#include "xml/node.h"
#include "xquery/ast.h"
#include "xquery/translate_appel.h"

namespace p3pdb::server {

class AdminHttpServer;

/// Resolves the fragment of a POLICY-REF `about` URI to a policy name:
/// "/P3P/policies.xml#shopping" -> "shopping"; no fragment -> whole string.
/// A substring of `about` (it lives as long as `about` does), so resolving
/// allocates nothing. Shared with the sharded serving tier, whose shard map
/// hashes this name.
std::string_view AboutToPolicyName(std::string_view about);

/// One PolicyCatalog row, in install order: everything needed to replay the
/// install elsewhere.
struct InstalledPolicyRecord {
  int64_t id = 0;
  std::string name;
  int64_t version = 0;
  std::string text;
};

/// Where category augmentation (base data schema expansion) happens.
enum class Augmentation {
  kAtInstall,  // once, while shredding/storing — the server-centric choice
  kPerMatch,   // on every match — what the JRC client engine does
  kNone,       // skipped entirely (ablation lower bound)
};

/// A preference compiled for a particular engine. Obtain via
/// PolicyServer::CompilePreference; reusable across many matches (the
/// paper's "conversion time" is the cost of building this).
struct CompiledPreference {
  /// Canonical ruleset fingerprint (appel::RulesetFingerprint), the
  /// preference's identity in the match cache. 0 — the value in a
  /// hand-assembled CompiledPreference — means "unknown" and bypasses the
  /// cache entirely, so no two distinct preferences can ever alias.
  uint64_t fingerprint = 0;
  std::string appel_text;                    // kNativeAppel: the client
                                             // engine re-parses this per
                                             // match, as the JRC engine did
  translator::SqlRuleset sql;                // kSql / kSqlSimple /
                                             // kXQueryXTable (its
                                             // XQuery-derived SQL)
  std::vector<sqldb::PreparedStatement> prepared_sql;  // bound rule queries
  xquery::XQueryRuleset xquery_text;         // kXQuery*
  std::vector<xquery::Query> xquery_asts;    // kXQueryNative
};

/// One ConflictReport row: how many matches against one installed policy
/// ended in one behavior.
struct ConflictCount {
  int64_t policy_id = 0;
  std::string behavior;
  uint64_t matches = 0;

  bool operator==(const ConflictCount&) const = default;
};

class PolicyServer {
 public:
  struct Options {
    EngineKind engine = EngineKind::kSql;
    Augmentation augmentation = Augmentation::kAtInstall;
    /// Statement complexity budget of the underlying database (models the
    /// fixed budget that made DB2 reject XTABLE's Medium translation).
    int max_subquery_depth = 32;
    /// Run the database's rule-based planner (EXISTS decorrelation into
    /// hash semi/anti-joins) and its plan cache. Defaults from the
    /// P3PDB_NO_PLANNER environment variable so whole harnesses can be
    /// flipped without code changes; benches pass it explicitly for the
    /// `--no-planner` ablation.
    bool enable_planner = sqldb::PlannerEnabledFromEnv();
    /// No effect; set only by perfbench's model servers.
    bool enable_vectorized_executor = false;
    /// Maintain the database's statistics catalog (row counts, NDV
    /// sketches, min/max, null fractions) and let the cost model moderate
    /// the rule planner (build-side estimates, EXISTS rewrite vetoes,
    /// cheapest-build-first join ordering, index-vs-seq choice). Defaults
    /// from the P3PDB_NO_COST environment variable, so the bench/CI
    /// ablations flip it the way they flip the planner.
    bool enable_cost_model = sqldb::CostModelEnabledFromEnv();
    /// The plan cache the database shares with other servers' (the serving
    /// tier hands one to all of its replicas; see sqldb/plan_cache.h).
    /// Null = a private cache.
    std::shared_ptr<sqldb::PlanCache> plan_cache;
    /// Bind the translated rule queries once at CompilePreference time and
    /// reuse them across matches. Off by default to mirror the paper's
    /// methodology (SQL text was submitted to DB2 for every match, and
    /// "query time" includes the database's prepare); turning it on is the
    /// modern deployment choice and cuts match latency further.
    bool use_prepared_statements = false;
    /// Tally counters and latency histograms for matches and compiles into
    /// the server's MetricsRegistry (lock-free on the hot path; see
    /// RenderMetricsText). Off switches even the clock reads off.
    bool collect_metrics = true;
    /// Memoize full MatchResults in a sharded CLOCK cache keyed by
    /// (preference fingerprint, subject, catalog version, engine kind);
    /// installs bump the version so stale entries are never served. On by
    /// default.
    /// Benchmarks reproducing the paper's figures turn it off — the paper
    /// restarted DB2 between preferences precisely to defeat caching.
    bool enable_match_cache = true;
    size_t match_cache_shards = 8;
    size_t match_cache_capacity_per_shard = 1024;
    /// Fingerprint every SELECT the database prepares and keep
    /// per-statement aggregates (calls, rows, cache hits, rewrites,
    /// latency percentiles) — the pg_stat_statements view of the match
    /// workload, served at /statements. Off removes even the per-execution
    /// stopwatch read (the steady-state benches turn it off).
    bool enable_statement_stats = true;
    /// Statement executions slower than this (microseconds) are captured
    /// into the slow-query log with bound params and an EXPLAIN ANALYZE
    /// plan. 0 disables slow capture. Requires enable_statement_stats.
    uint64_t slow_query_threshold_us = 0;
    /// Capture every Nth execution of each statement shape as a trace
    /// sample regardless of latency. 0 disables sampling.
    uint32_t trace_sample_every = 0;
    /// Ring capacity of the slow-query/trace-sample log.
    size_t slow_log_capacity = 128;
    /// Serve /metrics, /metrics.json, /statements, /slow, /traces, and
    /// /healthz over an embedded HTTP endpoint on admin_host:admin_port.
    /// Off by default: no socket, no thread, no overhead.
    bool enable_admin_endpoint = false;
    std::string admin_host = "127.0.0.1";
    /// 0 = ephemeral; read the bound port back via admin_port().
    uint16_t admin_port = 0;
    /// Directory for the database's disk-backed storage engine (page-based
    /// checkpoints + write-ahead log; see sqldb/storage.h). Empty — the
    /// default — keeps the server purely in-memory with zero storage
    /// overhead. Non-empty either bootstraps a fresh catalog into the
    /// directory or recovers an existing one: Create() detects a recovered
    /// PolicyCatalog, skips the schema installs, and rebuilds the policy
    /// entries, shredder id sequences, and reference file from the durable
    /// tables. Each InstallPolicy / InstallReferenceFile is one WAL
    /// transaction, so a crash mid-install recovers to "not installed".
    std::string storage_path;
    /// No effect; read only by perfbench's model servers.
    size_t storage_buffer_pool_pages = 64;
    /// No effect; read only by perfbench's model servers. Every commit
    /// fsyncs the WAL.
    bool storage_sync_on_commit = true;
    /// Auto-checkpoint once this many WAL bytes accumulate; 0 disables.
    uint64_t storage_checkpoint_wal_bytes = 4ull << 20;
    bool storage_checkpoint_on_close = true;
    /// WAL group commit: installs stage their commit record under the
    /// exclusive lock but fsync *after releasing it*, joining a
    /// leader/follower queue that coalesces concurrent installs into one
    /// fsync. Durability is unchanged (InstallPolicy still returns only
    /// once its commit record is on disk); what changes is that matches no
    /// longer wait behind an installer's fsync, and N concurrent installers
    /// pay ~1 fsync instead of N.
    bool storage_group_commit = false;
    /// Extra microseconds a group-commit leader waits for followers before
    /// fsyncing; 0 adds no latency.
    uint64_t storage_group_commit_window_us = 0;
    /// File-backend factory for storage files; null = plain POSIX files.
    /// The kill-and-recover harness injects fault backends here.
    sqldb::FileBackendFactory storage_backend_factory;
  };

  /// Creates a server and installs the engine's schemas. With
  /// enable_admin_endpoint set, the admin HTTP server is bound and serving
  /// before Create returns (bind failure fails the Create).
  static Result<std::unique_ptr<PolicyServer>> Create(Options options);

  ~PolicyServer();
  PolicyServer(const PolicyServer&) = delete;
  PolicyServer& operator=(const PolicyServer&) = delete;

  /// Installs (a new version of) a policy. Policies are keyed by their
  /// `name`; re-installing a name creates the next version and future
  /// reference-file resolutions pick it up. Returns the policy id.
  Result<int64_t> InstallPolicy(const p3p::Policy& policy);

  /// Installs the site's reference file (replacing any previous one).
  /// POLICY-REF `about` fragments are resolved against installed policy
  /// names.
  Status InstallReferenceFile(const p3p::ReferenceFile& rf);

  /// Compiles an APPEL preference for this server's engine. For the SQL
  /// engines this is the paper's "conversion" step: translation plus
  /// statement preparation; matches then pay execution cost only.
  ///
  /// Every `trace` parameter below is optional: a null context makes each
  /// instrumentation point a no-op that reads no clock. Here it gets a
  /// `compile-preference` root span with `translate` (one
  /// `translate-rule` child per rule) and `prepare` children.
  Result<CompiledPreference> CompilePreference(
      const appel::AppelRuleset& ruleset, obs::TraceContext* trace = nullptr);

  /// Full pipeline: locate the applicable policy for the URI local path,
  /// then evaluate the compiled preference against it. The trace gets a
  /// `match` root span covering `ref-lookup` and the engine's evaluation
  /// steps — per-rule `rule-query` (with nested sql-parse/sql-bind/
  /// sql-execute) for the SQL engines, or policy-parse/appel-parse plus the
  /// engine's category-augmentation and connective-eval spans for the
  /// native path.
  Result<MatchResult> MatchUri(const CompiledPreference& pref,
                               std::string_view local_path,
                               obs::TraceContext* trace = nullptr) {
    return Match(pref, MatchSubject::kUri, -1, local_path, trace);
  }

  /// Like MatchUri, but resolves the URI of a cookie via the reference
  /// file's COOKIE-INCLUDE/COOKIE-EXCLUDE patterns (§5.5).
  Result<MatchResult> MatchCookie(const CompiledPreference& pref,
                                  std::string_view cookie_path,
                                  obs::TraceContext* trace = nullptr) {
    return Match(pref, MatchSubject::kCookie, -1, cookie_path, trace);
  }

  /// Evaluates the compiled preference against one installed policy
  /// (the paper's experiments match each preference against every policy).
  /// NotFound when the id was never installed.
  Result<MatchResult> MatchPolicyId(const CompiledPreference& pref,
                                    int64_t policy_id,
                                    obs::TraceContext* trace = nullptr) {
    return Match(pref, MatchSubject::kPolicyId, policy_id, {}, trace);
  }

  /// Resolves a POLICY-REF `about` URI (by its fragment name) to the
  /// latest installed policy id; nullopt when unknown. Used by the hybrid
  /// client to pre-resolve its cached reference file.
  std::optional<int64_t> FindPolicyIdByAbout(std::string_view about) const;

  // -- §4.2 extras ---------------------------------------------------------

  /// Latest version number of a named policy (0 if not installed).
  int64_t PolicyVersion(std::string_view name);

  /// XML text of a specific installed version (NotFound if absent).
  Result<std::string> PolicyXml(std::string_view name, int64_t version);

  /// Per-policy behavior counts — what a site owner would study to refine
  /// a conflicting policy. Every match that found a policy, computed or
  /// served from the match cache, counts once; the counts live in memory,
  /// so a disk-backed reopen starts them at zero. Rows ordered by policy id
  /// then behavior, zero counts left out.
  std::vector<ConflictCount> ConflictReport() const;

  /// Ids of installed policies, in install order (ascending).
  std::vector<int64_t> policy_ids() const;

  /// PolicyCatalog rows in install order. Read-only; takes the shared lock.
  Result<std::vector<InstalledPolicyRecord>> InstalledPolicyRecords() const;

  // -- Observability -------------------------------------------------------

  /// Frozen copy of every server instrument (counters such as
  /// p3p_matches_total / p3p_rule_queries_total, histograms such as
  /// p3p_match_duration_us). Lock-free reads of relaxed atomics.
  obs::MetricsSnapshot MetricsSnapshot() const;

  /// Prometheus-style exposition text of the server metrics.
  std::string RenderMetricsText() const;

  /// JSON rendering of the server metrics.
  std::string RenderMetricsJson() const;

  /// JSON array of the top-N statement aggregates, ordered by total time
  /// (what /statements?top=N serves; top=0 = all, empty array when
  /// statement stats are off).
  std::string RenderStatementStatsJson(size_t top) const;

  /// Fixed-width table of the top-N statement aggregates (CI artifacts,
  /// debugging).
  std::string RenderStatementStatsText(size_t top) const;

  /// JSON array of slow-query-log entries of one kind (what /slow and
  /// /traces serve; "[]" when capture is not configured).
  std::string RenderSlowLogJson(obs::SlowQueryEntry::Kind kind) const;

  /// What /healthz serves: catalog epoch, installed-policy count, and
  /// per-match-cache-shard entry counts, so a stuck or lopsided shard is
  /// observable from the probe that used to be a bare 200.
  std::string RenderHealthzJson() const;

  /// Per-statement aggregates of the underlying database.
  const sqldb::StatementStatsRegistry& statement_stats() const {
    return db_.statement_stats();
  }

  /// The slow-query/trace-sample ring, or nullptr when capture is off.
  const obs::SlowQueryLog* slow_log() const { return db_.slow_log(); }

  /// True when the admin endpoint is up; admin_port() is then the bound
  /// port (the actual one when Options::admin_port was 0).
  bool admin_endpoint_running() const;
  uint16_t admin_port() const;

  /// The server's registry, for callers that add their own instruments.
  obs::MetricsRegistry* metrics() { return &metrics_; }

  /// The match-result cache, or nullptr when Options::enable_match_cache
  /// is off. Exposed for tests and hit-rate reporting; the cache is
  /// internally thread-safe.
  const MatchCache* match_cache() const { return match_cache_.get(); }

  /// Current catalog version. Every InstallPolicy/InstallReferenceFile
  /// bumps it; cached URI/cookie results from older versions are
  /// invalidated on their next lookup.
  uint64_t catalog_epoch() const;

  /// The underlying database (for examples, tests, and stats).
  sqldb::Database* database() { return &db_; }

  const Options& options() const { return options_; }

 private:
  explicit PolicyServer(Options options);

  Status Init();
  /// Fresh bootstrap: catalog DDL, engine schemas, ApplicablePolicy anchor.
  Status InitSchema();
  /// Disk-backed reopen: verifies the recovered tables match this engine
  /// configuration and rebuilds all in-memory state from them.
  Status RestoreFromStorage();
  /// Runs `install` under the exclusive lock as one durable unit
  /// (Database::CommitDurably).
  Status InstallDurably(const std::function<Status()>& install);
  Result<int64_t> InstallPolicyLocked(const p3p::Policy& policy);
  Status InstallReferenceFileLocked(const p3p::ReferenceFile& rf);
  bool UsesSqlMatching() const;
  bool UsesSimpleSchema() const;
  Result<int64_t> FindApplicablePolicyId(std::string_view local_path,
                                         bool for_cookie,
                                         obs::TraceContext* trace);
  /// One installed policy and the evidence its engine evaluates: the DOM
  /// (kXQueryNative), or the XML text kNativeAppel re-parses per match (a
  /// client receives XML over the wire, not the site's DOM). The SQL
  /// engines keep neither.
  struct PolicyEntry {
    int64_t id = 0;
    int64_t version = 0;  // the per-name version the id was installed as
    std::unique_ptr<xml::Element> dom;
    std::string text;
  };
  /// Null when the id is not installed.
  const PolicyEntry* FindPolicy(int64_t policy_id) const;
  /// Appends `entry` (already in the catalog), keeping only the evidence
  /// this engine reads of the `dom` the non-SQL engines pass, and gives it
  /// zeroed conflict counts in every stripe.
  void AddPolicy(PolicyEntry entry);
  /// Counts one match against `policy` that ended in `behavior` into the
  /// calling thread's stripe. A behavior outside appel::kBehaviors (only a
  /// hand-assembled CompiledPreference can produce one) is not counted.
  void CountMatch(const PolicyEntry& policy, std::string_view behavior);
  Result<MatchResult> EvaluateAgainstCurrent(const CompiledPreference& pref,
                                             const PolicyEntry& policy,
                                             obs::TraceContext* trace);

  /// The one match pipeline behind MatchPolicyId/MatchUri/MatchCookie:
  /// span, shared lock, the id existence check, match-cache probe,
  /// reference-file resolution for URI/cookie subjects, evaluation, the
  /// conflict count (a hit or a computed match that found a policy),
  /// memoization and tally. `policy_id` is read for kPolicyId, `path` for
  /// kUri/kCookie.
  Result<MatchResult> Match(const CompiledPreference& pref,
                            MatchSubject subject, int64_t policy_id,
                            std::string_view path, obs::TraceContext* trace);

  /// Tallies one finished match into the counters/histograms (no-op unless
  /// Options::collect_metrics). `cache_hit` routes the latency into the
  /// p3p_match_cache_{hit,miss}_duration_us histogram as well.
  void TallyMatch(const Result<MatchResult>& result, double elapsed_us,
                  bool cache_hit);

  /// The registry's collector: adds the database's exported executor
  /// counters (sqldb_*), the stats catalog's maintenance tallies, the
  /// storage counters (p3p_storage_*, disk-backed servers only) and
  /// p3p_uptime_seconds to a snapshot, reading each source once.
  void CollectMetrics(obs::MetricsSnapshot* snapshot) const;

  Options options_;
  // Reader/writer: installs lock exclusively; matches, compiles, catalog
  // lookups and ConflictReport lock shared (read-only against db_ and the
  // in-memory maps). Private *Locked helpers assume the caller holds it
  // (either mode); it is never taken shared recursively (see the locking
  // note above).
  mutable StripedSharedMutex mu_;
  sqldb::Database db_;
  shredder::PolicyCatalog catalog_{&db_};
  appel::NativeEngine native_engine_;

  // In install order, which sorts them by id on every engine.
  std::vector<PolicyEntry> policies_;
  // Conflict counts, stripe-major: stripe s holds one dense array of
  // policies_.size() x appel::kBehaviors counts (policy position major),
  // written only by the threads of ThreadStripe() s with relaxed atomic_ref
  // increments under the shared lock, and summed by ConflictReport. Each
  // array starts and ends on a cache-line boundary, so a warm hit writes
  // only its own stripe's lines. Grown by AddPolicy under the exclusive
  // lock.
  struct alignas(64) CountLine {
    static constexpr size_t kCounts = 8;
    uint64_t counts[kCounts] = {};
  };
  mutable std::array<std::vector<CountLine>, kThreadStripes> conflict_counts_;
  /// The count of (policies_[policy], appel::kBehaviors[behavior]) in
  /// `stripe`.
  static std::atomic_ref<uint64_t> ConflictCountRef(
      std::vector<CountLine>& stripe, size_t policy, size_t behavior);
  // Native-path URI resolution; nullopt until one is installed.
  std::optional<p3p::ReferenceFile> reference_file_;

  // Stamps URI/cookie cache entries (guarded by mu_). Policy ids are
  // immutable, so their entries carry the PolicyEntry's version instead and
  // stay valid across later installs.
  uint64_t catalog_epoch_ = 1;
  // Sharded memo cache; internally thread-safe (null when disabled).
  std::unique_ptr<MatchCache> match_cache_;

  // Shredders own their id sequences; ids are unique per server.
  std::unique_ptr<shredder::SimpleShredder> simple_shredder_;
  std::unique_ptr<shredder::OptimizedShredder> optimized_shredder_;
  std::unique_ptr<shredder::ReferenceShredder> reference_shredder_;

  // Admin HTTP endpoint (null unless Options::enable_admin_endpoint).
  // Started last in Init and stopped first in the destructor, so its
  // handlers never see a partially built or partially torn-down server.
  std::unique_ptr<AdminHttpServer> admin_;

  // Uptime baseline for p3p_uptime_seconds (stamped at construction; the
  // collector reports the elapsed time on every snapshot/render).
  std::chrono::steady_clock::time_point start_time_;

  // Server instruments. Registered once in the constructor; every update
  // afterwards is a relaxed atomic op, safe under the shared lock.
  obs::MetricsRegistry metrics_;
  obs::Counter* matches_total_ = nullptr;
  obs::Counter* match_errors_total_ = nullptr;
  obs::Counter* no_policy_total_ = nullptr;
  obs::Counter* rule_queries_total_ = nullptr;
  obs::Counter* compiles_total_ = nullptr;
  obs::Gauge* policies_installed_ = nullptr;
  obs::Histogram* match_us_ = nullptr;
  obs::Histogram* ref_lookup_us_ = nullptr;
  obs::Histogram* compile_us_ = nullptr;
  obs::Histogram* cache_hit_us_ = nullptr;
  obs::Histogram* cache_miss_us_ = nullptr;
};

}  // namespace p3pdb::server

#endif  // P3PDB_SERVER_POLICY_SERVER_H_
