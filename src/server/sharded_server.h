// ShardedPolicyServer: the scale-out serving tier over N PolicyServer
// shards, built for the deployment shape the paper's server-centric
// architecture implies — one shared matching service fielding match traffic
// from many clients while sites keep (re)installing policies.
//
// Why not one PolicyServer? Its single reader-writer lock means every install
// stalls the entire match fleet for the install's full duration (shred +
// WAL fsync). Here, policy state is partitioned by policy-name hash into N
// catalog shards, and each shard serves matches from one of two replicas
// while installs go to the other:
//
//   - Each shard owns two in-memory PolicyServer replicas (A/B). At any
//     moment one replica is *published*: Shard::published holds its index,
//     and a match acquire-loads that index and calls the replica, whose own
//     StripedSharedMutex (shared for matches, exclusive for installs) is the
//     only lock the match takes. The other replica is the *spare*, which
//     readers that load the index after a publish never reach.
//   - An install (serialized per shard by install_mu) first commits to the
//     durable store, then runs in lockstep: it installs the policy into the
//     spare, release-stores the spare's index (the publish), and installs
//     the same policy into the replica the publish retired. That last
//     install takes the retired replica's exclusive lock, so it waits for
//     the matches still running there (~0.3 us for a warm hit, tens of us
//     for a cold match) and holds off a match that loaded the old index
//     just before the publish until the replica has the policy too. The
//     policy is served after one replica install.
//   - Invariant: whenever a shard's install_mu is free, both its replicas
//     hold the same policies under the same local ids (unless the shard is
//     poisoned, see Shard::poisoned).
//   - Every replica install is atomic under the replica's exclusive lock,
//     so a match, which runs under the shared lock, sees a policy either
//     entirely installed or not at all. The replica's catalog, its
//     MatchCache and its statement stats are per-shard, so a match-cache
//     hit shares no lock with other shards, and matches on the same shard
//     share only that replica's (never exclusively held while published)
//     StripedSharedMutex and its internally sharded cache. A warm hit, by
//     id or by URI, writes only per-thread stripes — shared locks, cache
//     bits and counters — and allocates nothing.
//   - The one thing every replica shares is the plan cache
//     (sqldb/plan_cache.h): all 2 x N replicas are members of one
//     sqldb::PlanCache, so a rule query any shard has planned is a plan
//     hit on every shard. Plans name tables by catalog slot and keep their
//     runtime state (hash-join key sets, statement-stats entries) per
//     replica, so a shared plan runs against each replica's own rows. A
//     match-cache miss that runs rule queries takes one lock per query, on
//     the cache stripe of the query's text.
//
// URI resolution: the reference file lives in a tier-wide directory
// snapshot next to an id vector holding, per POLICY-REF, the latest global
// id of the policy its `about` names (-1 while none is installed). A URI or
// cookie match takes directory_mu_ shared, finds the ref's index through
// the reference file's prefix index, reads the id and releases the lock;
// from there it is a MatchPolicyId. No policy name is extracted, hashed or
// looked up per match. The ids stay current because an install whose
// policy some ref names republishes the directory (the same shared
// reference file, a copied id vector) after its shard publishes and before
// it returns; a reference-file install resolves every ref from the shards.
// A republish builds the new snapshot outside directory_mu_ and swaps it in
// under the exclusive lock, so readers wait at most for the swap.
// Lock order: a shard's install_mu, then directory_install_mu_, then
// directory_mu_. No thread takes any of these while it holds a replica's
// lock or directory_mu_.
//
// Epoch publication: every publish carries the tier-wide epoch it happened
// at (Shard::epoch, /healthz). A directory republish is part of its
// install's publication and takes no epoch of its own, so catalog_epoch()
// rises by exactly one per install (the torn-epoch test in
// serving_tier_test.cc hammers one name's installs under matchers).
//
// Ids: a shard's replicas assign local policy ids deterministically (both
// install the identical policy sequence), and the tier exposes
// global = local * num_shards + shard, so routing a global id back to its
// shard is a modulo, no map lookup on the hot path.
//
// Durability: the *durable store* is a shredder::PolicyCatalog over a
// disk-backed sqldb::Database of the tier's own: one catalog row per
// install and the reference file, no shredded tables and no policy
// evidence. Its WAL runs group commit, so concurrent installs to different
// shards coalesce their fsyncs. Create() on an existing directory replays
// the catalog rows in install order through the same routing, parsing each
// policy once, and so reproduces the shard contents and global ids exactly.

#ifndef P3PDB_SERVER_SHARDED_SERVER_H_
#define P3PDB_SERVER_SHARDED_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/striped_shared_mutex.h"
#include "obs/metrics.h"
#include "p3p/policy.h"
#include "p3p/reference_file.h"
#include "server/match_result.h"
#include "server/policy_server.h"
#include "shredder/policy_catalog.h"

namespace p3pdb::server {

class ShardedPolicyServer {
 public:
  struct Options {
    /// Number of catalog shards (policy-name hash partitions).
    size_t shards = 4;
    /// Engine of every replica; any of the five, since every engine's
    /// match is read-only.
    EngineKind engine = EngineKind::kSql;
    bool enable_planner = sqldb::PlannerEnabledFromEnv();
    /// No effect; set only by perfbench's model servers.
    bool enable_vectorized_executor = false;
    bool enable_cost_model = sqldb::CostModelEnabledFromEnv();
    /// Per-replica match caches (so caching, like matching, is per-shard).
    bool enable_match_cache = true;
    size_t match_cache_shards = 4;
    size_t match_cache_capacity_per_shard = 1024;
    /// Per-replica statement-stats registries (per-shard pg_stat_statements;
    /// served aggregated at /statements). Off by default for lean replicas.
    bool enable_statement_stats = false;
    /// Tier gauges/counters (p3p_shard_*) in the tier registry.
    bool collect_metrics = true;
    /// Directory for the durable store. Empty = no durability (bench and
    /// test use); non-empty opens or recovers it at Create.
    std::string storage_path;
    /// No effect; read only by perfbench's model servers.
    size_t storage_buffer_pool_pages = 64;
    /// No effect; read only by perfbench's model servers.
    bool storage_sync_on_commit = true;
    uint64_t storage_checkpoint_wal_bytes = 4ull << 20;
    bool storage_checkpoint_on_close = true;
    /// Group commit for the durable store — the default here, unlike the
    /// single server: concurrent installs to different shards are exactly
    /// the traffic whose fsyncs coalesce.
    bool storage_group_commit = true;
    uint64_t storage_group_commit_window_us = 0;
    /// Serve /healthz, /metrics, /metrics.json, /statements over the
    /// embedded admin endpoint (same URL map as PolicyServer's).
    bool enable_admin_endpoint = false;
    std::string admin_host = "127.0.0.1";
    uint16_t admin_port = 0;
  };

  static Result<std::unique_ptr<ShardedPolicyServer>> Create(Options options);

  ~ShardedPolicyServer();
  ShardedPolicyServer(const ShardedPolicyServer&) = delete;
  ShardedPolicyServer& operator=(const ShardedPolicyServer&) = delete;

  /// Installs (a new version of) a policy into its name's shard. Returns
  /// the global policy id. Validation first (an invalid policy fails here
  /// and touches no shard), then the durable-store commit, then epoch
  /// publication — a policy is never served before it is durable.
  Result<int64_t> InstallPolicy(const p3p::Policy& policy);

  /// Installs the site's reference file (tier-wide: URI resolution is a
  /// directory concern, not a shard concern). Published atomically as a new
  /// directory snapshot.
  Status InstallReferenceFile(const p3p::ReferenceFile& rf);

  /// Compiles a preference once for the whole tier. The compiled form is
  /// database-independent for every supported engine (SQL text, XQuery
  /// ASTs, or APPEL text), so one compile serves matches on every shard.
  Result<CompiledPreference> CompilePreference(
      const appel::AppelRuleset& ruleset);

  /// Evaluates against one installed policy by global id. Hot path: one
  /// index load + the published replica's shared-mode match; no tier lock,
  /// no exclusive lock, no reference count anywhere.
  Result<MatchResult> MatchPolicyId(const CompiledPreference& pref,
                                    int64_t global_policy_id);

  /// Full pipeline: the directory snapshot resolves the URI to the latest
  /// global id of the policy covering it, then MatchPolicyId evaluates it.
  /// One snapshot and one replica, each read under its shared lock, so the
  /// observation is torn-free at both levels.
  Result<MatchResult> MatchUri(const CompiledPreference& pref,
                               std::string_view local_path);

  /// Like MatchUri via the reference file's COOKIE-* patterns.
  Result<MatchResult> MatchCookie(const CompiledPreference& pref,
                                  std::string_view cookie_path);

  /// Resolves a POLICY-REF `about` to the latest global policy id.
  std::optional<int64_t> FindPolicyIdByAbout(std::string_view about) const;

  size_t shard_count() const { return shards_.size(); }
  /// Installed policies in one shard's published replica.
  size_t ShardPolicyCount(size_t shard) const;
  /// Publications (installs) a shard has performed.
  uint64_t ShardPublishes(size_t shard) const;
  /// Tier-wide publication epoch: bumped by every shard publish and every
  /// reference-file install.
  uint64_t catalog_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Installed global ids, grouped by shard and in install order within
  /// each shard (holds one published replica's shared lock at a time).
  std::vector<int64_t> GlobalPolicyIds() const;

  /// PolicyServer::ConflictReport over the whole tier, by global id. A
  /// match counts in the replica it ran on, so each shard's two replicas
  /// are summed (one replica's shared lock at a time). Ordered by global
  /// id then behavior, zero counts left out.
  std::vector<ConflictCount> ConflictReport() const;

  // -- Observability -------------------------------------------------------

  /// Tier health: epoch plus per-shard policy counts, publish counts, and
  /// match tallies — what /healthz serves, so a stuck shard is visible.
  std::string RenderHealthzJson() const;

  /// Also exports the shared plan cache (p3p_plan_cache_hits_total,
  /// _misses_total, _plans_built_total, _evictions_total and the
  /// p3p_plan_cache_entries gauge) when collect_metrics is on.
  std::string RenderMetricsText() const;
  std::string RenderMetricsJson() const;
  /// JSON object mapping "shard_<k>" to that replica's statement-stats
  /// array ("{}" sans statement stats).
  std::string RenderStatementStatsJson(size_t top) const;

  obs::MetricsRegistry* metrics() { return &metrics_; }
  /// The plan cache every replica shares: shards x the single-database
  /// default capacity (sqldb::Database::Options::plan_cache_capacity).
  const sqldb::PlanCache& plan_cache() const { return *plan_cache_; }
  bool admin_endpoint_running() const { return admin_ != nullptr; }
  uint16_t admin_port() const;

  /// The durable store (nullptr without storage_path); tests and the
  /// benchmark read its database's storage stats to count coalesced fsyncs.
  shredder::PolicyCatalog* durable_store() { return durable_.get(); }

  const Options& options() const { return options_; }

 private:
  /// URI/cookie resolution state, tier-wide, replaced whole on every
  /// reference install and on every install of a policy some ref names.
  /// Matches resolve against one directory snapshot, never a half-replaced
  /// reference file.
  struct DirectorySnapshot {
    /// Shared by every snapshot of one reference-file install.
    std::shared_ptr<const p3p::ReferenceFile> rf;
    /// One entry per rf->refs(): the latest global id of the policy the
    /// ref's `about` names, or -1 while none is installed.
    std::vector<int64_t> ids;
  };

  struct Shard {
    /// Serializes installs to this shard (matches never take it).
    std::mutex install_mu;
    std::unique_ptr<PolicyServer> replicas[2];
    /// Which replica matches read: release-stored by the installer once
    /// the spare holds the new policy, acquire-loaded by every match.
    std::atomic<int> published{0};
    /// The tier epoch of the shard's latest publish.
    std::atomic<uint64_t> epoch{1};
    std::atomic<size_t> policies{0};  // installed in each replica
    /// Sticky failure: a replica that diverged mid-install (durable store
    /// has the policy, the replica does not) poisons the shard rather than
    /// serving a catalog that disagrees with disk. Guarded by install_mu.
    Status poisoned = Status::OK();
    /// Set with `poisoned` and never cleared, so /healthz reads it without
    /// waiting for a running install.
    std::atomic<bool> is_poisoned{false};
    std::atomic<uint64_t> publishes{0};
    // Tier instruments (null when collect_metrics is off).
    obs::Counter* matches_total = nullptr;
    obs::Gauge* policies_gauge = nullptr;
    obs::Gauge* epoch_gauge = nullptr;

    PolicyServer& Published() const {
      return *replicas[published.load(std::memory_order_acquire)];
    }
  };

  explicit ShardedPolicyServer(Options options);

  Status Init();
  Result<std::unique_ptr<PolicyServer>> MakeReplica() const;
  size_t ShardOf(std::string_view policy_name) const;
  /// Runs `write` against the durable catalog as one WAL transaction
  /// (Database::CommitDurably under durable_mu_).
  Status WriteDurably(const std::function<Status()>& write);
  /// The install path shared by InstallPolicy and recovery replay: assumes
  /// shard.install_mu is held and the durable store (if any) already has
  /// the policy. Installs it into the spare, publishes the spare, then
  /// installs it into the replica the publish retired (waiting for the
  /// matches still on it), so both replicas agree again before install_mu
  /// is released. Either replica failing
  /// poisons the shard and fails this install.
  Result<int64_t> ApplyAndPublish(Shard& shard, const p3p::Policy& policy);
  /// Publishes `rf` with every ref's id resolved from the shards, at a new
  /// epoch. Assumes directory_install_mu_ is held.
  void PublishDirectory(const p3p::ReferenceFile& rf);
  /// Swaps `next` in as the directory under directory_mu_'s exclusive lock
  /// and destroys the old snapshot after releasing it. Assumes
  /// directory_install_mu_ is held.
  void SwapDirectory(DirectorySnapshot next);
  /// After an install of `policy_name` (now `global_id`): republishes the
  /// directory with that id in every ref naming the policy; a no-op when
  /// none does. Part of the install's publication, so it takes no epoch of
  /// its own. Takes directory_install_mu_, so the caller may hold a
  /// shard's install_mu.
  void RepublishDirectory(std::string_view policy_name, int64_t global_id);
  Result<MatchResult> MatchResolved(const CompiledPreference& pref,
                                    std::string_view path, bool for_cookie);
  /// Global id of shard `k`'s local id: local_id * shards + k.
  int64_t GlobalId(int64_t local_id, size_t k) const {
    return local_id * static_cast<int64_t>(shards_.size()) +
           static_cast<int64_t>(k);
  }

  Options options_;
  std::shared_ptr<sqldb::PlanCache> plan_cache_;  // every replica's
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Serializes directory publications: reference-file installs (so durable
  /// order and published order agree) and install-time republishes. A
  /// publisher reads directory_ under this mutex alone.
  mutable std::mutex directory_install_mu_;
  /// Shared by URI/cookie matches, exclusive for the swap of directory_.
  mutable StripedSharedMutex directory_mu_;
  std::shared_ptr<const DirectorySnapshot> directory_;  // null until an rf
  std::atomic<uint64_t> epoch_{1};
  std::unique_ptr<sqldb::Database> durable_db_;
  std::unique_ptr<shredder::PolicyCatalog> durable_;  // over durable_db_
  /// Serializes durable-store writes; released before a commit's fsync.
  std::mutex durable_mu_;
  obs::MetricsRegistry metrics_;
  obs::Counter* matches_total_ = nullptr;
  obs::Counter* no_policy_total_ = nullptr;
  obs::Counter* installs_total_ = nullptr;
  std::unique_ptr<AdminHttpServer> admin_;
};

}  // namespace p3pdb::server

#endif  // P3PDB_SERVER_SHARDED_SERVER_H_
