#include "server/sharded_server.h"

#include <functional>
#include <map>
#include <shared_mutex>
#include <utility>

#include "p3p/policy_xml.h"
#include "server/admin_http.h"

namespace p3pdb::server {

ShardedPolicyServer::ShardedPolicyServer(Options options)
    : options_(std::move(options)) {}

ShardedPolicyServer::~ShardedPolicyServer() {
  // The admin thread's handlers walk the shards; stop it before anything
  // else unwinds.
  admin_.reset();
}

Result<std::unique_ptr<ShardedPolicyServer>> ShardedPolicyServer::Create(
    Options options) {
  if (options.shards == 0) {
    return Status::InvalidArgument("sharded tier needs at least one shard");
  }
  std::unique_ptr<ShardedPolicyServer> tier(
      new ShardedPolicyServer(std::move(options)));
  P3PDB_RETURN_IF_ERROR(tier->Init());
  return tier;
}

Result<std::unique_ptr<PolicyServer>> ShardedPolicyServer::MakeReplica()
    const {
  PolicyServer::Options o;
  o.engine = options_.engine;
  o.enable_planner = options_.enable_planner;
  o.enable_cost_model = options_.enable_cost_model;
  o.enable_match_cache = options_.enable_match_cache;
  o.match_cache_shards = options_.match_cache_shards;
  o.match_cache_capacity_per_shard = options_.match_cache_capacity_per_shard;
  o.enable_statement_stats = options_.enable_statement_stats;
  o.plan_cache = plan_cache_;
  // Replicas are purely in-memory evaluation engines: durability lives in
  // the tier's durable store, telemetry in the tier registry.
  o.collect_metrics = false;
  o.enable_admin_endpoint = false;
  return PolicyServer::Create(std::move(o));
}

Status ShardedPolicyServer::Init() {
  // What the replicas' private caches held between them before they shared
  // one: a published replica per shard, each with the default capacity.
  plan_cache_ = std::make_shared<sqldb::PlanCache>(
      options_.shards * sqldb::Database::Options{}.plan_cache_capacity);
  shards_.reserve(options_.shards);
  for (size_t k = 0; k < options_.shards; ++k) {
    auto shard = std::make_unique<Shard>();
    for (std::unique_ptr<PolicyServer>& replica : shard->replicas) {
      P3PDB_ASSIGN_OR_RETURN(replica, MakeReplica());
    }
    if (options_.collect_metrics) {
      const std::string prefix = "p3p_shard_" + std::to_string(k);
      shard->matches_total = metrics_.GetCounter(prefix + "_matches_total");
      shard->policies_gauge = metrics_.GetGauge(prefix + "_policies");
      shard->epoch_gauge = metrics_.GetGauge(prefix + "_epoch");
      shard->epoch_gauge->Set(1);
    }
    shards_.push_back(std::move(shard));
  }
  if (options_.collect_metrics) {
    matches_total_ = metrics_.GetCounter("p3p_matches_total");
    no_policy_total_ = metrics_.GetCounter("p3p_no_policy_total");
    installs_total_ = metrics_.GetCounter("p3p_installs_total");
    metrics_.GetGauge("p3p_tier_shards")
        ->Set(static_cast<int64_t>(options_.shards));
    metrics_.AddCollector([this](obs::MetricsSnapshot* snapshot) {
      const sqldb::PlanCacheStats plans = plan_cache_->stats();
      auto& counters = snapshot->counters;
      counters["p3p_plan_cache_hits_total"] = plans.hits;
      counters["p3p_plan_cache_misses_total"] = plans.misses;
      counters["p3p_plan_cache_plans_built_total"] = plans.plans_built;
      counters["p3p_plan_cache_evictions_total"] = plans.evictions;
      snapshot->gauges["p3p_plan_cache_entries"] =
          static_cast<int64_t>(plans.entries);
    });
  }

  if (!options_.storage_path.empty()) {
    // The durable store is the policy catalog alone, in a database of its
    // own: the WAL-backed system of record, whose group commit coalesces
    // cross-shard install fsyncs. It serves no traffic.
    sqldb::Database::Options db;
    db.storage.path = options_.storage_path;
    db.storage.checkpoint_wal_bytes = options_.storage_checkpoint_wal_bytes;
    db.storage.group_commit = options_.storage_group_commit;
    db.storage.group_commit_window_us = options_.storage_group_commit_window_us;
    db.storage_checkpoint_on_close = options_.storage_checkpoint_on_close;
    durable_db_ = std::make_unique<sqldb::Database>(std::move(db));
    P3PDB_RETURN_IF_ERROR(durable_db_->storage_status());
    durable_ = std::make_unique<shredder::PolicyCatalog>(durable_db_.get());
    if (!durable_->Present()) {
      P3PDB_RETURN_IF_ERROR(
          WriteDurably([this] { return durable_->CreateTables(); }));
    }

    // Recovery replay (nothing on a fresh directory): the catalog rows,
    // parsed once and re-routed through the same shard map, reproduce
    // every replica and every global id (the routing hash and the
    // replicas' id sequences are deterministic).
    P3PDB_RETURN_IF_ERROR(
        durable_->Restore([this](const shredder::PolicyCatalog::Row& row) {
          P3PDB_ASSIGN_OR_RETURN(p3p::Policy policy,
                                 p3p::PolicyFromText(row.text));
          // No directory is published yet, so replay republishes none; the
          // reference file's ids are resolved once, after the whole replay.
          Shard& shard = *shards_[ShardOf(policy.name)];
          std::lock_guard<std::mutex> lock(shard.install_mu);
          return ApplyAndPublish(shard, policy).status();
        }));
    P3PDB_ASSIGN_OR_RETURN(std::optional<p3p::ReferenceFile> rf,
                           durable_->ReferenceFile());
    if (rf.has_value()) {
      std::lock_guard<std::mutex> lock(directory_install_mu_);
      PublishDirectory(*rf);
    }
  }

  if (options_.enable_admin_endpoint) {
    AdminHttpServer::Handlers handlers;
    handlers.healthz_json = [this] { return RenderHealthzJson(); };
    handlers.metrics_text = [this] { return RenderMetricsText(); };
    handlers.metrics_json = [this] { return RenderMetricsJson(); };
    handlers.statements_json = [this](size_t top) {
      return RenderStatementStatsJson(top);
    };
    AdminHttpServer::Options admin_options;
    admin_options.host = options_.admin_host;
    admin_options.port = options_.admin_port;
    P3PDB_ASSIGN_OR_RETURN(
        admin_, AdminHttpServer::Start(std::move(handlers), admin_options));
  }
  return Status::OK();
}

size_t ShardedPolicyServer::ShardOf(std::string_view policy_name) const {
  return std::hash<std::string_view>{}(policy_name) % shards_.size();
}

Result<int64_t> ShardedPolicyServer::ApplyAndPublish(
    Shard& shard, const p3p::Policy& policy) {
  if (!shard.poisoned.ok()) return shard.poisoned;
  // The durable store (when present) already committed this policy; a
  // replica that cannot install it would serve a catalog disagreeing with
  // disk. Refuse the shard until a restart replays cleanly.
  auto install = [&](PolicyServer& replica) {
    Result<int64_t> installed = replica.InstallPolicy(policy);
    if (!installed.ok()) {
      shard.poisoned = installed.status();
      shard.is_poisoned.store(true, std::memory_order_relaxed);
    }
    return installed;
  };
  const int spare = 1 - shard.published.load(std::memory_order_relaxed);
  P3PDB_ASSIGN_OR_RETURN(int64_t local_id, install(*shard.replicas[spare]));
  const size_t policies =
      shard.policies.fetch_add(1, std::memory_order_relaxed) + 1;

  const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  shard.epoch.store(epoch, std::memory_order_relaxed);
  // The publish: every match that loads the index from here on reads the
  // spare, which already holds the policy.
  shard.published.store(spare, std::memory_order_release);
  shard.publishes.fetch_add(1, std::memory_order_relaxed);
  if (shard.policies_gauge != nullptr) {
    shard.policies_gauge->Set(static_cast<int64_t>(policies));
  }
  if (shard.epoch_gauge != nullptr) {
    shard.epoch_gauge->Set(static_cast<int64_t>(epoch));
  }

  // The retired replica takes the same policy, so both agree again. Its
  // install takes the replica's exclusive lock: that waits for the matches
  // still running there, and a match that loaded the old index just before
  // the publish waits in turn until the replica has the policy.
  P3PDB_RETURN_IF_ERROR(install(*shard.replicas[1 - spare]).status());
  return local_id;
}

Status ShardedPolicyServer::WriteDurably(
    const std::function<Status()>& write) {
  std::unique_lock<std::mutex> lock(durable_mu_);
  return durable_db_->CommitDurably(lock, write);
}

Result<int64_t> ShardedPolicyServer::InstallPolicy(const p3p::Policy& policy) {
  // Validated at the door: a policy no replica would install must reach
  // neither the durable catalog nor a replica, whose refusal would poison
  // the shard.
  P3PDB_RETURN_IF_ERROR(policy.Validate());
  const size_t k = ShardOf(policy.name);
  Shard& shard = *shards_[k];
  std::lock_guard<std::mutex> lock(shard.install_mu);
  if (!shard.poisoned.ok()) return shard.poisoned;
  if (durable_ != nullptr) {
    // Durable first: by the time the policy is reachable through any
    // replica, its catalog row has survived an fsync (group-committed
    // with whatever other shards are installing right now). Catalog ids
    // count installs from 1.
    P3PDB_RETURN_IF_ERROR(WriteDurably([&] {
      return durable_
          ->Append(static_cast<int64_t>(durable_->size()) + 1, policy)
          .status();
    }));
  }
  P3PDB_ASSIGN_OR_RETURN(int64_t local_id, ApplyAndPublish(shard, policy));
  const int64_t global_id = GlobalId(local_id, k);
  // Still under install_mu: the directory takes this name's installs in
  // install order, and only after the shard serves the new id.
  RepublishDirectory(policy.name, global_id);
  if (installs_total_ != nullptr) installs_total_->Increment();
  return global_id;
}

void ShardedPolicyServer::PublishDirectory(const p3p::ReferenceFile& rf) {
  DirectorySnapshot next;
  next.rf = std::make_shared<const p3p::ReferenceFile>(rf);
  next.ids.reserve(rf.refs().size());
  for (const p3p::PolicyRef& ref : rf.refs()) {
    next.ids.push_back(FindPolicyIdByAbout(ref.about).value_or(-1));
  }
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  SwapDirectory(std::move(next));
}

void ShardedPolicyServer::SwapDirectory(DirectorySnapshot next) {
  auto snapshot = std::make_shared<const DirectorySnapshot>(std::move(next));
  {
    std::lock_guard<StripedSharedMutex> lock(directory_mu_);
    directory_.swap(snapshot);
  }
  // `snapshot` now holds the old directory; no match can still read it.
}

void ShardedPolicyServer::RepublishDirectory(std::string_view policy_name,
                                             int64_t global_id) {
  std::lock_guard<std::mutex> lock(directory_install_mu_);
  // Only publishers write directory_, and they hold the mutex above.
  if (directory_ == nullptr) return;
  DirectorySnapshot next;
  const std::vector<p3p::PolicyRef>& refs = directory_->rf->refs();
  for (size_t i = 0; i < refs.size(); ++i) {
    if (AboutToPolicyName(refs[i].about) != policy_name) continue;
    if (next.ids.empty()) next.ids = directory_->ids;
    next.ids[i] = global_id;
  }
  if (next.ids.empty()) return;  // no ref names the policy
  next.rf = directory_->rf;
  SwapDirectory(std::move(next));
}

Status ShardedPolicyServer::InstallReferenceFile(
    const p3p::ReferenceFile& rf) {
  std::lock_guard<std::mutex> lock(directory_install_mu_);
  if (durable_ != nullptr) {
    P3PDB_RETURN_IF_ERROR(
        WriteDurably([&] { return durable_->PutReferenceFile(rf); }));
  }
  PublishDirectory(rf);
  return Status::OK();
}

Result<CompiledPreference> ShardedPolicyServer::CompilePreference(
    const appel::AppelRuleset& ruleset) {
  // Compilation is catalog-independent (translation + fingerprint, no
  // prepared statements on this tier), so any replica can do it; shard 0's
  // published one is as good as any.
  return shards_[0]->Published().CompilePreference(ruleset);
}

Result<MatchResult> ShardedPolicyServer::MatchPolicyId(
    const CompiledPreference& pref, int64_t global_policy_id) {
  if (global_policy_id < 0) {
    return Status::NotFound("unknown policy id: " +
                            std::to_string(global_policy_id));
  }
  const int64_t n = static_cast<int64_t>(shards_.size());
  const size_t k = static_cast<size_t>(global_policy_id % n);
  const int64_t local_id = global_policy_id / n;
  Result<MatchResult> result =
      shards_[k]->Published().MatchPolicyId(pref, local_id);
  if (matches_total_ != nullptr) matches_total_->Increment();
  if (shards_[k]->matches_total != nullptr) {
    shards_[k]->matches_total->Increment();
  }
  if (!result.ok()) {
    if (result.status().code() != StatusCode::kNotFound) return result;
    // The replica names its local id; the caller only knows global ones.
    return Status::NotFound("policy id " +
                            std::to_string(GlobalId(local_id, k)) +
                            " not installed");
  }
  if (result.value().policy_id >= 0) {
    result.value().policy_id = GlobalId(result.value().policy_id, k);
  }
  return result;
}

Result<MatchResult> ShardedPolicyServer::MatchResolved(
    const CompiledPreference& pref, std::string_view path, bool for_cookie) {
  int64_t global_id = -1;
  {
    std::shared_lock<StripedSharedMutex> lock(directory_mu_);
    if (directory_ == nullptr) {
      // Same contract as PolicyServer with no reference file installed.
      return Status::InvalidArgument("no reference file installed");
    }
    std::optional<size_t> ref = for_cookie
                                    ? directory_->rf->RefIndexForCookie(path)
                                    : directory_->rf->RefIndexForPath(path);
    if (ref.has_value()) global_id = directory_->ids[*ref];
  }
  if (global_id < 0) {
    if (matches_total_ != nullptr) matches_total_->Increment();
    if (no_policy_total_ != nullptr) no_policy_total_->Increment();
    MatchResult miss;
    miss.behavior = kNoPolicyBehavior;
    miss.policy_found = false;
    return miss;
  }
  return MatchPolicyId(pref, global_id);
}

Result<MatchResult> ShardedPolicyServer::MatchUri(
    const CompiledPreference& pref, std::string_view local_path) {
  return MatchResolved(pref, local_path, /*for_cookie=*/false);
}

Result<MatchResult> ShardedPolicyServer::MatchCookie(
    const CompiledPreference& pref, std::string_view cookie_path) {
  return MatchResolved(pref, cookie_path, /*for_cookie=*/true);
}

std::optional<int64_t> ShardedPolicyServer::FindPolicyIdByAbout(
    std::string_view about) const {
  const size_t k = ShardOf(AboutToPolicyName(about));
  std::optional<int64_t> local_id =
      shards_[k]->Published().FindPolicyIdByAbout(about);
  if (!local_id.has_value()) return std::nullopt;
  return GlobalId(*local_id, k);
}

size_t ShardedPolicyServer::ShardPolicyCount(size_t shard) const {
  return shards_[shard]->policies.load(std::memory_order_relaxed);
}

uint64_t ShardedPolicyServer::ShardPublishes(size_t shard) const {
  return shards_[shard]->publishes.load(std::memory_order_relaxed);
}

std::vector<int64_t> ShardedPolicyServer::GlobalPolicyIds() const {
  std::vector<int64_t> ids;
  for (size_t k = 0; k < shards_.size(); ++k) {
    // policy_ids() copies the list under the replica's shared lock.
    for (int64_t local_id : shards_[k]->Published().policy_ids()) {
      ids.push_back(GlobalId(local_id, k));
    }
  }
  return ids;
}

std::vector<ConflictCount> ShardedPolicyServer::ConflictReport() const {
  std::map<std::pair<int64_t, std::string>, uint64_t> sums;
  for (size_t k = 0; k < shards_.size(); ++k) {
    for (const std::unique_ptr<PolicyServer>& replica : shards_[k]->replicas) {
      for (ConflictCount& row : replica->ConflictReport()) {
        sums[{GlobalId(row.policy_id, k), std::move(row.behavior)}] +=
            row.matches;
      }
    }
  }
  std::vector<ConflictCount> rows;
  rows.reserve(sums.size());
  for (auto& [key, matches] : sums) {
    rows.push_back({key.first, key.second, matches});
  }
  return rows;
}

std::string ShardedPolicyServer::RenderHealthzJson() const {
  uint64_t matches = 0;
  size_t policies = 0;
  std::string shards_json;
  bool poisoned = false;
  for (size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    poisoned = poisoned || shard.is_poisoned.load(std::memory_order_relaxed);
    const size_t shard_policies =
        shard.policies.load(std::memory_order_relaxed);
    policies += shard_policies;
    const uint64_t shard_matches =
        shard.matches_total != nullptr ? shard.matches_total->value() : 0;
    matches += shard_matches;
    if (k > 0) shards_json += ",";
    shards_json += "{\"shard\":" + std::to_string(k) +
                   ",\"epoch\":" +
                   std::to_string(shard.epoch.load(std::memory_order_relaxed)) +
                   ",\"policies\":" + std::to_string(shard_policies) +
                   ",\"publishes\":" +
                   std::to_string(
                       shard.publishes.load(std::memory_order_relaxed)) +
                   ",\"matches\":" + std::to_string(shard_matches) + "}";
  }
  std::string out = "{\"status\":\"";
  out += poisoned ? "poisoned" : "ok";
  out += "\",\"catalog_epoch\":" + std::to_string(catalog_epoch()) +
         ",\"policies\":" + std::to_string(policies) +
         ",\"matches\":" + std::to_string(matches) + ",\"shards\":[" +
         shards_json + "]}";
  return out;
}

std::string ShardedPolicyServer::RenderMetricsText() const {
  return metrics_.RenderText();
}

std::string ShardedPolicyServer::RenderMetricsJson() const {
  return metrics_.RenderJson();
}

std::string ShardedPolicyServer::RenderStatementStatsJson(size_t top) const {
  std::string out = "{";
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (k > 0) out += ",";
    out += "\"shard_" + std::to_string(k) +
           "\":" + shards_[k]->Published().RenderStatementStatsJson(top);
  }
  out += "}";
  return out;
}

uint16_t ShardedPolicyServer::admin_port() const {
  return admin_ != nullptr ? admin_->port() : 0;
}

}  // namespace p3pdb::server
