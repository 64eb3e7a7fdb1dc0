// ShardedPolicyServer tests: global-id routing, cross-shard URI matching,
// epoch publication, durable recovery, and the torn-epoch stress — a match
// racing installs must only ever observe a fully installed catalog (run
// under TSan in CI via the `concurrency` ctest label).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>
#include <unistd.h>

#include "appel/model.h"
#include "common/random.h"
#include "p3p/policy_xml.h"
#include "server/policy_server.h"
#include "server/sharded_server.h"
#include "workload/corpus.h"
#include "workload/jrc_preferences.h"
#include "workload/paper_examples.h"
#include "workload/random_preferences.h"

namespace p3pdb::server {
namespace {

using workload::JrcPreference;
using workload::PreferenceLevel;

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "p3pdb_serving_tier_" +
                    std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

ShardedPolicyServer::Options TierOptions(size_t shards) {
  ShardedPolicyServer::Options o;
  o.shards = shards;
  o.engine = EngineKind::kSql;
  return o;
}

TEST(ServingTierTest, RejectsZeroShards) {
  auto tier = ShardedPolicyServer::Create(TierOptions(0));
  ASSERT_FALSE(tier.ok());
  EXPECT_EQ(tier.status().code(), StatusCode::kInvalidArgument);
}

// Every corpus policy, matched by its global id on the tier, must yield
// the behavior a single PolicyServer yields for the same policy — the
// shard map and the local/global id arithmetic are pure routing.
TEST(ServingTierTest, GlobalIdMatchesAgreeWithSingleServer) {
  const std::vector<p3p::Policy> corpus = workload::FortuneCorpus();

  auto single = PolicyServer::Create({.engine = EngineKind::kSql});
  ASSERT_TRUE(single.ok());
  std::vector<int64_t> single_ids;
  for (const p3p::Policy& policy : corpus) {
    auto id = single.value()->InstallPolicy(policy);
    ASSERT_TRUE(id.ok());
    single_ids.push_back(id.value());
  }

  auto tier = ShardedPolicyServer::Create(TierOptions(4));
  ASSERT_TRUE(tier.ok()) << tier.status().message();
  std::vector<int64_t> global_ids;
  for (const p3p::Policy& policy : corpus) {
    auto id = tier.value()->InstallPolicy(policy);
    ASSERT_TRUE(id.ok()) << id.status().message();
    global_ids.push_back(id.value());
  }
  // Global ids are unique and decode to a valid shard.
  std::set<int64_t> unique(global_ids.begin(), global_ids.end());
  EXPECT_EQ(unique.size(), corpus.size());

  auto single_pref = single.value()->CompilePreference(
      JrcPreference(PreferenceLevel::kHigh));
  ASSERT_TRUE(single_pref.ok());
  auto tier_pref =
      tier.value()->CompilePreference(JrcPreference(PreferenceLevel::kHigh));
  ASSERT_TRUE(tier_pref.ok());

  for (size_t i = 0; i < corpus.size(); ++i) {
    auto expected = single.value()->MatchPolicyId(single_pref.value(),
                                                  single_ids[i]);
    ASSERT_TRUE(expected.ok());
    auto got =
        tier.value()->MatchPolicyId(tier_pref.value(), global_ids[i]);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(got.value().behavior, expected.value().behavior)
        << corpus[i].name;
    EXPECT_EQ(got.value().policy_id, global_ids[i]);
  }

  // Shard policy counts sum to the corpus; every install published.
  size_t total = 0;
  uint64_t publishes = 0;
  for (size_t k = 0; k < tier.value()->shard_count(); ++k) {
    total += tier.value()->ShardPolicyCount(k);
    publishes += tier.value()->ShardPublishes(k);
  }
  EXPECT_EQ(total, corpus.size());
  EXPECT_EQ(publishes, corpus.size());
  EXPECT_EQ(tier.value()->GlobalPolicyIds().size(), corpus.size());
  // Epoch: initial 1 + one bump per install.
  EXPECT_EQ(tier.value()->catalog_epoch(), 1 + corpus.size());
}

TEST(ServingTierTest, MatchUriResolvesAcrossShards) {
  const std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  auto tier = ShardedPolicyServer::Create(TierOptions(3));
  ASSERT_TRUE(tier.ok());
  auto pref =
      tier.value()->CompilePreference(JrcPreference(PreferenceLevel::kMedium));
  ASSERT_TRUE(pref.ok());

  // No reference file yet: same contract as the single server.
  EXPECT_FALSE(tier.value()->MatchUri(pref.value(), "/x").ok());

  for (const p3p::Policy& policy : corpus) {
    ASSERT_TRUE(tier.value()->InstallPolicy(policy).ok());
  }
  ASSERT_TRUE(tier.value()
                  ->InstallReferenceFile(workload::CorpusReferenceFile(corpus))
                  .ok());

  auto single = PolicyServer::Create({.engine = EngineKind::kSql});
  ASSERT_TRUE(single.ok());
  for (const p3p::Policy& policy : corpus) {
    ASSERT_TRUE(single.value()->InstallPolicy(policy).ok());
  }
  ASSERT_TRUE(single.value()
                  ->InstallReferenceFile(workload::CorpusReferenceFile(corpus))
                  .ok());
  auto single_pref = single.value()->CompilePreference(
      JrcPreference(PreferenceLevel::kMedium));
  ASSERT_TRUE(single_pref.ok());

  for (const p3p::Policy& policy : corpus) {
    const std::string path = "/" + policy.name + "/index.html";
    auto expected = single.value()->MatchUri(single_pref.value(), path);
    ASSERT_TRUE(expected.ok());
    auto got = tier.value()->MatchUri(pref.value(), path);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_TRUE(got.value().policy_found) << path;
    EXPECT_EQ(got.value().behavior, expected.value().behavior) << path;

    auto by_about = tier.value()->FindPolicyIdByAbout("#" + policy.name);
    ASSERT_TRUE(by_about.has_value()) << policy.name;
    EXPECT_EQ(got.value().policy_id, *by_about) << path;
  }

  // A path no POLICY-REF covers resolves to the no-policy result.
  auto miss = tier.value()->MatchUri(pref.value(), "/definitely/not/covered");
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value().policy_found);
  EXPECT_EQ(miss.value().behavior, kNoPolicyBehavior);
}

// kXQueryXTable binds the policy id like the other SQL engines, so the tier
// serves it: a 2-shard XTABLE tier agrees with a single XTABLE server on
// every corpus policy and preference level, by global id and by URI.
TEST(ServingTierTest, XTableTierAgreesWithSingleServer) {
  const std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  const p3p::ReferenceFile rf = workload::CorpusReferenceFile(corpus);

  auto single = PolicyServer::Create({.engine = EngineKind::kXQueryXTable});
  ASSERT_TRUE(single.ok()) << single.status();
  ShardedPolicyServer::Options o = TierOptions(2);
  o.engine = EngineKind::kXQueryXTable;
  auto tier = ShardedPolicyServer::Create(o);
  ASSERT_TRUE(tier.ok()) << tier.status();

  std::vector<int64_t> single_ids, global_ids;
  for (const p3p::Policy& policy : corpus) {
    auto single_id = single.value()->InstallPolicy(policy);
    ASSERT_TRUE(single_id.ok()) << single_id.status();
    single_ids.push_back(single_id.value());
    auto global_id = tier.value()->InstallPolicy(policy);
    ASSERT_TRUE(global_id.ok()) << global_id.status();
    global_ids.push_back(global_id.value());
  }
  ASSERT_TRUE(single.value()->InstallReferenceFile(rf).ok());
  ASSERT_TRUE(tier.value()->InstallReferenceFile(rf).ok());

  for (PreferenceLevel level : workload::AllPreferenceLevels()) {
    auto single_pref =
        single.value()->CompilePreference(JrcPreference(level));
    ASSERT_TRUE(single_pref.ok()) << single_pref.status();
    auto tier_pref = tier.value()->CompilePreference(JrcPreference(level));
    ASSERT_TRUE(tier_pref.ok()) << tier_pref.status();
    for (size_t i = 0; i < corpus.size(); ++i) {
      SCOPED_TRACE(corpus[i].name);
      auto expected =
          single.value()->MatchPolicyId(single_pref.value(), single_ids[i]);
      ASSERT_TRUE(expected.ok()) << expected.status();
      auto by_id =
          tier.value()->MatchPolicyId(tier_pref.value(), global_ids[i]);
      ASSERT_TRUE(by_id.ok()) << by_id.status();
      EXPECT_EQ(by_id.value().behavior, expected.value().behavior);
      EXPECT_EQ(by_id.value().fired_rule_index,
                expected.value().fired_rule_index);
      EXPECT_EQ(by_id.value().policy_id, global_ids[i]);

      const std::string path = "/" + corpus[i].name + "/index.html";
      auto expected_uri = single.value()->MatchUri(single_pref.value(), path);
      ASSERT_TRUE(expected_uri.ok()) << expected_uri.status();
      auto by_uri = tier.value()->MatchUri(tier_pref.value(), path);
      ASSERT_TRUE(by_uri.ok()) << by_uri.status();
      EXPECT_TRUE(by_uri.value().policy_found);
      EXPECT_EQ(by_uri.value().behavior, expected_uri.value().behavior);
      EXPECT_EQ(by_uri.value().fired_rule_index,
                expected_uri.value().fired_rule_index);
      EXPECT_EQ(by_uri.value().policy_id, global_ids[i]);
    }
  }
}

// An unknown global id is reported as the caller named it, not as the
// shard-local id it decodes to (global 13 on 4 shards is local 3 on shard 1).
TEST(ServingTierTest, UnknownGlobalIdIsReportedAsGlobal) {
  auto tier = ShardedPolicyServer::Create(TierOptions(4));
  ASSERT_TRUE(tier.ok());
  auto pref =
      tier.value()->CompilePreference(JrcPreference(PreferenceLevel::kHigh));
  ASSERT_TRUE(pref.ok());
  auto expect_not_found = [&](int64_t global_id) {
    auto result = tier.value()->MatchPolicyId(pref.value(), global_id);
    ASSERT_FALSE(result.ok()) << global_id;
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(result.status().message(),
              "policy id " + std::to_string(global_id) + " not installed");
  };
  expect_not_found(13);
  for (const p3p::Policy& policy :
       workload::FortuneCorpus({.seed = 5, .policy_count = 3})) {
    ASSERT_TRUE(tier.value()->InstallPolicy(policy).ok());
  }
  expect_not_found(4001);
}

TEST(ServingTierTest, HealthzAndMetricsExposeShards) {
  const std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  auto tier = ShardedPolicyServer::Create(TierOptions(2));
  ASSERT_TRUE(tier.ok());
  for (const p3p::Policy& policy : corpus) {
    ASSERT_TRUE(tier.value()->InstallPolicy(policy).ok());
  }
  auto pref =
      tier.value()->CompilePreference(JrcPreference(PreferenceLevel::kLow));
  ASSERT_TRUE(pref.ok());
  for (int64_t id : tier.value()->GlobalPolicyIds()) {
    ASSERT_TRUE(tier.value()->MatchPolicyId(pref.value(), id).ok());
  }

  const std::string healthz = tier.value()->RenderHealthzJson();
  EXPECT_NE(healthz.find("\"status\":\"ok\""), std::string::npos) << healthz;
  EXPECT_NE(healthz.find("\"catalog_epoch\":"), std::string::npos) << healthz;
  EXPECT_NE(healthz.find("\"shards\":[{\"shard\":0,"), std::string::npos)
      << healthz;
  EXPECT_NE(healthz.find("{\"shard\":1,"), std::string::npos) << healthz;
  EXPECT_NE(healthz.find("\"policies\":" + std::to_string(corpus.size())),
            std::string::npos)
      << healthz;

  const std::string metrics = tier.value()->RenderMetricsText();
  EXPECT_NE(metrics.find("p3p_shard_0_policies"), std::string::npos);
  EXPECT_NE(metrics.find("p3p_shard_1_policies"), std::string::npos);
  EXPECT_NE(metrics.find("p3p_shard_0_matches_total"), std::string::npos);
  EXPECT_NE(metrics.find("p3p_installs_total"), std::string::npos);
}

/// One installed global id per shard of `tier`.
std::vector<int64_t> OnePolicyPerShard(ShardedPolicyServer& tier) {
  std::vector<int64_t> ids(tier.shard_count(), -1);
  for (int64_t id : tier.GlobalPolicyIds()) {
    int64_t& slot = ids[static_cast<size_t>(id) % tier.shard_count()];
    if (slot < 0) slot = id;
  }
  return ids;
}

/// The rule queries a match executed: every rule up to the one that fired,
/// or all of them when none did.
size_t RulesExecuted(const CompiledPreference& pref, const MatchResult& m) {
  return m.fired_rule_index >= 0 ? static_cast<size_t>(m.fired_rule_index) + 1
                                 : pref.sql.rule_queries.size();
}

/// Sum of the "calls" fields in one shard's array of the tier's
/// /statements JSON.
uint64_t ShardStatementCalls(const std::string& json, size_t shard) {
  const std::string key = "\"shard_" + std::to_string(shard) + "\":";
  size_t pos = json.find(key);
  if (pos == std::string::npos) return 0;
  const size_t end = json.find("\"shard_", pos + key.size());
  uint64_t calls = 0;
  const std::string field = "\"calls\": ";
  while ((pos = json.find(field, pos)) < end) {
    pos += field.size();
    calls += std::stoull(json.substr(pos, json.find(',', pos) - pos));
  }
  return calls;
}

// The replicas share one plan cache, so a preference's rule queries are
// planned once for the whole tier: matching it against one policy on each
// of the four shards plans each distinct rule text those matches execute
// exactly once, and every other execution of a text — on the shards that
// did not plan it too — is a plan-cache hit. Before the cache was shared,
// each shard planned each text itself (about four times as many plans).
// The counts are the ones the tier's /metrics exports.
TEST(ServingTierTest, ShardsShareOnePlanPerRuleText) {
  const std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  ShardedPolicyServer::Options options = TierOptions(4);
  options.enable_planner = true;  // and with it the shared plan cache
  auto tier = ShardedPolicyServer::Create(options);
  ASSERT_TRUE(tier.ok()) << tier.status().message();
  for (const p3p::Policy& policy : corpus) {
    ASSERT_TRUE(tier.value()->InstallPolicy(policy).ok());
  }
  const std::vector<int64_t> ids = OnePolicyPerShard(*tier.value());
  ASSERT_EQ(ids.size(), 4u);
  for (int64_t id : ids) ASSERT_GE(id, 0);

  std::set<std::string> distinct;
  size_t executions = 0;
  const sqldb::PlanCacheStats before = tier.value()->plan_cache().stats();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Random rng(seed);
    auto pref = tier.value()->CompilePreference(workload::RandomPreference(
        &rng, workload::RandomPreferenceOptions{}));
    ASSERT_TRUE(pref.ok()) << pref.status().message();
    for (int64_t id : ids) {
      auto match = tier.value()->MatchPolicyId(pref.value(), id);
      ASSERT_TRUE(match.ok()) << match.status().message();
      const size_t ran = RulesExecuted(pref.value(), match.value());
      for (size_t i = 0; i < ran; ++i) {
        distinct.insert(pref.value().sql.rule_queries[i]);
      }
      executions += ran;
    }
  }
  const sqldb::PlanCacheStats after = tier.value()->plan_cache().stats();
  ASSERT_GT(executions, distinct.size());  // some text ran on two shards
  EXPECT_EQ(after.plans_built - before.plans_built, distinct.size());
  EXPECT_EQ(after.hits - before.hits, executions - distinct.size());
  EXPECT_EQ(after.misses - before.misses, distinct.size());
  EXPECT_EQ(after.evictions, 0u);

  const std::string metrics = tier.value()->RenderMetricsText();
  for (const std::string& line : std::vector<std::string>{
           "p3p_plan_cache_hits_total " + std::to_string(after.hits),
        "p3p_plan_cache_misses_total " + std::to_string(after.misses),
        "p3p_plan_cache_plans_built_total " +
            std::to_string(after.plans_built),
        std::string("p3p_plan_cache_evictions_total 0"),
        "p3p_plan_cache_entries " + std::to_string(after.entries)}) {
    EXPECT_NE(metrics.find(line + "\n"), std::string::npos) << line;
  }
}

// With statement stats on, a replica executing a plan another shard built
// tallies the execution in its own registry: each shard's /statements
// counts exactly the rule queries that ran on that shard.
TEST(ServingTierTest, EachShardCountsItsOwnStatements) {
  const std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  ShardedPolicyServer::Options options = TierOptions(4);
  options.enable_statement_stats = true;
  options.enable_match_cache = false;  // every match runs its rule queries
  auto tier = ShardedPolicyServer::Create(options);
  ASSERT_TRUE(tier.ok()) << tier.status().message();
  for (const p3p::Policy& policy : corpus) {
    ASSERT_TRUE(tier.value()->InstallPolicy(policy).ok());
  }
  const std::vector<int64_t> ids = OnePolicyPerShard(*tier.value());
  const std::string before = tier.value()->RenderStatementStatsJson(0);
  std::vector<uint64_t> ran(4, 0);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Random rng(seed);
    auto pref = tier.value()->CompilePreference(workload::RandomPreference(
        &rng, workload::RandomPreferenceOptions{}));
    ASSERT_TRUE(pref.ok()) << pref.status().message();
    for (size_t k = 0; k < ids.size(); ++k) {
      // Twice per shard: the second run is a plan hit on every shard.
      for (int rep = 0; rep < 2; ++rep) {
        auto match = tier.value()->MatchPolicyId(pref.value(), ids[k]);
        ASSERT_TRUE(match.ok()) << match.status().message();
        if (rep == 0) ran[k] += 2 * RulesExecuted(pref.value(), match.value());
      }
    }
  }
  const std::string after = tier.value()->RenderStatementStatsJson(0);
  for (size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(ShardStatementCalls(after, k) - ShardStatementCalls(before, k),
              ran[k])
        << "shard " << k;
  }
}

// Durable tier: reopening from the same storage directory must reproduce
// the global ids and the match outcomes exactly (deterministic replay
// through the same shard routing).
TEST(ServingTierTest, RecoversFromDurableStore) {
  const std::string dir = TestDir("recover");
  const std::vector<p3p::Policy> corpus = workload::FortuneCorpus();

  std::vector<int64_t> installed_ids;
  std::vector<std::string> behaviors;
  {
    ShardedPolicyServer::Options o = TierOptions(4);
    o.storage_path = dir;
    auto tier = ShardedPolicyServer::Create(o);
    ASSERT_TRUE(tier.ok()) << tier.status().message();
    ASSERT_NE(tier.value()->durable_store(), nullptr);
    for (const p3p::Policy& policy : corpus) {
      auto id = tier.value()->InstallPolicy(policy);
      ASSERT_TRUE(id.ok());
      installed_ids.push_back(id.value());
    }
    ASSERT_TRUE(
        tier.value()
            ->InstallReferenceFile(workload::CorpusReferenceFile(corpus))
            .ok());
    auto pref = tier.value()->CompilePreference(
        JrcPreference(PreferenceLevel::kHigh));
    ASSERT_TRUE(pref.ok());
    for (int64_t id : installed_ids) {
      auto r = tier.value()->MatchPolicyId(pref.value(), id);
      ASSERT_TRUE(r.ok());
      behaviors.push_back(r.value().behavior);
    }
  }
  {
    ShardedPolicyServer::Options o = TierOptions(4);
    o.storage_path = dir;
    auto tier = ShardedPolicyServer::Create(o);
    ASSERT_TRUE(tier.ok()) << tier.status().message();
    std::vector<int64_t> recovered = tier.value()->GlobalPolicyIds();
    std::vector<int64_t> expected = installed_ids;
    std::sort(recovered.begin(), recovered.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(recovered, expected);
    auto pref = tier.value()->CompilePreference(
        JrcPreference(PreferenceLevel::kHigh));
    ASSERT_TRUE(pref.ok());
    for (size_t i = 0; i < installed_ids.size(); ++i) {
      auto r = tier.value()->MatchPolicyId(pref.value(), installed_ids[i]);
      ASSERT_TRUE(r.ok()) << installed_ids[i];
      EXPECT_EQ(r.value().behavior, behaviors[i]);
    }
    // The reference file came back too.
    auto p = tier.value()->MatchUri(pref.value(),
                                    "/" + corpus[0].name + "/index.html");
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(p.value().policy_found);
  }
  std::filesystem::remove_all(dir);
}

// An invalid policy fails at the tier's door and leaves its shard serving,
// on a durable tier and on one without storage: the next valid install
// succeeds and serves, and /healthz reads "ok" (a replica's refusal used to
// poison a shard of a tier without storage for good).
TEST(ServingTierTest, InvalidPolicyLeavesShardServing) {
  for (bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "durable" : "no storage");
    const std::string dir = TestDir("invalid");
    ShardedPolicyServer::Options o = TierOptions(1);
    if (durable) o.storage_path = dir;
    auto tier = ShardedPolicyServer::Create(o);
    ASSERT_TRUE(tier.ok()) << tier.status().message();
    p3p::Policy bad = workload::VolgaPolicy();
    bad.name = "bad";
    bad.statements.clear();
    auto refused = tier.value()->InstallPolicy(bad);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

    auto id = tier.value()->InstallPolicy(workload::VolgaPolicy());
    ASSERT_TRUE(id.ok()) << id.status().message();
    auto pref = tier.value()->CompilePreference(workload::JanePreference());
    ASSERT_TRUE(pref.ok());
    auto match = tier.value()->MatchPolicyId(pref.value(), id.value());
    ASSERT_TRUE(match.ok()) << match.status().message();
    EXPECT_TRUE(match.value().policy_found);
    EXPECT_EQ(tier.value()->ShardPolicyCount(0), 1u);
    const std::string healthz = tier.value()->RenderHealthzJson();
    EXPECT_NE(healthz.find("\"status\":\"ok\""), std::string::npos) << healthz;
    if (durable) {
      // The refused policy never reached the catalog either.
      tier.value().reset();
      auto reopened = ShardedPolicyServer::Create(o);
      ASSERT_TRUE(reopened.ok()) << reopened.status().message();
      EXPECT_EQ(reopened.value()->GlobalPolicyIds(),
                std::vector<int64_t>{id.value()});
    }
    std::filesystem::remove_all(dir);
  }
}

// The install stream of the catalog format tests: corpus policies, two
// more versions of one name (the second with another policy's body), and
// an unnamed policy, whose catalog row is named "policy-<id>".
constexpr size_t kFormatCorpus = 12;

std::vector<p3p::Policy> FormatStream() {
  workload::CorpusOptions options;
  options.policy_count = kFormatCorpus;
  std::vector<p3p::Policy> stream = workload::FortuneCorpus(options);
  p3p::Policy other_body = stream[5];
  other_body.name = stream[0].name;
  p3p::Policy unnamed = stream[2];
  unnamed.name.clear();
  stream.push_back(stream[0]);
  stream.push_back(other_body);
  stream.push_back(unnamed);
  return stream;
}

/// What a client can observe of a tier: its sorted global ids, the verdict
/// for each, and what every corpus path resolves to.
struct TierView {
  std::vector<int64_t> ids;
  std::vector<std::string> verdicts;
  std::vector<int64_t> uri_ids;
  std::vector<std::string> uri_verdicts;
};

TierView Observe(ShardedPolicyServer& tier,
                 const std::vector<p3p::Policy>& corpus) {
  TierView view;
  view.ids = tier.GlobalPolicyIds();
  std::sort(view.ids.begin(), view.ids.end());
  auto pref = tier.CompilePreference(JrcPreference(PreferenceLevel::kHigh));
  EXPECT_TRUE(pref.ok());
  if (!pref.ok()) return view;
  for (int64_t id : view.ids) {
    auto match = tier.MatchPolicyId(pref.value(), id);
    view.verdicts.push_back(match.ok() ? match.value().behavior
                                       : match.status().message());
  }
  for (const p3p::Policy& policy : corpus) {
    auto match = tier.MatchUri(pref.value(), "/" + policy.name + "/index.html");
    view.uri_ids.push_back(match.ok() ? match.value().policy_id : -2);
    view.uri_verdicts.push_back(match.ok() ? match.value().behavior
                                           : match.status().message());
  }
  return view;
}

void ExpectSameView(const TierView& got, const TierView& want) {
  EXPECT_EQ(got.ids, want.ids);
  EXPECT_EQ(got.verdicts, want.verdicts);
  EXPECT_EQ(got.uri_ids, want.uri_ids);
  EXPECT_EQ(got.uri_verdicts, want.uri_verdicts);
}

// A directory a disk-backed kNativeAppel PolicyServer wrote (what the
// tier's durable store was before it became a bare catalog) opens in the
// tier with the global ids, verdicts and URI resolution of a tier that
// installed the same stream itself, and later installs continue its ids.
TEST(ServingTierTest, OpensCatalogAPolicyServerWrote) {
  const std::string dir = TestDir("format_from_server");
  const std::vector<p3p::Policy> stream = FormatStream();
  const std::vector<p3p::Policy> corpus(stream.begin(),
                                        stream.begin() + kFormatCorpus);
  const p3p::ReferenceFile rf = workload::CorpusReferenceFile(corpus);
  {
    PolicyServer::Options o;
    o.engine = EngineKind::kNativeAppel;
    o.storage_path = dir;
    o.storage_group_commit = true;
    auto server = PolicyServer::Create(o);
    ASSERT_TRUE(server.ok()) << server.status().message();
    for (const p3p::Policy& policy : stream) {
      ASSERT_TRUE(server.value()->InstallPolicy(policy).ok());
    }
    ASSERT_TRUE(server.value()->InstallReferenceFile(rf).ok());
  }
  auto installed = ShardedPolicyServer::Create(TierOptions(4));
  ASSERT_TRUE(installed.ok());
  for (const p3p::Policy& policy : stream) {
    ASSERT_TRUE(installed.value()->InstallPolicy(policy).ok());
  }
  ASSERT_TRUE(installed.value()->InstallReferenceFile(rf).ok());

  ShardedPolicyServer::Options o = TierOptions(4);
  o.storage_path = dir;
  auto reopened = ShardedPolicyServer::Create(o);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  ExpectSameView(Observe(*reopened.value(), corpus),
                 Observe(*installed.value(), corpus));
  auto next = reopened.value()->InstallPolicy(stream[3]);
  ASSERT_TRUE(next.ok()) << next.status().message();
  EXPECT_EQ(next.value(), installed.value()->InstallPolicy(stream[3]).value());
  reopened.value().reset();
  std::filesystem::remove_all(dir);
}

// A directory the tier wrote reopens in a kNativeAppel PolicyServer with the
// same names, versions and PolicyXml texts, so rolling the tier back to a
// build whose durable store is such a server keeps every policy.
TEST(ServingTierTest, CatalogReopensInAPolicyServer) {
  const std::string dir = TestDir("format_to_server");
  const std::vector<p3p::Policy> stream = FormatStream();
  const std::vector<p3p::Policy> corpus(stream.begin(),
                                        stream.begin() + kFormatCorpus);
  {
    ShardedPolicyServer::Options o = TierOptions(4);
    o.storage_path = dir;
    auto tier = ShardedPolicyServer::Create(o);
    ASSERT_TRUE(tier.ok()) << tier.status().message();
    for (const p3p::Policy& policy : stream) {
      ASSERT_TRUE(tier.value()->InstallPolicy(policy).ok());
    }
    const p3p::ReferenceFile rf = workload::CorpusReferenceFile(corpus);
    ASSERT_TRUE(tier.value()->InstallReferenceFile(rf).ok());
  }
  PolicyServer::Options o;
  o.engine = EngineKind::kNativeAppel;
  o.storage_path = dir;
  o.storage_group_commit = true;
  auto server = PolicyServer::Create(o);
  ASSERT_TRUE(server.ok()) << server.status().message();

  // Name -> the texts of its versions, in version order; catalog ids count
  // installs from 1.
  std::map<std::string, std::vector<std::string>> versions;
  for (size_t i = 0; i < stream.size(); ++i) {
    const std::string name = stream[i].name.empty()
                                 ? "policy-" + std::to_string(i + 1)
                                 : stream[i].name;
    versions[name].push_back(p3p::PolicyToText(stream[i]));
  }
  for (const auto& [name, texts] : versions) {
    EXPECT_EQ(server.value()->PolicyVersion(name),
              static_cast<int64_t>(texts.size()))
        << name;
    for (size_t v = 0; v < texts.size(); ++v) {
      auto xml = server.value()->PolicyXml(name, static_cast<int64_t>(v) + 1);
      ASSERT_TRUE(xml.ok()) << name << " v" << v + 1;
      EXPECT_EQ(xml.value(), texts[v]) << name << " v" << v + 1;
    }
  }
  auto records = server.value()->InstalledPolicyRecords();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(records.value()[i].id, static_cast<int64_t>(i) + 1);
  }
  // The reference file came along.
  auto pref = server.value()->CompilePreference(
      JrcPreference(PreferenceLevel::kHigh));
  ASSERT_TRUE(pref.ok());
  auto uri = server.value()->MatchUri(pref.value(),
                                      "/" + corpus[1].name + "/index.html");
  ASSERT_TRUE(uri.ok()) << uri.status().message();
  EXPECT_TRUE(uri.value().policy_found);
  server.value().reset();
  std::filesystem::remove_all(dir);
}

// Durable installs from four threads, each into its own shard, while a
// matcher re-checks ids installed before the race: verdicts hold, the
// group commit never issues more fsyncs than installs, and a reopen
// reproduces every id and verdict.
TEST(ServingTierTest, ConcurrentDurableInstallsRecover) {
  constexpr size_t kShards = 4;
  const std::string dir = TestDir("concurrent_durable");
  workload::CorpusOptions corpus_options;
  corpus_options.policy_count = 64;
  std::vector<std::vector<p3p::Policy>> buckets(kShards);
  for (const p3p::Policy& policy : workload::FortuneCorpus(corpus_options)) {
    // The tier's routing: policy-name hash modulo the shard count.
    buckets[std::hash<std::string_view>{}(policy.name) % kShards].push_back(
        policy);
  }
  for (const auto& bucket : buckets) ASSERT_GE(bucket.size(), 2u);

  ShardedPolicyServer::Options o = TierOptions(kShards);
  o.storage_path = dir;
  auto tier = ShardedPolicyServer::Create(o);
  ASSERT_TRUE(tier.ok()) << tier.status().message();
  auto pref = tier.value()->CompilePreference(
      JrcPreference(PreferenceLevel::kHigh));
  ASSERT_TRUE(pref.ok());
  // Each bucket's first policy goes in before the race; the matcher
  // re-checks those.
  std::vector<int64_t> early_ids;
  std::vector<std::string> early_verdicts;
  for (size_t k = 0; k < kShards; ++k) {
    auto id = tier.value()->InstallPolicy(buckets[k][0]);
    ASSERT_TRUE(id.ok()) << id.status().message();
    EXPECT_EQ(static_cast<size_t>(id.value()) % kShards, k);
    early_ids.push_back(id.value());
    auto match = tier.value()->MatchPolicyId(pref.value(), id.value());
    ASSERT_TRUE(match.ok());
    early_verdicts.push_back(match.value().behavior);
  }

  const sqldb::StorageStats before =
      tier.value()->durable_store()->database()->storage_stats();
  std::atomic<size_t> installers_left{kShards};
  std::atomic<int> failures{0};
  std::atomic<int> wrong_shard{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> installers;
  for (size_t k = 0; k < kShards; ++k) {
    installers.emplace_back([&, k] {
      for (size_t i = 1; i < buckets[k].size(); ++i) {
        auto id = tier.value()->InstallPolicy(buckets[k][i]);
        if (!id.ok()) {
          failures.fetch_add(1);
        } else if (static_cast<size_t>(id.value()) % kShards != k) {
          wrong_shard.fetch_add(1);
        }
      }
      installers_left.fetch_sub(1);
    });
  }
  std::thread matcher([&] {
    while (installers_left.load() > 0) {
      for (size_t k = 0; k < kShards; ++k) {
        auto match = tier.value()->MatchPolicyId(pref.value(), early_ids[k]);
        if (!match.ok() || match.value().behavior != early_verdicts[k]) {
          mismatches.fetch_add(1);
        }
      }
    }
  });
  for (std::thread& t : installers) t.join();
  matcher.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wrong_shard.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  const sqldb::StorageStats after =
      tier.value()->durable_store()->database()->storage_stats();
  size_t raced = 0;
  for (const auto& bucket : buckets) raced += bucket.size() - 1;
  EXPECT_EQ(after.wal_commits - before.wal_commits, raced);
  EXPECT_GT(after.wal_syncs - before.wal_syncs, 0u);
  EXPECT_LE(after.wal_syncs - before.wal_syncs, raced);

  const TierView want = Observe(*tier.value(), {});
  EXPECT_EQ(want.ids.size(), raced + kShards);
  tier.value().reset();
  auto reopened = ShardedPolicyServer::Create(o);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  ExpectSameView(Observe(*reopened.value(), {}), want);
  reopened.value().reset();
  std::filesystem::remove_all(dir);
}

// Matches racing installs across shards: every outcome must equal the
// single-threaded reference outcome for the id it matched (policies are
// immutable once installed; re-versioning happens under distinct names
// in the torn-epoch test below).
TEST(ServingTierTest, ConcurrentInstallsAndMatchesAcrossShards) {
  const std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  auto tier = ShardedPolicyServer::Create(TierOptions(4));
  ASSERT_TRUE(tier.ok());

  // Seed half the corpus so matchers have work from the start.
  const size_t seed_count = corpus.size() / 2;
  std::vector<int64_t> ids;
  for (size_t i = 0; i < seed_count; ++i) {
    auto id = tier.value()->InstallPolicy(corpus[i]);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  auto pref =
      tier.value()->CompilePreference(JrcPreference(PreferenceLevel::kHigh));
  ASSERT_TRUE(pref.ok());
  std::vector<std::string> expected;
  for (int64_t id : ids) {
    auto r = tier.value()->MatchPolicyId(pref.value(), id);
    ASSERT_TRUE(r.ok());
    expected.push_back(r.value().behavior);
  }

  std::atomic<int> errors{0};
  std::thread installer([&] {
    for (size_t i = seed_count; i < corpus.size(); ++i) {
      if (!tier.value()->InstallPolicy(corpus[i]).ok()) ++errors;
    }
  });
  std::vector<std::thread> matchers;
  for (int t = 0; t < 4; ++t) {
    matchers.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        size_t pick = static_cast<size_t>(t * 31 + i) % ids.size();
        auto r = tier.value()->MatchPolicyId(pref.value(), ids[pick]);
        if (!r.ok() || r.value().behavior != expected[pick]) ++errors;
      }
    });
  }
  installer.join();
  for (std::thread& t : matchers) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(tier.value()->GlobalPolicyIds().size(), corpus.size());
}

// The torn-epoch stress: one name is re-installed over and over, flipping
// between two variants with *different* match outcomes, while matchers
// resolve the name and match continuously. Every observed behavior must be
// one of the two variants' legitimate outcomes — a half-installed catalog
// (policy row present but statements missing, or version map ahead of the
// evidence tables) would surface as an error or a third behavior. The
// schedule is seeded by fixed stride arithmetic so failures reproduce.
TEST(ServingTierTest, TornEpochNeverObserved) {
  const std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  auto probe = PolicyServer::Create({.engine = EngineKind::kSql});
  ASSERT_TRUE(probe.ok());
  auto probe_pref = probe.value()->CompilePreference(
      JrcPreference(PreferenceLevel::kHigh));
  ASSERT_TRUE(probe_pref.ok());

  // Find two corpus policies with different outcomes under the preference;
  // they become the two variants of the churned name.
  std::optional<p3p::Policy> variant_a, variant_b;
  std::string behavior_a, behavior_b;
  for (const p3p::Policy& policy : corpus) {
    auto id = probe.value()->InstallPolicy(policy);
    ASSERT_TRUE(id.ok());
    auto r = probe.value()->MatchPolicyId(probe_pref.value(), id.value());
    ASSERT_TRUE(r.ok());
    if (!variant_a.has_value()) {
      variant_a = policy;
      behavior_a = r.value().behavior;
    } else if (r.value().behavior != behavior_a) {
      variant_b = policy;
      behavior_b = r.value().behavior;
      break;
    }
  }
  ASSERT_TRUE(variant_b.has_value())
      << "corpus has no pair of policies with distinct outcomes";
  variant_a->name = "churn";
  variant_b->name = "churn";

  auto tier = ShardedPolicyServer::Create(TierOptions(2));
  ASSERT_TRUE(tier.ok());
  ASSERT_TRUE(tier.value()->InstallPolicy(*variant_a).ok());
  p3p::ReferenceFile rf;
  p3p::PolicyRef ref;
  ref.about = "/P3P/policies.xml#churn";
  ref.includes = {"/churn/*"};
  rf.AddRef(ref);
  ASSERT_TRUE(tier.value()->InstallReferenceFile(rf).ok());

  auto pref =
      tier.value()->CompilePreference(JrcPreference(PreferenceLevel::kHigh));
  ASSERT_TRUE(pref.ok());

  // Sanity: the two variants produce their expected behaviors on the tier.
  {
    auto r = tier.value()->MatchUri(pref.value(), "/churn/index.html");
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().behavior, behavior_a);
  }

  constexpr int kInstalls = 60;
  constexpr int kMatcherThreads = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<int> torn{0};
  std::atomic<uint64_t> observed_a{0};
  std::atomic<uint64_t> observed_b{0};

  std::thread installer([&] {
    for (int i = 0; i < kInstalls; ++i) {
      const p3p::Policy& next = (i % 2 == 0) ? *variant_b : *variant_a;
      if (!tier.value()->InstallPolicy(next).ok()) ++errors;
    }
    stop.store(true);
  });
  std::vector<std::thread> matchers;
  for (int t = 0; t < kMatcherThreads; ++t) {
    matchers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto r = tier.value()->MatchUri(pref.value(), "/churn/index.html");
        if (!r.ok() || !r.value().policy_found) {
          ++errors;
        } else if (r.value().behavior == behavior_a) {
          ++observed_a;
        } else if (r.value().behavior == behavior_b) {
          ++observed_b;
        } else {
          ++torn;  // a behavior neither variant produces: torn catalog
        }
      }
    });
  }
  installer.join();
  for (std::thread& t : matchers) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(observed_a.load() + observed_b.load(), 0u);
  // After the final install (kInstalls even: last installed is variant_a)
  // every new match sees variant_a's behavior.
  auto final_match =
      tier.value()->MatchUri(pref.value(), "/churn/index.html");
  ASSERT_TRUE(final_match.ok());
  EXPECT_EQ(final_match.value().behavior, behavior_a);
}

uint64_t SeedFromEnv(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

// URI matches racing installs. The reference file names P (installed) and Q
// (not yet). An installer re-installs P, alternating two variants, and
// installs Q once at a seeded step; matchers resolve P's and Q's paths by
// URI and by cookie, match P's latest announced id, and list the installed
// ids (GlobalPolicyIds reads each replica under a guard alone). A URI match
// reads the directory's id for the path, which installs republish, so:
//   - the id a matcher sees for P's path never decreases, and is never
//     older than an id whose InstallPolicy already returned;
//   - Q's path goes from no-policy to Q's id, and never back;
//   - right after InstallPolicy returns, a URI match on the installer's
//     thread reports the id it returned;
//   - catalog_epoch() rises by exactly one per install.
// Set P3PDB_SERVING_TIER_SEED to replay a printed seed.
TEST(ServingTierTest, UriMatchesFollowInstalls) {
  const uint64_t seed = SeedFromEnv("P3PDB_SERVING_TIER_SEED", 25);
  SCOPED_TRACE(::testing::Message()
               << "seed " << seed << " (replay: P3PDB_SERVING_TIER_SEED="
               << seed << ")");
  const std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  p3p::Policy p_variants[2] = {corpus[0], corpus[1]};
  p_variants[0].name = p_variants[1].name = "p";
  p3p::Policy q = corpus[2];
  q.name = "q";

  auto tier = ShardedPolicyServer::Create(TierOptions(4));
  ASSERT_TRUE(tier.ok()) << tier.status().message();
  auto first_p = tier.value()->InstallPolicy(p_variants[0]);
  ASSERT_TRUE(first_p.ok()) << first_p.status().message();
  p3p::ReferenceFile rf;
  for (const char* name : {"p", "q"}) {
    p3p::PolicyRef ref;
    ref.about = std::string("/P3P/policies.xml#") + name;
    ref.includes = {std::string("/") + name + "/*"};
    ref.cookie_includes = {std::string("/") + name + "/*"};
    rf.AddRef(std::move(ref));
  }
  ASSERT_TRUE(tier.value()->InstallReferenceFile(rf).ok());
  auto pref =
      tier.value()->CompilePreference(JrcPreference(PreferenceLevel::kHigh));
  ASSERT_TRUE(pref.ok());
  {
    auto r = tier.value()->MatchUri(pref.value(), "/q/index.html");
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r.value().policy_found);
  }

  constexpr int kInstalls = 40;
  constexpr int kMatcherThreads = 3;
  Random schedule(seed);
  const int q_step = static_cast<int>(schedule.Uniform(kInstalls));

  std::atomic<int64_t> p_latest{first_p.value()};
  std::atomic<int64_t> q_id{-1};
  std::atomic<bool> stop{false};
  std::atomic<int> install_errors{0};
  std::atomic<int> epoch_errors{0};
  std::atomic<int> stale_after_return{0};
  std::atomic<int> errors{0};
  std::atomic<int> p_went_back{0};
  std::atomic<int> q_went_back{0};
  std::atomic<int> q_wrong_id{0};
  std::atomic<uint64_t> q_found{0};

  std::thread installer([&] {
    int p_installs = 0;
    for (int step = 0; step < kInstalls; ++step) {
      const bool is_q = step == q_step;
      const p3p::Policy& next = is_q ? q : p_variants[++p_installs % 2];
      const uint64_t epoch_before = tier.value()->catalog_epoch();
      auto id = tier.value()->InstallPolicy(next);
      if (!id.ok()) {
        ++install_errors;
        break;
      }
      if (tier.value()->catalog_epoch() != epoch_before + 1) ++epoch_errors;
      const std::string path = "/" + next.name + "/index.html";
      auto seen = tier.value()->MatchUri(pref.value(), path);
      if (!seen.ok() || seen.value().policy_id != id.value()) {
        ++stale_after_return;
      }
      (is_q ? q_id : p_latest).store(id.value());
    }
    stop.store(true);
  });
  std::vector<std::thread> matchers;
  for (int t = 0; t < kMatcherThreads; ++t) {
    matchers.emplace_back([&, t] {
      Random rng(seed * 31 + static_cast<uint64_t>(t) + 1);
      int64_t last_p = -1;
      bool q_seen = false;
      while (!stop.load()) {
        const uint64_t op = rng.Uniform(6);
        if (op == 5) {
          const int64_t announced = p_latest.load();
          const std::vector<int64_t> ids = tier.value()->GlobalPolicyIds();
          if (std::find(ids.begin(), ids.end(), announced) == ids.end()) {
            ++errors;
          }
          continue;
        }
        if (op == 0) {
          const int64_t announced = p_latest.load();
          auto r = tier.value()->MatchPolicyId(pref.value(), announced);
          if (!r.ok() || r.value().policy_id != announced) ++errors;
          continue;
        }
        const bool for_q = op >= 3;
        const bool by_cookie = op % 2 == 0;
        const int64_t announced = (for_q ? q_id : p_latest).load();
        const std::string path = for_q ? "/q/index.html" : "/p/index.html";
        auto r = by_cookie ? tier.value()->MatchCookie(pref.value(), path)
                           : tier.value()->MatchUri(pref.value(), path);
        if (!r.ok()) {
          ++errors;
          continue;
        }
        const MatchResult& m = r.value();
        if (!for_q) {
          if (!m.policy_found || m.policy_id < announced ||
              m.policy_id < last_p) {
            ++p_went_back;
          }
          last_p = std::max(last_p, m.policy_id);
        } else if (m.policy_found) {
          q_seen = true;
          ++q_found;
          const int64_t q_now = q_id.load();
          if (q_now >= 0 && m.policy_id != q_now) ++q_wrong_id;
        } else if (q_seen || announced >= 0) {
          ++q_went_back;
        }
      }
    });
  }
  installer.join();
  for (std::thread& t : matchers) t.join();

  EXPECT_EQ(install_errors.load(), 0);
  EXPECT_EQ(epoch_errors.load(), 0);
  EXPECT_EQ(stale_after_return.load(), 0);
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(p_went_back.load(), 0);
  EXPECT_EQ(q_went_back.load(), 0);
  EXPECT_EQ(q_wrong_id.load(), 0);
  // Finally both paths resolve to the last ids installed.
  auto p_final = tier.value()->MatchCookie(pref.value(), "/p/index.html");
  ASSERT_TRUE(p_final.ok());
  EXPECT_EQ(p_final.value().policy_id, p_latest.load());
  auto q_final = tier.value()->MatchUri(pref.value(), "/q/index.html");
  ASSERT_TRUE(q_final.ok());
  EXPECT_TRUE(q_final.value().policy_found);
  EXPECT_EQ(q_final.value().policy_id, q_id.load());
}

/// A tier and a single server fed the same install stream, and what each
/// returned per install.
struct LockstepPair {
  std::unique_ptr<ShardedPolicyServer> tier;
  std::unique_ptr<PolicyServer> single;
  std::vector<int64_t> tier_ids;  // per install, in stream order
  std::vector<int64_t> single_ids;
  std::vector<CompiledPreference> tier_prefs;
  std::vector<CompiledPreference> single_prefs;
};

/// Every id installed so far (by id) and every ref's path (by URI) must
/// give the single server's verdict under `pref`. A URI match must land
/// on the same install of the stream on both.
void ExpectSingleServerVerdicts(LockstepPair& pair, size_t pref,
                                const std::vector<p3p::Policy>& named) {
  auto verdict = [](const Result<MatchResult>& r) {
    if (!r.ok()) return r.status().message();
    return r.value().behavior + "/" +
           std::to_string(r.value().fired_rule_index) +
           (r.value().policy_found ? "" : "/no-policy");
  };
  auto install_of = [](const std::vector<int64_t>& ids, int64_t id) {
    return std::find(ids.begin(), ids.end(), id) - ids.begin();
  };
  for (size_t i = 0; i < pair.tier_ids.size(); ++i) {
    EXPECT_EQ(verdict(pair.tier->MatchPolicyId(pair.tier_prefs[pref],
                                               pair.tier_ids[i])),
              verdict(pair.single->MatchPolicyId(pair.single_prefs[pref],
                                                 pair.single_ids[i])))
        << "install " << i;
  }
  for (const p3p::Policy& policy : named) {
    const std::string path = "/" + policy.name + "/index.html";
    auto got = pair.tier->MatchUri(pair.tier_prefs[pref], path);
    auto want = pair.single->MatchUri(pair.single_prefs[pref], path);
    EXPECT_EQ(verdict(got), verdict(want)) << path;
    if (got.ok() && want.ok()) {
      EXPECT_EQ(install_of(pair.tier_ids, got.value().policy_id),
                install_of(pair.single_ids, want.value().policy_id))
          << path;
    }
  }
}

// Both replicas of a shard serve every install. With one shard each
// install publishes the other replica, so successive checks alternate
// between A and B: after every install of a seeded stream (a third of it
// re-installs an earlier name, a new version under a new id), every id and
// every ref's path must give a single server's verdict. The same holds
// after a durable reopen, on both replicas again. Set
// P3PDB_SERVING_TIER_SEED to replay a printed seed.
TEST(ServingTierTest, BothReplicasServeEveryInstall) {
  const uint64_t seed = SeedFromEnv("P3PDB_SERVING_TIER_SEED", 34);
  SCOPED_TRACE(::testing::Message()
               << "seed " << seed << " (replay: P3PDB_SERVING_TIER_SEED="
               << seed << ")");
  const std::string dir = TestDir("lockstep");
  const std::vector<p3p::Policy> named =
      workload::FortuneCorpus({.policy_count = 40});
  const p3p::ReferenceFile rf = workload::CorpusReferenceFile(named);
  Random rng(seed);
  std::vector<p3p::Policy> stream;
  for (size_t fresh = 0; stream.size() < 60;) {
    if (fresh == named.size() || (fresh > 0 && rng.Uniform(3) == 0)) {
      p3p::Policy again = named[rng.Uniform(named.size())];
      again.name = named[rng.Uniform(fresh)].name;
      stream.push_back(std::move(again));
    } else {
      stream.push_back(named[fresh++]);
    }
  }
  std::vector<appel::AppelRuleset> rulesets = {
      JrcPreference(PreferenceLevel::kHigh),
      JrcPreference(PreferenceLevel::kLow)};
  for (int i = 0; i < 2; ++i) {
    rulesets.push_back(workload::RandomPreference(
        &rng, workload::RandomPreferenceOptions{}));
  }

  ShardedPolicyServer::Options options = TierOptions(1);
  options.enable_match_cache = false;
  options.storage_path = dir;
  LockstepPair pair;
  auto open_tier = [&] {
    auto tier = ShardedPolicyServer::Create(options);
    ASSERT_TRUE(tier.ok()) << tier.status().message();
    pair.tier = std::move(tier.value());
    pair.tier_prefs.clear();
    for (const appel::AppelRuleset& ruleset : rulesets) {
      auto pref = pair.tier->CompilePreference(ruleset);
      ASSERT_TRUE(pref.ok()) << pref.status().message();
      pair.tier_prefs.push_back(std::move(pref.value()));
    }
  };
  auto install = [&](const p3p::Policy& policy) {
    auto tier_id = pair.tier->InstallPolicy(policy);
    ASSERT_TRUE(tier_id.ok()) << tier_id.status().message();
    auto single_id = pair.single->InstallPolicy(policy);
    ASSERT_TRUE(single_id.ok()) << single_id.status().message();
    pair.tier_ids.push_back(tier_id.value());
    pair.single_ids.push_back(single_id.value());
  };

  auto single = PolicyServer::Create(
      {.engine = EngineKind::kSql, .enable_match_cache = false});
  ASSERT_TRUE(single.ok()) << single.status().message();
  pair.single = std::move(single.value());
  for (const appel::AppelRuleset& ruleset : rulesets) {
    auto pref = pair.single->CompilePreference(ruleset);
    ASSERT_TRUE(pref.ok()) << pref.status().message();
    pair.single_prefs.push_back(std::move(pref.value()));
  }
  ASSERT_TRUE(pair.single->InstallReferenceFile(rf).ok());
  ASSERT_NO_FATAL_FAILURE(open_tier());
  ASSERT_TRUE(pair.tier->InstallReferenceFile(rf).ok());

  for (size_t i = 0; i < stream.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "after install " << i);
    ASSERT_NO_FATAL_FAILURE(install(stream[i]));
    ExpectSingleServerVerdicts(pair, rng.Uniform(rulesets.size()), named);
  }
  EXPECT_EQ(pair.tier->ShardPolicyCount(0), stream.size());

  // Reopen: replay rebuilds both replicas; check the published one, then
  // install once more so the other is published and check it too.
  pair.tier.reset();
  ASSERT_NO_FATAL_FAILURE(open_tier());
  EXPECT_EQ(pair.tier->ShardPolicyCount(0), stream.size());
  for (size_t pref = 0; pref < rulesets.size(); ++pref) {
    SCOPED_TRACE(::testing::Message() << "reopened, preference " << pref);
    ExpectSingleServerVerdicts(pair, pref, named);
  }
  ASSERT_NO_FATAL_FAILURE(install(named[rng.Uniform(named.size())]));
  for (size_t pref = 0; pref < rulesets.size(); ++pref) {
    SCOPED_TRACE(::testing::Message()
                 << "reopened and installed, preference " << pref);
    ExpectSingleServerVerdicts(pair, pref, named);
  }
  pair.tier.reset();
  std::filesystem::remove_all(dir);
}

// Two preferences that differ only in a repeated attribute translate to
// different SQL, so they must never share a match-cache entry: rule A
// requires POLICY name="x" *and* name=<p> (never true), rule B only
// name=<p>. A fingerprint over an XML serialization collapsed A's repeated
// attribute into B's, and B then got A's cached verdict.
appel::AppelRuleset NamePreference(std::vector<std::string> names) {
  appel::AppelExpr policy;
  policy.name = "POLICY";
  for (std::string& name : names) {
    policy.attributes.push_back({"name", std::move(name)});
  }
  appel::AppelRule block;
  block.behavior = "block";
  block.expressions.push_back(std::move(policy));
  appel::AppelRule otherwise;
  otherwise.behavior = "request";
  appel::AppelRuleset ruleset;
  ruleset.rules.push_back(std::move(block));
  ruleset.rules.push_back(std::move(otherwise));
  return ruleset;
}

TEST(ServingTierTest, RepeatedAttributeNeverSharesACachedVerdict) {
  const std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  const std::string name = corpus[0].name;
  const appel::AppelRuleset a = NamePreference({"x", name});
  const appel::AppelRuleset b = NamePreference({name});

  std::vector<std::string> verdicts[2];
  for (bool cache : {false, true}) {
    ShardedPolicyServer::Options options = TierOptions(4);
    options.enable_match_cache = cache;
    auto tier = ShardedPolicyServer::Create(options);
    ASSERT_TRUE(tier.ok()) << tier.status().message();
    auto id = tier.value()->InstallPolicy(corpus[0]);
    ASSERT_TRUE(id.ok()) << id.status().message();
    auto pref_a = tier.value()->CompilePreference(a);
    auto pref_b = tier.value()->CompilePreference(b);
    ASSERT_TRUE(pref_a.ok() && pref_b.ok());
    EXPECT_NE(pref_a.value().fingerprint, pref_b.value().fingerprint);
    // A first, so with the cache on B would find A's entry if the two
    // fingerprints collided.
    for (const CompiledPreference* pref : {&pref_a.value(), &pref_b.value(),
                                           &pref_a.value()}) {
      auto match = tier.value()->MatchPolicyId(*pref, id.value());
      ASSERT_TRUE(match.ok()) << match.status().message();
      verdicts[cache].push_back(match.value().behavior);
    }
  }
  EXPECT_EQ(verdicts[0],
            (std::vector<std::string>{"request", "block", "request"}));
  EXPECT_EQ(verdicts[1], verdicts[0]);
}

/// The report a tally of match results implies: one count per (policy id,
/// behavior) of every result that found a policy, in ConflictReport order.
std::vector<ConflictCount> ReportOf(
    const std::map<std::pair<int64_t, std::string>, uint64_t>& tally) {
  std::vector<ConflictCount> rows;
  for (const auto& [key, matches] : tally) {
    rows.push_back({key.first, key.second, matches});
  }
  return rows;
}

// The tier counts every match exactly once while installs flip replicas:
// matchers by id and by URI race an installer that re-installs policies
// (each install publishes the spare and then installs into the retired
// replica, and a re-installed name republishes the directory). The tier's
// report, summed over both replicas of each shard, equals the tally of the
// results the matchers got back. Set P3PDB_SERVING_TIER_SEED to replay a
// printed seed.
TEST(ServingTierTest, ConflictCountsSurviveReplicaFlips) {
  const uint64_t seed = SeedFromEnv("P3PDB_SERVING_TIER_SEED", 37);
  SCOPED_TRACE(::testing::Message()
               << "seed " << seed << " (replay: P3PDB_SERVING_TIER_SEED="
               << seed << ")");
  const std::vector<p3p::Policy> corpus =
      workload::FortuneCorpus({.policy_count = 12});
  auto tier = ShardedPolicyServer::Create(TierOptions(2));
  ASSERT_TRUE(tier.ok()) << tier.status().message();
  std::vector<int64_t> ids;
  for (const p3p::Policy& policy : corpus) {
    auto id = tier.value()->InstallPolicy(policy);
    ASSERT_TRUE(id.ok()) << id.status().message();
    ids.push_back(id.value());
  }
  ASSERT_TRUE(tier.value()
                  ->InstallReferenceFile(workload::CorpusReferenceFile(corpus))
                  .ok());
  std::vector<CompiledPreference> prefs;
  for (PreferenceLevel level :
       {PreferenceLevel::kHigh, PreferenceLevel::kLow}) {
    auto pref = tier.value()->CompilePreference(JrcPreference(level));
    ASSERT_TRUE(pref.ok()) << pref.status().message();
    prefs.push_back(std::move(pref.value()));
  }

  constexpr int kThreads = 4;
  constexpr int kMatchesPerThread = 400;
  std::atomic<int> errors{0};
  std::atomic<int> matchers_done{0};
  std::thread installer([&] {
    // Installs for as long as the matchers run (at least 4, at most 200),
    // reading the report between installs: its total never falls.
    Random rng(seed);
    uint64_t last_total = 0;
    for (int i = 0; i < 200 && (i < 4 || matchers_done.load() < kThreads);
         ++i) {
      if (!tier.value()->InstallPolicy(corpus[rng.Uniform(corpus.size())])
               .ok()) {
        ++errors;
      }
      uint64_t total = 0;
      for (const ConflictCount& row : tier.value()->ConflictReport()) {
        total += row.matches;
      }
      if (total < last_total) ++errors;
      last_total = total;
    }
  });
  using Tally = std::map<std::pair<int64_t, std::string>, uint64_t>;
  std::vector<Tally> tallies(kThreads);
  std::vector<std::thread> matchers;
  for (int t = 0; t < kThreads; ++t) {
    matchers.emplace_back([&, t] {
      Random rng(seed * kThreads + static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kMatchesPerThread; ++i) {
        const CompiledPreference& pref = prefs[rng.Uniform(prefs.size())];
        const size_t pick = rng.Uniform(corpus.size());
        auto match =
            rng.Uniform(2) == 0
                ? tier.value()->MatchPolicyId(pref, ids[pick])
                : tier.value()->MatchUri(
                      pref, "/" + corpus[pick].name + "/index.html");
        if (!match.ok() || !match.value().policy_found) {
          ++errors;
          continue;
        }
        ++tallies[t][{match.value().policy_id, match.value().behavior}];
      }
      ++matchers_done;
    });
  }
  installer.join();
  for (std::thread& matcher : matchers) matcher.join();
  ASSERT_EQ(errors.load(), 0);
  Tally tally;
  for (const Tally& thread_tally : tallies) {
    for (const auto& [key, matches] : thread_tally) tally[key] += matches;
  }
  EXPECT_EQ(tier.value()->ConflictReport(), ReportOf(tally));
}

// On a seeded stream of installs (a third re-install an earlier name) with
// seeded matches by id and by URI between them, a 2-shard tier and a single
// kSql server count the same conflicts: their reports are equal once each
// tier id is paired with the single server's id of the same install. Set
// P3PDB_SERVING_TIER_SEED to replay a printed seed.
TEST(ServingTierTest, TierConflictReportEqualsSingleServer) {
  const uint64_t seed = SeedFromEnv("P3PDB_SERVING_TIER_SEED", 38);
  SCOPED_TRACE(::testing::Message()
               << "seed " << seed << " (replay: P3PDB_SERVING_TIER_SEED="
               << seed << ")");
  const std::vector<p3p::Policy> named =
      workload::FortuneCorpus({.policy_count = 20});
  Random rng(seed);
  LockstepPair pair;
  auto tier = ShardedPolicyServer::Create(TierOptions(2));
  ASSERT_TRUE(tier.ok()) << tier.status().message();
  pair.tier = std::move(tier.value());
  PolicyServer::Options single_options;
  single_options.engine = EngineKind::kSql;
  auto single = PolicyServer::Create(single_options);
  ASSERT_TRUE(single.ok()) << single.status().message();
  pair.single = std::move(single.value());
  const p3p::ReferenceFile rf = workload::CorpusReferenceFile(named);
  ASSERT_TRUE(pair.tier->InstallReferenceFile(rf).ok());
  ASSERT_TRUE(pair.single->InstallReferenceFile(rf).ok());
  std::vector<appel::AppelRuleset> rulesets = {
      JrcPreference(PreferenceLevel::kHigh),
      JrcPreference(PreferenceLevel::kLow)};
  rulesets.push_back(
      workload::RandomPreference(&rng, workload::RandomPreferenceOptions{}));
  for (const appel::AppelRuleset& ruleset : rulesets) {
    auto tier_pref = pair.tier->CompilePreference(ruleset);
    auto single_pref = pair.single->CompilePreference(ruleset);
    ASSERT_TRUE(tier_pref.ok() && single_pref.ok());
    pair.tier_prefs.push_back(std::move(tier_pref.value()));
    pair.single_prefs.push_back(std::move(single_pref.value()));
  }

  for (size_t fresh = 0; pair.tier_ids.size() < 30;) {
    p3p::Policy policy;
    if (fresh == named.size() || (fresh > 0 && rng.Uniform(3) == 0)) {
      policy = named[rng.Uniform(named.size())];
      policy.name = named[rng.Uniform(fresh)].name;
    } else {
      policy = named[fresh++];
    }
    auto tier_id = pair.tier->InstallPolicy(policy);
    auto single_id = pair.single->InstallPolicy(policy);
    ASSERT_TRUE(tier_id.ok() && single_id.ok());
    pair.tier_ids.push_back(tier_id.value());
    pair.single_ids.push_back(single_id.value());
    for (int m = 0; m < 8; ++m) {
      const size_t pref = rng.Uniform(rulesets.size());
      if (rng.Uniform(2) == 0) {
        const size_t i = rng.Uniform(pair.tier_ids.size());
        ASSERT_TRUE(
            pair.tier->MatchPolicyId(pair.tier_prefs[pref], pair.tier_ids[i])
                .ok());
        ASSERT_TRUE(pair.single
                        ->MatchPolicyId(pair.single_prefs[pref],
                                        pair.single_ids[i])
                        .ok());
      } else {
        const std::string path =
            "/" + named[rng.Uniform(named.size())].name + "/index.html";
        ASSERT_TRUE(pair.tier->MatchUri(pair.tier_prefs[pref], path).ok());
        ASSERT_TRUE(
            pair.single->MatchUri(pair.single_prefs[pref], path).ok());
      }
    }
  }

  const std::vector<ConflictCount> want = pair.single->ConflictReport();
  std::vector<ConflictCount> got = pair.tier->ConflictReport();
  for (ConflictCount& row : got) {
    const auto install = std::find(pair.tier_ids.begin(), pair.tier_ids.end(),
                                   row.policy_id);
    ASSERT_NE(install, pair.tier_ids.end()) << row.policy_id;
    row.policy_id = pair.single_ids[install - pair.tier_ids.begin()];
  }
  std::sort(got.begin(), got.end(), [](const auto& a, const auto& b) {
    return std::tie(a.policy_id, a.behavior) <
           std::tie(b.policy_id, b.behavior);
  });
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(got, want);
}

// /healthz reads each shard's poisoned flag without taking the install
// lock, so it answers while an install waits for its durable commit (here
// a 300 ms group-commit window).
TEST(ServingTierTest, HealthzDoesNotWaitForARunningInstall) {
  const std::string dir = TestDir("healthz_install");
  ShardedPolicyServer::Options options = TierOptions(2);
  options.storage_path = dir;
  options.storage_group_commit_window_us = 300000;
  auto tier = ShardedPolicyServer::Create(options);
  ASSERT_TRUE(tier.ok()) << tier.status().message();
  std::thread installer([&] {
    EXPECT_TRUE(
        tier.value()->InstallPolicy(workload::FortuneCorpus()[0]).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto start = std::chrono::steady_clock::now();
  const std::string healthz = tier.value()->RenderHealthzJson();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  installer.join();
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
  EXPECT_NE(healthz.find("\"status\":\"ok\""), std::string::npos)
      << healthz;
  tier.value().reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace p3pdb::server
