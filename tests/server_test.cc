// Tests for the PolicyServer facade: engine setup, policy versioning,
// reference-file replacement, match logging / conflict analytics, and the
// option validation rules.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "server/policy_server.h"
#include "workload/corpus.h"
#include "workload/jrc_preferences.h"
#include "workload/paper_examples.h"

namespace p3pdb::server {
namespace {

using workload::JanePreference;
using workload::VolgaPolicy;
using workload::VolgaReferenceFile;

std::unique_ptr<PolicyServer> MustCreate(PolicyServer::Options options) {
  auto server = PolicyServer::Create(options);
  EXPECT_TRUE(server.ok()) << server.status();
  return std::move(server).value();
}

TEST(PolicyServerTest, CreateRejectsPerMatchAugmentationForSql) {
  PolicyServer::Options options;
  options.engine = EngineKind::kSql;
  options.augmentation = Augmentation::kPerMatch;
  auto server = PolicyServer::Create(options);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
}

TEST(PolicyServerTest, InstallRejectsInvalidPolicy) {
  auto server = MustCreate({});
  p3p::Policy bad;
  bad.name = "bad";
  EXPECT_FALSE(server->InstallPolicy(bad).ok());
}

TEST(PolicyServerTest, VersioningTracksReinstalls) {
  auto server = MustCreate({});
  p3p::Policy v1 = VolgaPolicy();
  auto id1 = server->InstallPolicy(v1);
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(server->PolicyVersion("volga"), 1);

  // The site softens its policy: recommendations become opt-out.
  p3p::Policy v2 = VolgaPolicy();
  v2.statements[1].purposes[0].required = p3p::Required::kOptOut;
  auto id2 = server->InstallPolicy(v2);
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(id1.value(), id2.value());
  EXPECT_EQ(server->PolicyVersion("volga"), 2);

  // Both versions remain retrievable from the catalog.
  auto xml1 = server->PolicyXml("volga", 1);
  auto xml2 = server->PolicyXml("volga", 2);
  ASSERT_TRUE(xml1.ok());
  ASSERT_TRUE(xml2.ok());
  EXPECT_NE(xml1.value(), xml2.value());
  EXPECT_NE(xml2.value().find("opt-out"), std::string::npos);
  EXPECT_FALSE(server->PolicyXml("volga", 3).ok());
  EXPECT_EQ(server->PolicyVersion("unknown"), 0);
}

TEST(PolicyServerTest, InstallsOfDistinctNamesShareOnePlan) {
  // An install looks up the name's latest version with the name bound as a
  // parameter: one cached plan serves every install, instead of one plan
  // per name that a shared plan cache would carry until evicted. With the
  // cost model on, the growing catalog still drifts its tables past 2x
  // now and then, and each drift re-plans (a re-cost, not a new text).
  for (const bool cost_model : {false, true}) {
    SCOPED_TRACE(cost_model ? "cost model" : "rule-only");
    PolicyServer::Options options;
    options.enable_planner = true;  // and with it the plan cache
    options.enable_cost_model = cost_model;
    auto server = MustCreate(options);
    const sqldb::Database& db = *server->database();
    const std::vector<p3p::Policy> corpus =
        workload::FortuneCorpus({.policy_count = 50});
    const auto new_texts = [&db, before = db.stats()] {
      const sqldb::ExecStats now = db.stats();
      return (now.plans_built - before.plans_built) -
             (now.plan_recosts - before.plan_recosts);
    };
    for (const p3p::Policy& policy : corpus) {
      ASSERT_TRUE(server->InstallPolicy(policy).ok()) << policy.name;
    }
    EXPECT_LE(new_texts(), 2u);
    if (!cost_model) EXPECT_EQ(db.stats().plan_recosts, 0u);
    // Reading the versions back plans one more statement, not one per name.
    for (const p3p::Policy& policy : corpus) {
      ASSERT_TRUE(server->PolicyXml(policy.name, 1).ok()) << policy.name;
    }
    EXPECT_LE(new_texts(), 3u);
  }
}

TEST(PolicyServerTest, ReferenceFileResolvesToLatestVersion) {
  auto server = MustCreate({});
  ASSERT_TRUE(server->InstallPolicy(VolgaPolicy()).ok());
  p3p::Policy v2 = VolgaPolicy();
  v2.statements[0].recipients.push_back(
      p3p::RecipientItem{"unrelated", p3p::Required::kAlways});
  auto id2 = server->InstallPolicy(v2);
  ASSERT_TRUE(id2.ok());
  ASSERT_TRUE(server->InstallReferenceFile(VolgaReferenceFile()).ok());

  auto pref = server->CompilePreference(JanePreference());
  ASSERT_TRUE(pref.ok());
  auto result = server->MatchUri(pref.value(), "/catalog");
  ASSERT_TRUE(result.ok());
  // The newer, leakier version is in force: Jane blocks it.
  EXPECT_EQ(result.value().policy_id, id2.value());
  EXPECT_EQ(result.value().behavior, "block");
}

TEST(PolicyServerTest, ReferenceFileReplacement) {
  auto server = MustCreate({});
  ASSERT_TRUE(server->InstallPolicy(VolgaPolicy()).ok());
  ASSERT_TRUE(server->InstallReferenceFile(VolgaReferenceFile()).ok());
  auto pref = server->CompilePreference(JanePreference());
  ASSERT_TRUE(pref.ok());

  // Replace with a reference file that only covers /shop.
  p3p::ReferenceFile narrow;
  p3p::PolicyRef ref;
  ref.about = "/P3P/policies.xml#volga";
  ref.includes.push_back("/shop/*");
  narrow.AddRef(ref);
  ASSERT_TRUE(server->InstallReferenceFile(narrow).ok());

  auto covered = server->MatchUri(pref.value(), "/shop/cart");
  ASSERT_TRUE(covered.ok());
  EXPECT_TRUE(covered.value().policy_found);
  auto uncovered = server->MatchUri(pref.value(), "/catalog");
  ASSERT_TRUE(uncovered.ok());
  EXPECT_FALSE(uncovered.value().policy_found);
}

TEST(PolicyServerTest, MatchUriWithoutReferenceFileFails) {
  auto server = MustCreate({});
  ASSERT_TRUE(server->InstallPolicy(VolgaPolicy()).ok());
  auto pref = server->CompilePreference(JanePreference());
  ASSERT_TRUE(pref.ok());
  EXPECT_FALSE(server->MatchUri(pref.value(), "/x").ok());
}

TEST(PolicyServerTest, ConflictReportAggregatesMatchLog) {
  // Every match that found a policy is logged once, whether it was computed
  // or served from the match cache, and a URI that no policy covers (the
  // reference file excludes /about/*) logs nothing. So the report is the
  // same with the cache on and off, on every engine.
  constexpr EngineKind kEngines[] = {
      EngineKind::kNativeAppel, EngineKind::kSql, EngineKind::kSqlSimple,
      EngineKind::kXQueryNative, EngineKind::kXQueryXTable};
  constexpr int kRepeats = 2;
  const std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  for (EngineKind engine : kEngines) {
    std::string uncached_report;
    for (bool cached : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << EngineKindName(engine) << " cache=" << cached);
      PolicyServer::Options options;
      options.engine = engine;
      options.record_matches = true;
      options.enable_match_cache = cached;
      auto server = MustCreate(options);
      std::vector<int64_t> ids;
      for (const p3p::Policy& policy : corpus) {
        auto id = server->InstallPolicy(policy);
        ASSERT_TRUE(id.ok()) << id.status();
        ids.push_back(id.value());
      }
      ASSERT_TRUE(server->InstallPolicy(VolgaPolicy()).ok());
      ASSERT_TRUE(server->InstallReferenceFile(VolgaReferenceFile()).ok());
      auto pref = server->CompilePreference(
          workload::JrcPreference(workload::PreferenceLevel::kHigh));
      ASSERT_TRUE(pref.ok()) << pref.status();
      // Every match after the first of each subject is a cache hit on the
      // cached server.
      for (int i = 0; i < kRepeats; ++i) {
        for (int64_t id : ids) {
          ASSERT_TRUE(server->MatchPolicyId(pref.value(), id).ok());
        }
        auto covered = server->MatchUri(pref.value(), "/catalog/specials");
        ASSERT_TRUE(covered.ok()) << covered.status();
        EXPECT_TRUE(covered.value().policy_found);
        auto excluded = server->MatchUri(pref.value(), "/about/team");
        ASSERT_TRUE(excluded.ok()) << excluded.status();
        EXPECT_FALSE(excluded.value().policy_found);
      }

      auto report = server->ConflictReport();
      ASSERT_TRUE(report.ok()) << report.status();
      int64_t total = 0;
      bool saw_block = false, saw_request = false;
      std::string rendered;
      for (const auto& row : report.value().rows) {
        EXPECT_GE(row[0].AsInteger(), 0) << "a no-policy match was logged";
        total += row[2].AsInteger();
        if (row[1].AsText() == "block") saw_block = true;
        if (row[1].AsText() == "request") saw_request = true;
        rendered += std::to_string(row[0].AsInteger()) + " " +
                    row[1].AsText() + " " +
                    std::to_string(row[2].AsInteger()) + "\n";
      }
      EXPECT_EQ(total, kRepeats * static_cast<int64_t>(ids.size() + 1));
      // The site owner sees both conforming and conflicting policies.
      EXPECT_TRUE(saw_block);
      EXPECT_TRUE(saw_request);
      if (cached) {
        EXPECT_EQ(rendered, uncached_report);
      } else {
        uncached_report = rendered;
      }
    }
  }
}

TEST(PolicyServerTest, CompileRejectsInvalidRuleset) {
  auto server = MustCreate({});
  appel::AppelRuleset empty;
  EXPECT_FALSE(server->CompilePreference(empty).ok());
}

TEST(PolicyServerTest, SqlEngineUsesIndexes) {
  auto server = MustCreate({});
  for (const p3p::Policy& policy : workload::FortuneCorpus()) {
    ASSERT_TRUE(server->InstallPolicy(policy).ok());
  }
  auto pref = server->CompilePreference(JanePreference());
  ASSERT_TRUE(pref.ok());
  server->database()->ResetStats();
  ASSERT_TRUE(
      server->MatchPolicyId(pref.value(), server->policy_ids()[5]).ok());
  const sqldb::ExecStats& stats = server->database()->stats();
  // The policy-id joins must be served by indexes, not repeated scans of
  // the whole Purpose/Statement tables.
  EXPECT_GT(stats.index_lookups, 0u);
}

TEST(PolicyServerTest, EngineKindNames) {
  EXPECT_STREQ(EngineKindName(EngineKind::kSql), "sql");
  EXPECT_STREQ(EngineKindName(EngineKind::kNativeAppel), "native-appel");
  EXPECT_STREQ(EngineKindName(EngineKind::kSqlSimple), "sql-simple");
  EXPECT_STREQ(EngineKindName(EngineKind::kXQueryNative), "xquery-native");
  EXPECT_STREQ(EngineKindName(EngineKind::kXQueryXTable), "xquery-xtable");
}

TEST(PolicyServerTest, XTableServerWithTightBudgetRejectsMedium) {
  PolicyServer::Options options;
  options.engine = EngineKind::kXQueryXTable;
  options.max_subquery_depth = 6;
  auto server = MustCreate(options);
  ASSERT_TRUE(server->InstallPolicy(VolgaPolicy()).ok());
  auto medium = server->CompilePreference(
      workload::JrcPreference(workload::PreferenceLevel::kMedium));
  ASSERT_FALSE(medium.ok());
  EXPECT_EQ(medium.status().code(), StatusCode::kLimitExceeded);
  EXPECT_TRUE(server
                  ->CompilePreference(workload::JrcPreference(
                      workload::PreferenceLevel::kHigh))
                  .ok());
}

}  // namespace
}  // namespace p3pdb::server
