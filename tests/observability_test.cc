// End-to-end observability tests: the match path's trace shape on both
// engines, the §6.3.2 category-augmentation finding reproduced by counters
// (deterministic — no wall-clock assertions), server/proxy metrics, and the
// per-subject match contract.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>

#include "obs/trace.h"
#include "server/policy_server.h"
#include "server/proxy_service.h"
#include "workload/paper_examples.h"

namespace p3pdb::server {
namespace {

using obs::TraceContext;
using obs::TraceSpan;

Result<std::unique_ptr<PolicyServer>> MakeSqlServer(
    bool record_matches = false, bool use_prepared_statements = false) {
  PolicyServer::Options options;
  options.engine = EngineKind::kSql;
  options.record_matches = record_matches;
  options.use_prepared_statements = use_prepared_statements;
  P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<PolicyServer> server,
                         PolicyServer::Create(options));
  P3PDB_RETURN_IF_ERROR(
      server->InstallPolicy(workload::VolgaPolicy()).status());
  P3PDB_RETURN_IF_ERROR(
      server->InstallReferenceFile(workload::VolgaReferenceFile()));
  return server;
}

// Collects every "work" counter in the tree, keyed by span name.
void CollectWork(const TraceSpan& span,
                 std::vector<std::pair<std::string, uint64_t>>* out) {
  for (const auto& [key, value] : span.counters) {
    if (key == "work") out->emplace_back(span.name, value);
  }
  for (const auto& child : span.children) CollectWork(*child, out);
}

TEST(ObservabilityTest, Section6AugmentationDominatesByCounter) {
  // §6.3.2: on the native APPEL engine with per-match augmentation, the
  // dominant cost of a match is augmenting the policy with the category
  // schema — not evaluating the rule connectives. The spans carry explicit
  // work counters (elements visited), so the comparison is deterministic.
  auto server = PolicyServer::Create({.engine = EngineKind::kNativeAppel,
                                      .augmentation = Augmentation::kPerMatch});
  ASSERT_TRUE(server.ok());
  auto policy_id = server.value()->InstallPolicy(workload::VolgaPolicy());
  ASSERT_TRUE(policy_id.ok());
  auto pref = server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(pref.ok());

  TraceContext trace;
  auto result = server.value()->MatchPolicyId(pref.value(), policy_id.value(),
                                              &trace);
  ASSERT_TRUE(result.ok());

  const TraceSpan* aug = trace.FindSpan("category-augmentation");
  const TraceSpan* eval = trace.FindSpan("connective-eval");
  ASSERT_NE(aug, nullptr) << trace.RenderText();
  ASSERT_NE(eval, nullptr) << trace.RenderText();
  EXPECT_GT(aug->CounterValue("work"), 0u);
  EXPECT_GT(aug->CounterValue("work"), eval->CounterValue("work"))
      << trace.RenderText();

  // Strictly the largest work counter anywhere in the tree.
  std::vector<std::pair<std::string, uint64_t>> work;
  CollectWork(*trace.root(), &work);
  for (const auto& [name, value] : work) {
    if (name == "category-augmentation") continue;
    EXPECT_LT(value, aug->CounterValue("work")) << name;
  }
}

TEST(ObservabilityTest, PreAugmentedEngineSkipsAugmentationSpan) {
  // With schema-augmented storage (the paper's fix), per-match augmentation
  // disappears from the trace entirely.
  auto server =
      PolicyServer::Create({.engine = EngineKind::kNativeAppel,
                            .augmentation = Augmentation::kAtInstall});
  ASSERT_TRUE(server.ok());
  auto policy_id = server.value()->InstallPolicy(workload::VolgaPolicy());
  ASSERT_TRUE(policy_id.ok());
  auto pref = server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(pref.ok());
  TraceContext trace;
  ASSERT_TRUE(server.value()
                  ->MatchPolicyId(pref.value(), policy_id.value(), &trace)
                  .ok());
  EXPECT_EQ(trace.FindSpan("category-augmentation"), nullptr)
      << trace.RenderText();
  EXPECT_NE(trace.FindSpan("connective-eval"), nullptr) << trace.RenderText();
}

TEST(ObservabilityTest, SqlMatchTraceShape) {
  auto server = MakeSqlServer(/*record_matches=*/true);
  ASSERT_TRUE(server.ok());
  auto pref = server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(pref.ok());

  TraceContext trace;
  auto result = server.value()->MatchUri(pref.value(), "/catalog/specials",
                                         &trace);
  ASSERT_TRUE(result.ok());

  const TraceSpan* root = trace.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "match");
  // The match pipeline: reference-file lookup, then rule queries against
  // the shredded policy, each backed by the SQL executor spans.
  const TraceSpan* ref = root->FindChild("ref-lookup");
  ASSERT_NE(ref, nullptr) << trace.RenderText();
  EXPECT_NE(trace.FindSpan("sql-execute"), nullptr) << trace.RenderText();
  EXPECT_NE(trace.FindSpan("rule-query"), nullptr) << trace.RenderText();
  EXPECT_NE(trace.FindSpan("record-match"), nullptr) << trace.RenderText();

  // The rendered tree carries the engine attribute and per-span counters.
  std::string text = trace.RenderText();
  EXPECT_NE(text.find("engine=sql"), std::string::npos) << text;
}

TEST(ObservabilityTest, TracedCompileHasTranslateAndPrepareSpans) {
  auto server = MakeSqlServer(/*record_matches=*/false,
                              /*use_prepared_statements=*/true);
  ASSERT_TRUE(server.ok());
  TraceContext trace;
  auto pref = server.value()->CompilePreference(workload::JanePreference(),
                                                &trace);
  ASSERT_TRUE(pref.ok());
  const TraceSpan* root = trace.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "compile-preference");
  EXPECT_NE(root->FindChild("translate"), nullptr) << trace.RenderText();
  EXPECT_NE(root->FindChild("prepare"), nullptr) << trace.RenderText();
}

TEST(ObservabilityTest, ServerMetricsCountMatches) {
  auto server = MakeSqlServer();
  ASSERT_TRUE(server.ok());
  auto pref = server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(pref.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        server.value()->MatchUri(pref.value(), "/catalog/specials").ok());
  }

  obs::MetricsSnapshot snap = server.value()->MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("p3p_matches_total"), 3u);
  EXPECT_EQ(snap.counters.at("p3p_match_errors_total"), 0u);
  EXPECT_EQ(snap.counters.at("p3p_preference_compiles_total"), 1u);
  EXPECT_GE(snap.counters.at("p3p_rule_queries_total"), 1u);
  EXPECT_EQ(snap.gauges.at("p3p_policies_installed"), 1);
  EXPECT_EQ(snap.histograms.at("p3p_match_duration_us").count, 3u);

  // The match cache is on by default: the first identical match misses and
  // the two repeats are warm hits, mirrored into the registry.
  EXPECT_EQ(snap.counters.at("p3p_match_cache_hits_total"), 2u);
  EXPECT_EQ(snap.counters.at("p3p_match_cache_misses_total"), 1u);
  EXPECT_EQ(snap.gauges.at("p3p_match_cache_entries"), 1);
  EXPECT_EQ(snap.histograms.at("p3p_match_cache_hit_duration_us").count, 2u);
  EXPECT_EQ(snap.histograms.at("p3p_match_cache_miss_duration_us").count, 1u);

  // Both renderings carry the same counter.
  EXPECT_NE(
      server.value()->RenderMetricsText().find("p3p_matches_total 3"),
      std::string::npos);
  EXPECT_NE(
      server.value()->RenderMetricsJson().find("\"p3p_matches_total\": 3"),
      std::string::npos);
}

TEST(ObservabilityTest, MetricsCanBeDisabled) {
  PolicyServer::Options options;
  options.engine = EngineKind::kSql;
  options.collect_metrics = false;
  auto server = PolicyServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->InstallPolicy(workload::VolgaPolicy()).ok());
  ASSERT_TRUE(server.value()
                  ->InstallReferenceFile(workload::VolgaReferenceFile())
                  .ok());
  auto pref = server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(pref.ok());
  ASSERT_TRUE(
      server.value()->MatchUri(pref.value(), "/catalog/specials").ok());
  obs::MetricsSnapshot snap = server.value()->MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("p3p_matches_total"), 0u);
  EXPECT_EQ(snap.histograms.at("p3p_match_duration_us").count, 0u);
}

TEST(ObservabilityTest, ProxyCountsRequestsAndForwardsTrace) {
  PolicyServer::Options site_options;
  site_options.engine = EngineKind::kSql;
  ProxyService proxy(site_options);
  auto site = proxy.AddSite("books.example");
  ASSERT_TRUE(site.ok());
  ASSERT_TRUE(site.value()->InstallPolicy(workload::VolgaPolicy()).ok());
  ASSERT_TRUE(
      site.value()->InstallReferenceFile(workload::VolgaReferenceFile()).ok());
  ASSERT_TRUE(proxy.Subscribe("jane", workload::JanePreference()).ok());

  TraceContext trace;
  auto result = proxy.HandleRequest("jane", "books.example",
                                    "/catalog/specials", &trace);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(trace.root(), nullptr);
  EXPECT_EQ(trace.root()->name, "proxy-request");
  // The site server honored the forwarded context: its match span nests
  // under the proxy's.
  EXPECT_NE(trace.FindSpan("match"), nullptr) << trace.RenderText();

  auto missing = proxy.HandleRequest("jane", "nowhere.example", "/");
  EXPECT_FALSE(missing.ok());

  obs::MetricsSnapshot snap = proxy.MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("proxy_requests_total"), 2u);
  EXPECT_EQ(snap.counters.at("proxy_request_errors_total"), 1u);
  EXPECT_EQ(snap.histograms.at("proxy_request_duration_us").count, 2u);
}

// The per-subject match contract every Match* entry point keeps: one root
// `match` span carrying the subject attribute and (on a cached server) the
// cache outcome, one tally per match routed into the hit/miss histograms,
// one MatchLog row per match with cache hits included, and NotFound for an
// id that was never installed.
enum class Subject { kPolicyId, kUri, kCookie };

constexpr const char* kContractPath = "/catalog/specials";

std::optional<std::string> SpanAttr(const TraceSpan& span,
                                    std::string_view key) {
  for (const auto& [name, value] : span.attributes) {
    if (name == key) return value;
  }
  return std::nullopt;
}

Result<MatchResult> MatchSubjectOnce(PolicyServer* server,
                                     const CompiledPreference& pref,
                                     Subject subject, int64_t policy_id,
                                     TraceContext* trace) {
  switch (subject) {
    case Subject::kPolicyId:
      return server->MatchPolicyId(pref, policy_id, trace);
    case Subject::kUri:
      return server->MatchUri(pref, kContractPath, trace);
    case Subject::kCookie:
      return server->MatchCookie(pref, kContractPath, trace);
  }
  return Status::Internal("unreachable");
}

void CheckMatchContract(EngineKind engine, bool enable_match_cache) {
  for (Subject subject : {Subject::kPolicyId, Subject::kUri, Subject::kCookie}) {
    SCOPED_TRACE(::testing::Message()
                 << EngineKindName(engine) << " cache=" << enable_match_cache
                 << " subject=" << static_cast<int>(subject));
    PolicyServer::Options options;
    options.engine = engine;
    options.record_matches = true;
    options.enable_match_cache = enable_match_cache;
    auto server = PolicyServer::Create(options);
    ASSERT_TRUE(server.ok()) << server.status();
    auto policy_id = server.value()->InstallPolicy(workload::VolgaPolicy());
    ASSERT_TRUE(policy_id.ok()) << policy_id.status();
    ASSERT_TRUE(server.value()
                    ->InstallReferenceFile(workload::VolgaReferenceFile())
                    .ok());
    auto pref = server.value()->CompilePreference(workload::JanePreference());
    ASSERT_TRUE(pref.ok()) << pref.status();
    const bool cached = server.value()->match_cache() != nullptr;
    EXPECT_EQ(cached, enable_match_cache);

    constexpr int kMatches = 3;
    std::string first_behavior;
    for (int i = 0; i < kMatches; ++i) {
      TraceContext trace;
      auto result = MatchSubjectOnce(server.value().get(), pref.value(),
                                     subject, policy_id.value(), &trace);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_TRUE(result.value().policy_found);
      EXPECT_EQ(result.value().policy_id, policy_id.value());
      if (i == 0) first_behavior = result.value().behavior;
      EXPECT_EQ(result.value().behavior, first_behavior);

      const TraceSpan* root = trace.root();
      ASSERT_NE(root, nullptr);
      EXPECT_EQ(root->name, "match");
      EXPECT_EQ(SpanAttr(*root, "engine"),
                std::optional<std::string>(EngineKindName(engine)));
      EXPECT_EQ(SpanAttr(*root, "uri"),
                subject == Subject::kUri
                    ? std::optional<std::string>(kContractPath)
                    : std::nullopt)
          << trace.RenderText();
      EXPECT_EQ(SpanAttr(*root, "cookie"),
                subject == Subject::kCookie
                    ? std::optional<std::string>(kContractPath)
                    : std::nullopt)
          << trace.RenderText();
      const bool hit = cached && i > 0;
      EXPECT_EQ(SpanAttr(*root, "cache"),
                cached ? std::optional<std::string>(hit ? "hit" : "miss")
                       : std::nullopt)
          << trace.RenderText();
      EXPECT_EQ(SpanAttr(*root, "behavior"),
                std::optional<std::string>(first_behavior));
      // Only a computed URI/cookie match resolves the reference file.
      EXPECT_EQ(root->FindChild("ref-lookup") != nullptr,
                subject != Subject::kPolicyId && !hit)
          << trace.RenderText();
      EXPECT_NE(root->FindChild("record-match"), nullptr)
          << trace.RenderText();
    }

    obs::MetricsSnapshot snap = server.value()->MetricsSnapshot();
    EXPECT_EQ(snap.counters.at("p3p_matches_total"),
              static_cast<uint64_t>(kMatches));
    EXPECT_EQ(snap.counters.at("p3p_match_errors_total"), 0u);
    EXPECT_EQ(snap.histograms.at("p3p_match_duration_us").count,
              static_cast<uint64_t>(kMatches));
    EXPECT_EQ(snap.histograms.at("p3p_match_cache_hit_duration_us").count,
              cached ? static_cast<uint64_t>(kMatches - 1) : 0u);
    EXPECT_EQ(snap.histograms.at("p3p_match_cache_miss_duration_us").count,
              cached ? 1u : 0u);

    // One MatchLog row per match, cache hits included.
    auto report = server.value()->ConflictReport();
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report.value().rows.size(), 1u);
    EXPECT_EQ(report.value().rows[0][0].AsInteger(), policy_id.value());
    EXPECT_EQ(report.value().rows[0][1].AsText(), first_behavior);
    EXPECT_EQ(report.value().rows[0][2].AsInteger(), kMatches);

    auto unknown = server.value()->MatchPolicyId(pref.value(), 999);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound)
        << unknown.status();
  }
}

TEST(ObservabilityTest, MatchContractPerSubjectOnCachedSqlServer) {
  CheckMatchContract(EngineKind::kSql, /*enable_match_cache=*/true);
}

TEST(ObservabilityTest, MatchContractPerSubjectOnUncachedSqlServer) {
  CheckMatchContract(EngineKind::kSql, /*enable_match_cache=*/false);
}

TEST(ObservabilityTest, MatchContractPerSubjectOnXTableServer) {
  // XTABLE binds the policy id like the other SQL engines, so it is cached
  // and shares the lock.
  CheckMatchContract(EngineKind::kXQueryXTable, /*enable_match_cache=*/true);
}

}  // namespace
}  // namespace p3pdb::server
