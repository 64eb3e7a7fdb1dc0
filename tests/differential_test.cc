// Cross-engine differential harness.
//
// Draws seeded random (policy, preference) pairs — corpus policies crossed
// with preferences from the full pattern grammar — and checks that every
// read-only engine, plus the memoized (cached) match path exercised both
// cold and warm, reports byte-identical behavior and fired rule. One
// disagreement fails the suite loudly: the harness greedily minimizes the
// pair (dropping preference rules, then policy statements, while the
// disagreement persists) and prints the minimized preference and policy
// XML, and writes the same repro to differential_failure.txt so CI can
// upload it as an artifact.
//
// A second check cross-examines URI and cookie resolution: a seeded
// reference file and install stream, every engine plus a 2-shard tier
// resolving the same probe paths (EnginesAndTierAgreeOnUriResolution).
//
// The seed comes from P3PDB_DIFFERENTIAL_SEED (default 2003) so a CI
// failure can be replayed locally with the same draw.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
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
#include "workload/random_preferences.h"

namespace p3pdb {
namespace {

using server::Augmentation;
using server::CompiledPreference;
using server::EngineKind;
using server::MatchResult;
using server::PolicyServer;
using workload::RandomPreference;
using workload::RandomPreferenceOptions;

constexpr const char* kFailureArtifact = "differential_failure.txt";
/// Written next to the repro on failure: each engine's statement-stats
/// table, so CI shows which rule queries ran (and how hot) when the
/// engines diverged.
constexpr const char* kStatementsArtifact = "differential_statements.txt";

// The engines under differential test. kXQueryXTable is exercised by
// property_test; here the focus is the engine matrix plus the cache.
struct EngineConfig {
  const char* label;
  EngineKind kind;
  bool cached;  // enable the match cache and match each pair twice
  bool disk;    // back the server by the disk storage engine (WAL + pages)
};

constexpr EngineConfig kConfigs[] = {
    {"native-appel", EngineKind::kNativeAppel, false, false},
    {"sql", EngineKind::kSql, false, false},
    {"sql-simple", EngineKind::kSqlSimple, false, false},
    {"xquery-native", EngineKind::kXQueryNative, false, false},
    {"sql+cache", EngineKind::kSql, true, false},
    {"sql+disk", EngineKind::kSql, false, true},
};

/// Applied to each engine's raw result before comparison; the perturbation
/// test injects a fault here to prove the harness fails loudly.
using Perturbation =
    std::function<void(const char* label, bool second_pass, MatchResult*)>;

struct Observation {
  std::string label;   // engine label, "+warm" suffix for the cached repeat
  MatchResult result;
};

struct Disagreement {
  appel::AppelRuleset preference;
  p3p::Policy policy;
  std::vector<Observation> observations;
};

std::unique_ptr<PolicyServer> MakeEngine(const EngineConfig& config) {
  PolicyServer::Options options;
  options.engine = config.kind;
  options.augmentation = config.kind == EngineKind::kNativeAppel
                             ? Augmentation::kPerMatch
                             : Augmentation::kAtInstall;
  options.enable_match_cache = config.cached;
  if (config.disk) {
    // Fresh directory per server: minimization rebuilds engines per
    // candidate and must not recover a previous candidate's catalog.
    static int next_dir = 0;
    options.storage_path =
        ::testing::TempDir() + "p3pdb_diff_disk_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(next_dir++);
    std::filesystem::remove_all(options.storage_path);
  }
  auto server = PolicyServer::Create(options);
  EXPECT_TRUE(server.ok()) << server.status();
  return std::move(server).value();
}

/// Evaluates one (preference, policy) pair on every engine. Returns the
/// observations, or nullopt when the pair is not comparable (a translator
/// legitimately rejects the preference). `on_error` collects hard failures.
std::optional<std::vector<Observation>> Observe(
    const appel::AppelRuleset& preference, const p3p::Policy& policy,
    const Perturbation& perturb, std::string* error) {
  std::vector<Observation> observations;
  for (const EngineConfig& config : kConfigs) {
    std::unique_ptr<PolicyServer> server = MakeEngine(config);
    auto id = server->InstallPolicy(policy);
    if (!id.ok()) {
      *error = std::string(config.label) + ": install: " +
               id.status().ToString();
      return std::nullopt;
    }
    auto compiled = server->CompilePreference(preference);
    if (!compiled.ok()) {
      // Translator rejected the preference (e.g. depth budget): the pair is
      // simply outside this engine matrix; skip it entirely.
      return std::nullopt;
    }
    int passes = config.cached ? 2 : 1;
    for (int pass = 0; pass < passes; ++pass) {
      auto result = server->MatchPolicyId(compiled.value(), id.value());
      if (!result.ok()) {
        *error = std::string(config.label) + ": match: " +
                 result.status().ToString();
        return std::nullopt;
      }
      Observation obs;
      obs.label = config.label;
      if (pass == 1) obs.label += "+warm";
      obs.result = result.value();
      if (perturb) perturb(config.label, pass == 1, &obs.result);
      observations.push_back(std::move(obs));
    }
  }
  return observations;
}

bool Agree(const std::vector<Observation>& observations) {
  for (size_t i = 1; i < observations.size(); ++i) {
    if (observations[i].result.behavior != observations[0].result.behavior ||
        observations[i].result.fired_rule_index !=
            observations[0].result.fired_rule_index) {
      return false;
    }
  }
  return true;
}

/// True when the pair still produces a disagreement (used as the oracle
/// during minimization; inconclusive pairs count as "no disagreement").
bool Disagrees(const appel::AppelRuleset& preference,
               const p3p::Policy& policy, const Perturbation& perturb) {
  if (!preference.Validate().ok() || !policy.Validate().ok()) {
    return false;
  }
  std::string error;
  auto observations = Observe(preference, policy, perturb, &error);
  return observations.has_value() && !Agree(*observations);
}

/// Greedy delta-debugging: drop preference rules, then policy statements,
/// as long as the disagreement persists.
Disagreement Minimize(Disagreement found, const Perturbation& perturb) {
  bool shrunk = true;
  while (shrunk && found.preference.rules.size() > 1) {
    shrunk = false;
    for (size_t i = 0; i < found.preference.rules.size(); ++i) {
      appel::AppelRuleset candidate = found.preference;
      candidate.rules.erase(candidate.rules.begin() +
                            static_cast<long>(i));
      if (Disagrees(candidate, found.policy, perturb)) {
        found.preference = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  shrunk = true;
  while (shrunk && found.policy.statements.size() > 1) {
    shrunk = false;
    for (size_t i = 0; i < found.policy.statements.size(); ++i) {
      p3p::Policy candidate = found.policy;
      candidate.statements.erase(candidate.statements.begin() +
                                 static_cast<long>(i));
      if (Disagrees(found.preference, candidate, perturb)) {
        found.policy = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  // Refresh the observations for the minimized pair so the report shows
  // what each engine says about exactly the repro being printed.
  std::string error;
  auto observations = Observe(found.preference, found.policy, perturb, &error);
  if (observations.has_value()) found.observations = *observations;
  return found;
}

std::string RenderDisagreement(const Disagreement& d, uint64_t seed) {
  std::string out;
  out += "cross-engine disagreement (seed " + std::to_string(seed) + ")\n\n";
  for (const Observation& obs : d.observations) {
    out += "  " + obs.label + ": behavior=" + obs.result.behavior +
           " fired_rule=" + std::to_string(obs.result.fired_rule_index) +
           "\n";
  }
  out += "\nminimized preference (APPEL):\n";
  out += appel::RulesetToText(d.preference);
  out += "\nminimized policy (P3P):\n";
  out += p3p::PolicyToText(d.policy);
  out += "\nreplay: P3PDB_DIFFERENTIAL_SEED=" + std::to_string(seed) +
         " ./differential_test\n";
  return out;
}

void WriteFailureArtifact(const std::string& report) {
  std::ofstream out(kFailureArtifact, std::ios::trunc);
  out << report;
}

uint64_t SeedFromEnv() {
  const char* env = std::getenv("P3PDB_DIFFERENTIAL_SEED");
  if (env == nullptr || *env == '\0') return 2003;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

/// Runs the sweep: `preference_count` random preferences crossed with the
/// corpus, every comparable pair checked on every engine. Returns the first
/// (minimized) disagreement, and the number of pairs actually compared.
std::optional<Disagreement> Sweep(uint64_t seed, int preference_count,
                                  const Perturbation& perturb,
                                  size_t* pairs_checked) {
  // One persistent server per engine amortizes schema installation across
  // the sweep; minimization rebuilds fresh servers per candidate.
  std::vector<p3p::Policy> policies =
      workload::FortuneCorpus({.seed = seed, .policy_count = 29});
  struct Fixture {
    EngineConfig config;
    std::unique_ptr<PolicyServer> server;
    std::vector<int64_t> ids;
  };
  std::vector<Fixture> fixtures;
  for (const EngineConfig& config : kConfigs) {
    Fixture fx{config, MakeEngine(config), {}};
    for (const p3p::Policy& policy : policies) {
      auto id = fx.server->InstallPolicy(policy);
      EXPECT_TRUE(id.ok()) << id.status();
      fx.ids.push_back(id.value());
    }
    fixtures.push_back(std::move(fx));
  }

  Random rng(seed * 7919 + 1);
  RandomPreferenceOptions options;
  options.allow_exact_connectives = false;  // simple-SQL/XQuery boundary
  *pairs_checked = 0;
  for (int p = 0; p < preference_count; ++p) {
    appel::AppelRuleset preference = RandomPreference(&rng, options);
    if (!preference.Validate().ok()) continue;

    std::vector<CompiledPreference> compiled;
    bool all_compiled = true;
    for (Fixture& fx : fixtures) {
      auto c = fx.server->CompilePreference(preference);
      if (!c.ok()) {
        all_compiled = false;
        break;
      }
      compiled.push_back(std::move(c).value());
    }
    if (!all_compiled) continue;

    for (size_t pol = 0; pol < policies.size(); ++pol) {
      std::vector<Observation> observations;
      for (size_t f = 0; f < fixtures.size(); ++f) {
        int passes = fixtures[f].config.cached ? 2 : 1;
        for (int pass = 0; pass < passes; ++pass) {
          auto result = fixtures[f].server->MatchPolicyId(
              compiled[f], fixtures[f].ids[pol]);
          EXPECT_TRUE(result.ok())
              << fixtures[f].config.label << ": " << result.status();
          if (!result.ok()) return std::nullopt;
          Observation obs;
          obs.label = fixtures[f].config.label;
          if (pass == 1) obs.label += "+warm";
          obs.result = result.value();
          if (perturb) {
            perturb(fixtures[f].config.label, pass == 1, &obs.result);
          }
          observations.push_back(std::move(obs));
        }
      }
      ++*pairs_checked;
      if (!Agree(observations)) {
        // Dump every engine's statement telemetry before minimization
        // rebuilds servers: the counts describe the sweep that diverged.
        // The header records the seed and each engine's storage mode so
        // the artifact alone is enough to replay the exact configuration.
        std::string stats_dump = "seed: " + std::to_string(seed) + "\n\n";
        for (const Fixture& fx : fixtures) {
          stats_dump += std::string("== ") + fx.config.label + " ==\n";
          stats_dump += std::string("storage: ") +
                        (fx.config.disk ? "disk" : "in-memory") + "\n";
          stats_dump += fx.server->RenderStatementStatsText(0);
          stats_dump += "\n";
        }
        std::ofstream(kStatementsArtifact, std::ios::trunc) << stats_dump;
        Disagreement found;
        found.preference = preference;
        found.policy = policies[pol];
        found.observations = std::move(observations);
        return Minimize(std::move(found), perturb);
      }
    }
  }
  return std::nullopt;
}

TEST(DifferentialTest, EnginesAndCachedPathAgreeOnRandomPairs) {
  const uint64_t seed = SeedFromEnv();
  size_t pairs_checked = 0;
  // 40 preferences x 29 corpus policies = 1160 candidate pairs; a few drop
  // out when a translator rejects the draw, the floor below keeps the
  // sweep honest.
  std::optional<Disagreement> disagreement =
      Sweep(seed, /*preference_count=*/40, /*perturb=*/nullptr,
            &pairs_checked);
  if (disagreement.has_value()) {
    std::string report = RenderDisagreement(*disagreement, seed);
    WriteFailureArtifact(report);
    FAIL() << report;
  }
  EXPECT_GE(pairs_checked, 1000u)
      << "sweep degenerated: too many draws were rejected";
}

TEST(DifferentialTest, EnginesAgreeWithPlannerDisabled) {
  // The same cross-engine sweep with the EXISTS-decorrelation planner and
  // plan cache globally disabled. P3PDB_NO_PLANNER is read when each
  // Database's options are constructed, so setting it before the fixtures
  // are built inside Sweep() turns the planner off for every SQL engine in
  // the matrix; the correlated fallback path must agree with the native and
  // XQuery engines pair for pair.
  ASSERT_EQ(setenv("P3PDB_NO_PLANNER", "1", /*overwrite=*/1), 0);
  const uint64_t seed = SeedFromEnv();
  size_t pairs_checked = 0;
  std::optional<Disagreement> disagreement =
      Sweep(seed, /*preference_count=*/10, /*perturb=*/nullptr,
            &pairs_checked);
  unsetenv("P3PDB_NO_PLANNER");
  if (disagreement.has_value()) {
    std::string report = RenderDisagreement(*disagreement, seed);
    WriteFailureArtifact(report);
    FAIL() << report;
  }
  EXPECT_GE(pairs_checked, 250u)
      << "sweep degenerated: too many draws were rejected";
}

TEST(DifferentialTest, PerturbedEngineFailsLoudlyWithMinimizedRepro) {
  // Fault injection at the harness layer: misreport one engine's behavior
  // on a slice of the pairs and require the sweep to catch it, minimize
  // it, and produce the repro artifact — the "does the alarm ring" test.
  Perturbation flip = [](const char* label, bool second_pass,
                         MatchResult* result) {
    (void)second_pass;
    if (std::string(label) == "sql-simple" &&
        result->fired_rule_index >= 0) {
      result->behavior += "-perturbed";
    }
  };
  size_t pairs_checked = 0;
  std::optional<Disagreement> disagreement =
      Sweep(/*seed=*/2003, /*preference_count=*/6, flip, &pairs_checked);
  ASSERT_TRUE(disagreement.has_value())
      << "perturbed engine went undetected across " << pairs_checked
      << " pairs";

  std::string report = RenderDisagreement(*disagreement, 2003);
  EXPECT_NE(report.find("sql-simple"), std::string::npos);
  EXPECT_NE(report.find("-perturbed"), std::string::npos);
  EXPECT_NE(report.find("minimized preference"), std::string::npos);
  // Minimization kept the repro small and still-disagreeing.
  EXPECT_TRUE(Disagrees(disagreement->preference, disagreement->policy, flip));
  EXPECT_LE(disagreement->preference.rules.size(), 4u);

  // The artifact machinery CI uploads on failure works end to end.
  WriteFailureArtifact(report);
  std::ifstream artifact(kFailureArtifact);
  ASSERT_TRUE(artifact.good());
  std::string contents((std::istreambuf_iterator<char>(artifact)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, report);
  std::remove(kFailureArtifact);

  // The injected disagreement also produced the statement-stats dump, with
  // the translated rule queries the sweep actually executed.
  std::ifstream stats(kStatementsArtifact);
  ASSERT_TRUE(stats.good());
  std::string stats_contents((std::istreambuf_iterator<char>(stats)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(stats_contents.find("== sql-simple =="), std::string::npos);
  EXPECT_NE(stats_contents.find("fingerprint"), std::string::npos);
  EXPECT_NE(stats_contents.find("select"), std::string::npos);
  // The artifact records the replay seed and each engine's storage mode.
  EXPECT_NE(stats_contents.find("seed: 2003"), std::string::npos);
  EXPECT_NE(stats_contents.find("storage: in-memory"), std::string::npos);
  EXPECT_NE(stats_contents.find("storage: disk"), std::string::npos);
  std::remove(kStatementsArtifact);
}

// URI and cookie resolution, cross-checked. A seeded reference file with
// overlapping includes, excludes and cookie patterns, and one ref (never
// last) naming a policy that is never installed, goes in at a seeded point
// of a seeded install stream; the policies after that point are fresh
// installs and re-installs of names the file's refs name. After the
// reference file and after every later install, the five engines and a
// 2-shard tier must resolve each probe path, by URI and by cookie, to the
// same (found, policy name, version). Ids differ per engine (kSqlSimple's
// are shredder ids), so each server's ids map back through its own log.

/// One server under the URI differential, with its install log.
template <typename Server>
struct UriSubject {
  std::string label;
  std::unique_ptr<Server> server;
  CompiledPreference pref;
  std::map<int64_t, std::string> installs;  // id -> "name v<version>"
};

p3p::ReferenceFile RandomOverlappingReferenceFile(
    Random* rng, const std::vector<std::string>& names) {
  const std::vector<std::string> includes = {
      "/*",           "/shop/*",        "/shop/cart/*",        "/news/*",
      "/news/*.html", "/help/faq.html", "/shop/cart/checkout*"};
  const std::vector<std::string> excludes = {"/shop/cart/*", "*.cgi",
                                             "/news/archive/*", "/help/*"};
  const std::vector<std::string> cookie_includes = {"/*", "/shop/*",
                                                    "/session*", "/news/*"};
  const std::vector<std::string> cookie_excludes = {"/shop/private*",
                                                    "/session-tmp*"};
  auto draw = [&](const std::vector<std::string>& pool, int lo, int hi) {
    std::vector<std::string> out;
    for (int n = rng->UniformInt(lo, hi); n > 0; --n) {
      out.push_back(pool[rng->Uniform(pool.size())]);
    }
    return out;
  };
  constexpr int kRefs = 6;
  const int never_installed = rng->UniformInt(0, kRefs - 2);
  p3p::ReferenceFile rf;
  for (int i = 0; i < kRefs; ++i) {
    p3p::PolicyRef ref;
    ref.about = "/P3P/policies.xml#" +
                (i == never_installed ? std::string("never-installed")
                                      : names[rng->Uniform(names.size())]);
    ref.includes = draw(includes, 1, 2);
    ref.excludes = draw(excludes, 0, 1);
    ref.cookie_includes = draw(cookie_includes, 0, 2);
    ref.cookie_excludes = draw(cookie_excludes, 0, 1);
    rf.AddRef(std::move(ref));
  }
  return rf;
}

TEST(DifferentialTest, EnginesAndTierAgreeOnUriResolution) {
  const uint64_t seed = SeedFromEnv();
  SCOPED_TRACE(::testing::Message() << "replay: P3PDB_DIFFERENTIAL_SEED="
                                    << seed);
  Random rng(seed * 104729 + 7);
  const std::vector<p3p::Policy> corpus =
      workload::FortuneCorpus({.seed = seed, .policy_count = 8});
  std::vector<std::string> names;
  for (const p3p::Policy& policy : corpus) names.push_back(policy.name);
  const p3p::ReferenceFile rf = RandomOverlappingReferenceFile(&rng, names);
  std::vector<std::string> referenced;  // installed names some ref names
  for (const p3p::PolicyRef& ref : rf.refs()) {
    const std::string name = ref.about.substr(ref.about.find('#') + 1);
    if (name != "never-installed") referenced.push_back(name);
  }

  // Before the reference file: a seeded prefix of the corpus. After it:
  // the rest of the corpus, then re-installs of referenced names (another
  // corpus body under the name, so each is a new version).
  const size_t rf_point = 2 + rng.Uniform(corpus.size() - 2);
  std::vector<p3p::Policy> stream(corpus.begin(), corpus.end());
  for (int i = 0; i < 5; ++i) {
    p3p::Policy again = corpus[rng.Uniform(corpus.size())];
    again.name = referenced[rng.Uniform(referenced.size())];
    stream.push_back(std::move(again));
  }

  const std::vector<std::string> probes = {
      "/",
      "/index.html",
      "/shop/item.html",
      "/shop/cart/view",
      "/shop/cart/checkout.cgi",
      "/shop/cart/checkout2",
      "/shop/private/y",
      "/news/today.html",
      "/news/archive/old.html",
      "/news/feed.xml",
      "/help/faq.html",
      "/help/other.html",
      "/session",
      "/session-tmp/x",
      "/unlisted"};
  const appel::AppelRuleset ruleset =
      workload::JrcPreference(workload::PreferenceLevel::kHigh);

  std::vector<UriSubject<PolicyServer>> engines;
  for (auto [label, kind] :
       {std::pair{"native-appel", EngineKind::kNativeAppel},
        std::pair{"sql", EngineKind::kSql},
        std::pair{"sql-simple", EngineKind::kSqlSimple},
        std::pair{"xquery-native", EngineKind::kXQueryNative},
        std::pair{"xquery-xtable", EngineKind::kXQueryXTable}}) {
    PolicyServer::Options options;
    options.engine = kind;
    auto server = PolicyServer::Create(options);
    ASSERT_TRUE(server.ok()) << server.status();
    auto pref = server.value()->CompilePreference(ruleset);
    ASSERT_TRUE(pref.ok()) << label << ": " << pref.status();
    engines.push_back(
        {label, std::move(server).value(), std::move(pref).value(), {}});
  }
  UriSubject<server::ShardedPolicyServer> tier;
  {
    server::ShardedPolicyServer::Options options;
    options.shards = 2;
    auto created = server::ShardedPolicyServer::Create(options);
    ASSERT_TRUE(created.ok()) << created.status();
    auto pref = created.value()->CompilePreference(ruleset);
    ASSERT_TRUE(pref.ok()) << pref.status();
    tier = {"tier", std::move(created).value(), std::move(pref).value(), {}};
  }

  std::map<std::string, int> versions;
  auto install = [&](auto& subject, const p3p::Policy& policy,
                     const std::string& name_version) {
    auto id = subject.server->InstallPolicy(policy);
    ASSERT_TRUE(id.ok()) << subject.label << ": " << id.status();
    subject.installs[id.value()] = name_version;
  };
  auto resolve = [&](auto& subject, const std::string& path, bool cookie) {
    auto r = cookie ? subject.server->MatchCookie(subject.pref, path)
                    : subject.server->MatchUri(subject.pref, path);
    if (!r.ok()) return "error: " + r.status().ToString();
    if (!r.value().policy_found) return std::string("no-policy");
    auto it = subject.installs.find(r.value().policy_id);
    return it != subject.installs.end()
               ? it->second
               : "unknown id " + std::to_string(r.value().policy_id);
  };
  auto expect_agreement = [&](size_t step) {
    for (bool cookie : {false, true}) {
      for (const std::string& path : probes) {
        const std::string want = resolve(tier, path, cookie);
        for (UriSubject<PolicyServer>& engine : engines) {
          EXPECT_EQ(resolve(engine, path, cookie), want)
              << engine.label << " vs tier, " << (cookie ? "cookie " : "")
              << path << ", after install " << step;
        }
      }
    }
  };

  for (size_t i = 0; i < stream.size(); ++i) {
    if (i == rf_point) {
      for (UriSubject<PolicyServer>& engine : engines) {
        ASSERT_TRUE(engine.server->InstallReferenceFile(rf).ok());
      }
      ASSERT_TRUE(tier.server->InstallReferenceFile(rf).ok());
      expect_agreement(i);
    }
    const p3p::Policy& policy = stream[i];
    const std::string name_version =
        policy.name + " v" + std::to_string(++versions[policy.name]);
    for (UriSubject<PolicyServer>& engine : engines) {
      ASSERT_NO_FATAL_FAILURE(install(engine, policy, name_version));
    }
    ASSERT_NO_FATAL_FAILURE(install(tier, policy, name_version));
    if (i >= rf_point) expect_agreement(i);
  }
}

}  // namespace
}  // namespace p3pdb
