// Concurrency tests: PolicyServer's public API is documented thread-safe;
// hammer it from several threads and require correct, crash-free outcomes.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "server/policy_server.h"
#include "workload/corpus.h"
#include "workload/jrc_preferences.h"
#include "workload/paper_examples.h"

namespace p3pdb::server {
namespace {

using workload::JanePreference;
using workload::JrcPreference;
using workload::PreferenceLevel;

// Every SQL engine's match is read-only and runs under the shared lock:
// XTABLE included. Uncached, the worker threads execute rule queries
// concurrently; cached, they race on the match-cache shards.
TEST(ConcurrencyTest, ParallelMatchesAreConsistent) {
  for (EngineKind engine : {EngineKind::kSql, EngineKind::kXQueryXTable}) {
    for (bool cached : {true, false}) {
      SCOPED_TRACE(::testing::Message() << EngineKindName(engine)
                                        << " cached=" << cached);
      auto server = PolicyServer::Create(
          {.engine = engine, .enable_match_cache = cached});
      ASSERT_TRUE(server.ok());
      std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
      std::vector<int64_t> ids;
      for (const p3p::Policy& policy : corpus) {
        auto id = server.value()->InstallPolicy(policy);
        ASSERT_TRUE(id.ok());
        ids.push_back(id.value());
      }
      auto pref = server.value()->CompilePreference(
          JrcPreference(PreferenceLevel::kHigh));
      ASSERT_TRUE(pref.ok());

      // Single-threaded reference outcomes.
      std::vector<std::string> expected;
      for (int64_t id : ids) {
        auto r = server.value()->MatchPolicyId(pref.value(), id);
        ASSERT_TRUE(r.ok());
        expected.push_back(r.value().behavior);
      }

      std::atomic<int> mismatches{0};
      std::atomic<int> errors{0};
      auto worker = [&](int seed) {
        for (int i = 0; i < 200; ++i) {
          size_t pick = static_cast<size_t>(seed * 37 + i) % ids.size();
          auto r = server.value()->MatchPolicyId(pref.value(), ids[pick]);
          if (!r.ok()) {
            ++errors;
          } else if (r.value().behavior != expected[pick]) {
            ++mismatches;
          }
        }
      };
      std::vector<std::thread> threads;
      for (int t = 0; t < 4; ++t) threads.emplace_back(worker, t);
      for (std::thread& t : threads) t.join();
      EXPECT_EQ(errors.load(), 0);
      EXPECT_EQ(mismatches.load(), 0);
    }
  }
}

TEST(ConcurrencyTest, InstallsRaceWithMatches) {
  auto server = PolicyServer::Create({.engine = EngineKind::kSql});
  ASSERT_TRUE(server.ok());
  auto first = server.value()->InstallPolicy(workload::VolgaPolicy());
  ASSERT_TRUE(first.ok());
  auto pref = server.value()->CompilePreference(JanePreference());
  ASSERT_TRUE(pref.ok());

  std::atomic<int> errors{0};
  std::thread installer([&] {
    std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
    for (const p3p::Policy& policy : corpus) {
      if (!server.value()->InstallPolicy(policy).ok()) ++errors;
    }
  });
  std::thread matcher([&] {
    for (int i = 0; i < 300; ++i) {
      auto r = server.value()->MatchPolicyId(pref.value(), first.value());
      if (!r.ok() || r.value().behavior != "request") ++errors;
    }
  });
  installer.join();
  matcher.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(server.value()->policy_ids().size(), 30u);
}

// 8 matcher threads hammer MatchUri while one installer keeps re-versioning
// a policy (each install grows the conflict counts); every successful match
// must be counted once — the shared-lock match path may not lose a count.
TEST(ConcurrencyTest, MixedMatchUriAndReinstallLosesNoConflictCounts) {
  PolicyServer::Options options;
  options.engine = EngineKind::kSql;
  auto server = PolicyServer::Create(options);
  ASSERT_TRUE(server.ok());
  std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  for (const p3p::Policy& policy : corpus) {
    ASSERT_TRUE(server.value()->InstallPolicy(policy).ok());
  }
  ASSERT_TRUE(server.value()
                  ->InstallReferenceFile(workload::CorpusReferenceFile(corpus))
                  .ok());
  auto pref = server.value()->CompilePreference(
      JrcPreference(PreferenceLevel::kMedium));
  ASSERT_TRUE(pref.ok());

  std::vector<std::string> paths;
  for (const p3p::Policy& policy : corpus) {
    paths.push_back("/" + policy.name + "/index.html");
  }

  constexpr int kThreads = 8;
  constexpr int kMatchesPerThread = 150;
  std::atomic<int> errors{0};
  std::atomic<int> successful_matches{0};
  std::thread installer([&] {
    for (int i = 0; i < 10; ++i) {
      // Same name every time: each install is a new version of policy 0.
      if (!server.value()->InstallPolicy(corpus[0]).ok()) ++errors;
    }
  });
  std::vector<std::thread> matchers;
  for (int t = 0; t < kThreads; ++t) {
    matchers.emplace_back([&, t] {
      for (int i = 0; i < kMatchesPerThread; ++i) {
        auto r = server.value()->MatchUri(pref.value(),
                                          paths[(t * 13 + i) % paths.size()]);
        if (!r.ok() || !r.value().policy_found) {
          ++errors;
        } else {
          ++successful_matches;
        }
      }
    });
  }
  installer.join();
  for (std::thread& t : matchers) t.join();
  ASSERT_EQ(errors.load(), 0);
  EXPECT_EQ(successful_matches.load(), kThreads * kMatchesPerThread);

  uint64_t counted = 0;
  for (const ConflictCount& row : server.value()->ConflictReport()) {
    counted += row.matches;
  }
  EXPECT_EQ(counted, static_cast<uint64_t>(successful_matches.load()));
  // And the versioning thread took effect: 11 versions of the first policy.
  EXPECT_EQ(server.value()->PolicyVersion(corpus[0].name), 11);
}

// Match-cache stress: matcher threads hammer a cached server while an
// installer churns the catalog (policy re-versions + reference-file
// re-installs, each bumping the epoch). Every served result — cached or
// computed — must equal the single-threaded reference outcome, and the
// cache's counters must stay coherent.
TEST(ConcurrencyTest, CachedMatchesStayCorrectUnderCatalogChurn) {
  auto server = PolicyServer::Create({.engine = EngineKind::kSql});
  ASSERT_TRUE(server.ok());
  ASSERT_NE(server.value()->match_cache(), nullptr);
  std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  for (const p3p::Policy& policy : corpus) {
    ASSERT_TRUE(server.value()->InstallPolicy(policy).ok());
  }
  ASSERT_TRUE(server.value()
                  ->InstallReferenceFile(workload::CorpusReferenceFile(corpus))
                  .ok());
  auto pref = server.value()->CompilePreference(
      JrcPreference(PreferenceLevel::kHigh));
  ASSERT_TRUE(pref.ok());

  std::vector<std::string> paths;
  for (const p3p::Policy& policy : corpus) {
    paths.push_back("/" + policy.name + "/index.html");
  }
  // Reference outcomes. The installer below re-installs the same policy
  // contents (new versions, new ids) and the same reference file, so the
  // behavior for each path is invariant throughout the churn even though
  // the resolved policy id changes.
  std::vector<std::string> expected;
  for (const std::string& path : paths) {
    auto r = server.value()->MatchUri(pref.value(), path);
    ASSERT_TRUE(r.ok());
    expected.push_back(r.value().behavior);
  }

  constexpr int kThreads = 6;
  constexpr int kMatchesPerThread = 200;
  std::atomic<int> errors{0};
  std::atomic<int> mismatches{0};
  std::thread installer([&] {
    for (int i = 0; i < 8; ++i) {
      if (!server.value()->InstallPolicy(corpus[i % corpus.size()]).ok()) {
        ++errors;
      }
      if (!server.value()
               ->InstallReferenceFile(workload::CorpusReferenceFile(corpus))
               .ok()) {
        ++errors;
      }
    }
  });
  std::vector<std::thread> matchers;
  for (int t = 0; t < kThreads; ++t) {
    matchers.emplace_back([&, t] {
      for (int i = 0; i < kMatchesPerThread; ++i) {
        size_t pick = static_cast<size_t>(t * 17 + i) % paths.size();
        auto r = server.value()->MatchUri(pref.value(), paths[pick]);
        if (!r.ok()) {
          ++errors;
        } else if (r.value().behavior != expected[pick]) {
          ++mismatches;
        }
      }
    });
  }
  installer.join();
  for (std::thread& t : matchers) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // Counter coherence: every matcher lookup was either a hit or a miss,
  // and the live-entry count agrees with the shards' contents.
  MatchCache::Stats stats = server.value()->match_cache()->TotalStats();
  EXPECT_GE(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kMatchesPerThread);
  EXPECT_EQ(stats.entries, server.value()->match_cache()->size());
  EXPECT_LE(stats.entries,
            server.value()->match_cache()->shard_count() *
                server.value()->match_cache()->capacity_per_shard());
}

TEST(ConcurrencyTest, ParallelCompiles) {
  auto server = PolicyServer::Create({.engine = EngineKind::kSql});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->InstallPolicy(workload::VolgaPolicy()).ok());
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        auto level = workload::AllPreferenceLevels()[(t + i) % 5];
        auto pref = server.value()->CompilePreference(JrcPreference(level));
        if (!pref.ok()) ++errors;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
}

}  // namespace
}  // namespace p3pdb::server
