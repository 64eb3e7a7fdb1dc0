// MatchCache unit tests (CLOCK replacement, sharding, versioned
// invalidation, counters, a threaded hammer) plus server-level
// invalidation: installs mid-stream must never let a stale cached result be
// served.

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "server/match_cache.h"
#include "server/policy_server.h"
#include "workload/corpus.h"
#include "workload/paper_examples.h"

namespace p3pdb {
namespace {

using server::EngineKind;
using server::MatchCache;
using server::MatchCacheKey;
using server::MatchResult;
using server::MatchSubject;
using server::PolicyServer;

MatchCacheKey UriKey(uint64_t fingerprint, std::string path) {
  MatchCacheKey key;
  key.pref_fingerprint = fingerprint;
  key.subject = MatchSubject::kUri;
  key.path = std::move(path);
  key.engine = static_cast<uint8_t>(EngineKind::kSql);
  return key;
}

MatchResult SomeResult(const std::string& behavior, int64_t policy_id) {
  MatchResult result;
  result.behavior = behavior;
  result.policy_id = policy_id;
  result.fired_rule_index = 0;
  return result;
}

TEST(MatchCacheTest, MissThenInsertThenHit) {
  MatchCache cache({.shards = 2, .capacity_per_shard = 4}, nullptr);
  MatchCacheKey key = UriKey(42, "/a");
  EXPECT_FALSE(cache.Lookup(key, 1).has_value());
  cache.Insert(key, 1, SomeResult("request", 7));
  auto hit = cache.Lookup(key, 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->behavior, "request");
  EXPECT_EQ(hit->policy_id, 7);

  MatchCache::Stats stats = cache.TotalStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(MatchCacheTest, DistinctKeyComponentsDoNotAlias) {
  MatchCache cache({.shards = 1, .capacity_per_shard = 16}, nullptr);
  MatchCacheKey base = UriKey(42, "/a");
  cache.Insert(base, 1, SomeResult("request", 1));

  MatchCacheKey other_pref = base;
  other_pref.pref_fingerprint = 43;
  MatchCacheKey other_path = base;
  other_path.path = "/b";
  MatchCacheKey other_engine = base;
  other_engine.engine = static_cast<uint8_t>(EngineKind::kNativeAppel);
  MatchCacheKey other_subject = base;
  other_subject.subject = MatchSubject::kCookie;

  EXPECT_FALSE(cache.Lookup(other_pref, 1).has_value());
  EXPECT_FALSE(cache.Lookup(other_path, 1).has_value());
  EXPECT_FALSE(cache.Lookup(other_engine, 1).has_value());
  EXPECT_FALSE(cache.Lookup(other_subject, 1).has_value());
  EXPECT_TRUE(cache.Lookup(base, 1).has_value());
}

TEST(MatchCacheTest, ClockKeepsAnEntryHitSinceTheLastSweep) {
  MatchCache cache({.shards = 1, .capacity_per_shard = 2}, nullptr);
  MatchCacheKey a = UriKey(1, "/a");
  MatchCacheKey b = UriKey(1, "/b");
  MatchCacheKey c = UriKey(1, "/c");
  cache.Insert(a, 1, SomeResult("block", 1));
  cache.Insert(b, 1, SomeResult("block", 2));
  // Hit a so the sweep gives it a second chance and takes b.
  EXPECT_TRUE(cache.Lookup(a, 1).has_value());
  cache.Insert(c, 1, SomeResult("block", 3));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(a, 1).has_value());
  EXPECT_TRUE(cache.Lookup(c, 1).has_value());
  EXPECT_FALSE(cache.Lookup(b, 1).has_value());
  EXPECT_EQ(cache.TotalStats().evictions, 1u);
}

TEST(MatchCacheTest, ClockHandSweepsInSlotOrder) {
  MatchCache cache({.shards = 1, .capacity_per_shard = 3}, nullptr);
  MatchCacheKey a = UriKey(1, "/a");
  MatchCacheKey b = UriKey(1, "/b");
  MatchCacheKey c = UriKey(1, "/c");
  MatchCacheKey d = UriKey(1, "/d");
  MatchCacheKey e = UriKey(1, "/e");
  cache.Insert(a, 1, SomeResult("block", 1));  // slot 0
  cache.Insert(b, 1, SomeResult("block", 2));  // slot 1
  cache.Insert(c, 1, SomeResult("block", 3));  // slot 2
  EXPECT_TRUE(cache.Lookup(a, 1).has_value());
  EXPECT_TRUE(cache.Lookup(c, 1).has_value());

  // The hand starts at slot 0: it clears a's bit, then takes b (not hit).
  cache.Insert(d, 1, SomeResult("block", 4));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.TotalStats().evictions, 1u);

  // It resumes at slot 2: clears c's bit, wraps, and takes a, whose bit
  // the first sweep cleared and no hit has set again.
  cache.Insert(e, 1, SomeResult("block", 5));
  EXPECT_EQ(cache.TotalStats().evictions, 2u);
  EXPECT_FALSE(cache.Lookup(a, 1).has_value());
  EXPECT_FALSE(cache.Lookup(b, 1).has_value());
  EXPECT_TRUE(cache.Lookup(c, 1).has_value());
  EXPECT_TRUE(cache.Lookup(d, 1).has_value());
  EXPECT_TRUE(cache.Lookup(e, 1).has_value());
}

TEST(MatchCacheTest, StaleVersionIsInvalidatedLazily) {
  MatchCache cache({.shards = 1, .capacity_per_shard = 4}, nullptr);
  MatchCacheKey key = UriKey(9, "/a");
  cache.Insert(key, 1, SomeResult("request", 5));

  // Same key, newer catalog version: the stale entry must not be served,
  // and the lookup frees its slot.
  EXPECT_FALSE(cache.Lookup(key, 2).has_value());
  MatchCache::Stats stats = cache.TotalStats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 0u);

  // Recomputed under the new version, it is cacheable again.
  cache.Insert(key, 2, SomeResult("limited", 6));
  auto hit = cache.Lookup(key, 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->behavior, "limited");
}

TEST(MatchCacheTest, InsertRestampsExistingKey) {
  MatchCache cache({.shards = 1, .capacity_per_shard = 4}, nullptr);
  MatchCacheKey key = UriKey(9, "/a");
  cache.Insert(key, 1, SomeResult("request", 5));
  cache.Insert(key, 2, SomeResult("limited", 6));
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.Lookup(key, 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->behavior, "limited");
}

TEST(MatchCacheTest, ShardsPartitionKeysAndSumInTotals) {
  MatchCache cache({.shards = 4, .capacity_per_shard = 8}, nullptr);
  EXPECT_EQ(cache.shard_count(), 4u);
  std::vector<MatchCacheKey> keys;
  for (int i = 0; i < 32; ++i) {
    keys.push_back(UriKey(100 + i, "/p" + std::to_string(i)));
    cache.Insert(keys.back(), 1, SomeResult("block", i));
  }
  // Shard assignment is stable and in range.
  for (const MatchCacheKey& key : keys) {
    size_t shard = cache.ShardIndex(key);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, cache.ShardIndex(key));
  }
  for (const MatchCacheKey& key : keys) cache.Lookup(key, 1);

  uint64_t shard_hits = 0;
  size_t shard_entries = 0;
  for (size_t s = 0; s < cache.shard_count(); ++s) {
    shard_hits += cache.ShardStats(s).hits;
    shard_entries += cache.ShardStats(s).entries;
  }
  EXPECT_EQ(shard_hits, cache.TotalStats().hits);
  EXPECT_EQ(shard_entries, cache.size());
  EXPECT_EQ(cache.size(), cache.TotalStats().entries);
}

TEST(MatchCacheTest, ClearDropsEntriesKeepsCounters) {
  MatchCache cache({.shards = 2, .capacity_per_shard = 4}, nullptr);
  MatchCacheKey key = UriKey(1, "/a");
  cache.Insert(key, 1, SomeResult("block", 1));
  EXPECT_TRUE(cache.Lookup(key, 1).has_value());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(key, 1).has_value());
  EXPECT_EQ(cache.TotalStats().hits, 1u);
  EXPECT_EQ(cache.TotalStats().misses, 1u);
}

TEST(MatchCacheTest, MirrorsCountersIntoRegistry) {
  obs::MetricsRegistry registry;
  MatchCache cache({.shards = 1, .capacity_per_shard = 1}, &registry);
  MatchCacheKey a = UriKey(1, "/a");
  MatchCacheKey b = UriKey(1, "/b");
  cache.Insert(a, 1, SomeResult("block", 1));
  cache.Lookup(a, 1);      // hit
  cache.Lookup(b, 1);      // miss
  cache.Insert(b, 1, SomeResult("block", 2));  // evicts a
  cache.Lookup(b, 2);      // stale -> invalidation + miss

  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("p3p_match_cache_hits_total"), 1u);
  EXPECT_EQ(snap.counters.at("p3p_match_cache_misses_total"), 2u);
  EXPECT_EQ(snap.counters.at("p3p_match_cache_evictions_total"), 1u);
  EXPECT_EQ(snap.counters.at("p3p_match_cache_invalidations_total"), 1u);
  EXPECT_EQ(snap.gauges.at("p3p_match_cache_entries"), 0);
}

TEST(MatchCacheTest, CollectorReportsTotalStats) {
  obs::MetricsRegistry registry;
  MatchCache cache({.shards = 4, .capacity_per_shard = 2}, &registry);
  for (int i = 0; i < 40; ++i) {
    MatchCacheKey key = UriKey(7, "/p" + std::to_string(i % 13));
    if (!cache.Lookup(key, i % 3).has_value()) {
      cache.Insert(key, i % 3, SomeResult("block", i));
    }
  }
  MatchCacheKey stale = UriKey(8, "/stale");
  cache.Insert(stale, 1, SomeResult("block", 0));
  EXPECT_FALSE(cache.Lookup(stale, 2).has_value());
  const MatchCache::Stats total = cache.TotalStats();
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("p3p_match_cache_hits_total"), total.hits);
  EXPECT_EQ(snap.counters.at("p3p_match_cache_misses_total"), total.misses);
  EXPECT_EQ(snap.counters.at("p3p_match_cache_evictions_total"),
            total.evictions);
  EXPECT_EQ(snap.counters.at("p3p_match_cache_invalidations_total"),
            total.invalidations);
  EXPECT_EQ(snap.gauges.at("p3p_match_cache_entries"),
            static_cast<int64_t>(total.entries));
  EXPECT_GT(total.evictions, 0u);
  EXPECT_GT(total.invalidations, 0u);
}

// Readers hit a full shard while a writer inserts new keys (forcing CLOCK
// sweeps) and restamps existing ones with new versions. A result carries
// the version it was inserted under in its policy id, so a reader can tell
// a stale result from a current one.
TEST(MatchCacheTest, ConcurrentHitsSweepsAndRestampsStayConsistent) {
  constexpr size_t kCapacity = 16;
  constexpr int kHotKeys = 8;
  constexpr int kReaders = 3;
  constexpr int kLookupsPerReader = 20000;
  MatchCache cache({.shards = 1, .capacity_per_shard = kCapacity}, nullptr);
  std::vector<MatchCacheKey> hot;
  for (int i = 0; i < kHotKeys; ++i) {
    hot.push_back(UriKey(3, "/hot" + std::to_string(i)));
  }
  // version[i]: the current version of hot key i; a reader asks for the
  // value it loads, so any hit must carry a version at least that new.
  std::vector<std::atomic<uint64_t>> version(kHotKeys);
  for (int i = 0; i < kHotKeys; ++i) {
    version[i].store(1);
    cache.Insert(hot[i], 1, SomeResult("block", 1));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> stale_results{0};
  std::atomic<uint64_t> lookups{0};
  std::thread writer([&] {
    uint64_t next = 0;
    // Past kCapacity cold keys whatever `stop` says: the shard must fill
    // and sweep even when the readers finish before this thread gets far.
    while (!stop.load() || next <= kCapacity) {
      // A cold key: fills the shard and forces a sweep once it is full.
      cache.Insert(UriKey(4, "/cold" + std::to_string(next)), 1,
                   SomeResult("block", 0));
      const int i = static_cast<int>(next % kHotKeys);
      const uint64_t v = version[i].load() + 1;
      cache.Insert(hot[i], v, SomeResult("block", static_cast<int64_t>(v)));
      version[i].store(v);
      ++next;
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int n = 0; n < kLookupsPerReader; ++n) {
        const int i = (n + r) % kHotKeys;
        const uint64_t v = version[i].load();
        std::optional<MatchResult> hit = cache.Lookup(hot[i], v);
        lookups.fetch_add(1);
        if (hit.has_value() &&
            static_cast<uint64_t>(hit->policy_id) != v) {
          stale_results.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true);
  writer.join();

  EXPECT_EQ(stale_results.load(), 0);
  const MatchCache::Stats stats = cache.TotalStats();
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_LE(stats.entries, kCapacity);
  EXPECT_LE(cache.size(), kCapacity);
  EXPECT_GT(stats.evictions, 0u);
}

// -- server-level invalidation ----------------------------------------------

Result<std::unique_ptr<PolicyServer>> MakeCachedServer(EngineKind kind) {
  PolicyServer::Options options;
  options.engine = kind;
  options.augmentation = kind == EngineKind::kNativeAppel
                             ? server::Augmentation::kPerMatch
                             : server::Augmentation::kAtInstall;
  return PolicyServer::Create(options);
}

MatchCache::Stats CacheStats(PolicyServer* server) {
  return server->match_cache()->TotalStats();
}

TEST(MatchCacheServerTest, PolicyReinstallMidStreamNeverServesStaleUriEntry) {
  // Native path: re-installing a name remaps URI resolution immediately, so
  // a cached pre-install result would be visibly wrong.
  auto server = MakeCachedServer(EngineKind::kNativeAppel);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE(server.value()->InstallPolicy(workload::VolgaPolicy()).ok());
  ASSERT_TRUE(server.value()
                  ->InstallReferenceFile(workload::VolgaReferenceFile())
                  .ok());
  auto pref = server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(pref.ok());

  uint64_t epoch_before = server.value()->catalog_epoch();
  auto r1 = server.value()->MatchUri(pref.value(), "/catalog/specials");
  auto r2 = server.value()->MatchUri(pref.value(), "/catalog/specials");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().policy_id, r1.value().policy_id);
  EXPECT_EQ(CacheStats(server.value().get()).hits, 1u);

  // v2 of the same policy name, mid-stream: a new id is minted and the
  // catalog epoch moves.
  auto v2_id = server.value()->InstallPolicy(workload::VolgaPolicy());
  ASSERT_TRUE(v2_id.ok());
  EXPECT_GT(server.value()->catalog_epoch(), epoch_before);

  MatchCache::Stats before = CacheStats(server.value().get());
  auto r3 = server.value()->MatchUri(pref.value(), "/catalog/specials");
  ASSERT_TRUE(r3.ok());
  // The stale entry (old policy id) was invalidated, not served: the match
  // resolved to the v2 id and the invalidation counter ticked.
  EXPECT_EQ(r3.value().policy_id, v2_id.value());
  EXPECT_NE(r3.value().policy_id, r1.value().policy_id);
  MatchCache::Stats after = CacheStats(server.value().get());
  EXPECT_EQ(after.invalidations, before.invalidations + 1);
  EXPECT_EQ(after.hits, before.hits);

  // The recomputed v2 result is memoized in turn.
  auto r4 = server.value()->MatchUri(pref.value(), "/catalog/specials");
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r4.value().policy_id, v2_id.value());
  EXPECT_EQ(CacheStats(server.value().get()).hits, after.hits + 1);
}

TEST(MatchCacheServerTest, ReferenceFileRemapInvalidatesUriAndCookieEntries) {
  // SQL path: InstallReferenceFile re-shreds the Include/Exclude tables, so
  // path -> policy resolution changes wholesale.
  auto server = MakeCachedServer(EngineKind::kSql);
  ASSERT_TRUE(server.ok()) << server.status();
  std::vector<p3p::Policy> corpus =
      workload::FortuneCorpus({.seed = 11, .policy_count = 2});
  auto id_a = server.value()->InstallPolicy(corpus[0]);
  auto id_b = server.value()->InstallPolicy(corpus[1]);
  ASSERT_TRUE(id_a.ok());
  ASSERT_TRUE(id_b.ok());

  auto make_rf = [&](const std::string& name) {
    p3p::ReferenceFile rf;
    p3p::PolicyRef ref;
    ref.about = "/P3P/policies.xml#" + name;
    ref.includes.push_back("/site/*");
    ref.cookie_includes.push_back("/site/*");
    rf.AddRef(ref);
    return rf;
  };
  ASSERT_TRUE(
      server.value()->InstallReferenceFile(make_rf(corpus[0].name)).ok());
  auto pref = server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(pref.ok());

  auto uri1 = server.value()->MatchUri(pref.value(), "/site/index.html");
  auto cookie1 = server.value()->MatchCookie(pref.value(), "/site/index.html");
  ASSERT_TRUE(uri1.ok());
  ASSERT_TRUE(cookie1.ok());
  EXPECT_EQ(uri1.value().policy_id, id_a.value());
  EXPECT_EQ(cookie1.value().policy_id, id_a.value());
  // Warm them.
  ASSERT_TRUE(server.value()->MatchUri(pref.value(), "/site/index.html").ok());
  ASSERT_TRUE(
      server.value()->MatchCookie(pref.value(), "/site/index.html").ok());
  EXPECT_EQ(CacheStats(server.value().get()).hits, 2u);

  // Remap the same paths to the other policy.
  ASSERT_TRUE(
      server.value()->InstallReferenceFile(make_rf(corpus[1].name)).ok());

  MatchCache::Stats before = CacheStats(server.value().get());
  auto uri2 = server.value()->MatchUri(pref.value(), "/site/index.html");
  auto cookie2 = server.value()->MatchCookie(pref.value(), "/site/index.html");
  ASSERT_TRUE(uri2.ok());
  ASSERT_TRUE(cookie2.ok());
  EXPECT_EQ(uri2.value().policy_id, id_b.value());
  EXPECT_EQ(cookie2.value().policy_id, id_b.value());
  MatchCache::Stats after = CacheStats(server.value().get());
  EXPECT_EQ(after.invalidations, before.invalidations + 2);
  EXPECT_EQ(after.hits, before.hits);
}

TEST(MatchCacheServerTest, PolicyIdEntriesSurviveUnrelatedInstalls) {
  // MatchPolicyId targets an immutable id, so its cache entries stay valid
  // across installs (only URI/cookie resolution is epoch-stamped).
  auto server = MakeCachedServer(EngineKind::kSql);
  ASSERT_TRUE(server.ok()) << server.status();
  auto id = server.value()->InstallPolicy(workload::VolgaPolicy());
  ASSERT_TRUE(id.ok());
  auto pref = server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(pref.ok());

  auto r1 = server.value()->MatchPolicyId(pref.value(), id.value());
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(server.value()
                  ->InstallPolicy(workload::FortuneCorpus(
                      {.seed = 3, .policy_count = 1})[0])
                  .ok());
  MatchCache::Stats before = CacheStats(server.value().get());
  auto r2 = server.value()->MatchPolicyId(pref.value(), id.value());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().behavior, r1.value().behavior);
  MatchCache::Stats after = CacheStats(server.value().get());
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.invalidations, before.invalidations);
}

TEST(MatchCacheServerTest, DisabledOptionBypassesTheCache) {
  PolicyServer::Options off;
  off.engine = EngineKind::kSql;
  off.enable_match_cache = false;
  auto disabled = PolicyServer::Create(off);
  ASSERT_TRUE(disabled.ok());
  EXPECT_EQ(disabled.value()->match_cache(), nullptr);
}

TEST(MatchCacheServerTest, HandAssembledPreferenceBypassesCacheSafely) {
  // A CompiledPreference built without CompilePreference has fingerprint 0;
  // such matches must work and must not populate the cache (no aliasing).
  auto server = MakeCachedServer(EngineKind::kNativeAppel);
  ASSERT_TRUE(server.ok());
  auto id = server.value()->InstallPolicy(workload::VolgaPolicy());
  ASSERT_TRUE(id.ok());
  auto compiled = server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(compiled.ok());
  server::CompiledPreference hand = std::move(compiled).value();
  hand.fingerprint = 0;

  auto r1 = server.value()->MatchPolicyId(hand, id.value());
  auto r2 = server.value()->MatchPolicyId(hand, id.value());
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().behavior, r2.value().behavior);
  MatchCache::Stats stats = CacheStats(server.value().get());
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

}  // namespace
}  // namespace p3pdb
