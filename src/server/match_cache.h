// Sharded, thread-safe CLOCK memo cache for match results.
//
// The server-centric pitch of the paper (§4, Figure 6) is that a site has a
// handful of policies while millions of users repeat the same (preference,
// policy) checks. The match outcome is a pure function of the compiled
// preference, the subject being checked (a policy id, or a URI/cookie path
// the reference file resolves), the catalog version, and the engine — an
// ideal memoization target. A warm hit costs one hash lookup under the
// shard's shared lock and writes only lines the calling thread owns: no
// reference-file SQL, no rule queries, no policy parse.
//
// Key: (preference fingerprint, subject, policy id, engine kind); every
// entry is stamped with the catalog version it was computed under, so the
// conceptual key of the ISSUE — (fingerprint, policy id, policy version,
// engine) — is enforced at lookup time: Lookup(key, version) only returns
// an entry whose stamp equals `version`.
//
// Invalidation is versioned and lazy: installing a policy or reference file
// bumps the owning server's catalog epoch instead of sweeping the cache.
// A later lookup that finds an entry with a stale stamp erases it (after
// retaking the shard lock exclusively and checking again), ticks the
// shard's invalidation counter, and reports a miss; untouched stale entries
// age out through normal eviction. Policy-id entries are stamped with the
// immutable version of that policy id (re-installing a name mints a new
// id), so they stay valid across installs; URI/cookie entries are stamped
// with the catalog epoch, since any install may remap what a path resolves
// to.
//
// Replacement is second-chance CLOCK, so a hit need not reorder anything:
// each shard stores its entries in a fixed ring of slots (plus a key->slot
// map), and each slot has a referenced bit. A hit sets the bit, and only if
// it is clear, so a hot entry's hits write nothing at all. Insert, when the
// shard is full, sweeps the hand: a set bit is cleared and the slot skipped,
// the first clear bit is the victim. An entry hit since the hand last
// passed it therefore survives the sweep.
//
// Sharding and locking: the key hash selects one of N shards. Each shard
// has a StripedSharedMutex (common/striped_shared_mutex.h): Lookup holds it
// shared, Insert, stale-entry erasure and Clear exclusively. The hit, miss,
// eviction and invalidation counts are striped obs::Counters, so the
// counting is per thread too. With a registry, the totals are exported by
// a pull-style collector as p3p_match_cache_{hits,misses,evictions,
// invalidations}_total counters and the p3p_match_cache_entries gauge.

#ifndef P3PDB_SERVER_MATCH_CACHE_H_
#define P3PDB_SERVER_MATCH_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/striped_shared_mutex.h"
#include "obs/metrics.h"
#include "server/match_result.h"

namespace p3pdb::server {

/// What a cache entry memoizes the answer for.
enum class MatchSubject : uint8_t {
  kPolicyId = 0,  // MatchPolicyId: evaluate against one installed policy
  kUri = 1,       // MatchUri: reference-file path resolution + evaluation
  kCookie = 2,    // MatchCookie: cookie-pattern resolution + evaluation
};

struct MatchCacheKey {
  uint64_t pref_fingerprint = 0;
  MatchSubject subject = MatchSubject::kPolicyId;
  int64_t policy_id = -1;  // kPolicyId subjects; -1 otherwise
  std::string path;        // kUri/kCookie subjects; empty otherwise
  uint8_t engine = 0;      // EngineKind ordinal

  bool operator==(const MatchCacheKey& other) const = default;
};

struct MatchCacheKeyHash {
  size_t operator()(const MatchCacheKey& key) const;
};

class MatchCache {
 public:
  struct Options {
    size_t shards = 8;              // clamped to >= 1
    size_t capacity_per_shard = 1024;  // clamped to >= 1
  };

  /// Point-in-time counters; per shard or summed over all shards.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
    size_t entries = 0;

    double HitRate() const {
      uint64_t lookups = hits + misses;
      return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
    }
  };

  /// `registry` (may be null) gets a collector exporting the aggregate
  /// p3p_match_cache_{hits,misses,evictions,invalidations}_total counters
  /// and the p3p_match_cache_entries gauge from TotalStats(). The collector
  /// reads this cache, so the registry must not be snapshotted after the
  /// cache is destroyed. Per-shard counts stay readable through ShardStats
  /// regardless.
  MatchCache(Options options, obs::MetricsRegistry* registry);

  MatchCache(const MatchCache&) = delete;
  MatchCache& operator=(const MatchCache&) = delete;

  /// Returns the memoized result if present AND stamped with `version`.
  /// A present-but-stale entry is erased (counted as an invalidation) and
  /// reported as a miss.
  std::optional<MatchResult> Lookup(const MatchCacheKey& key,
                                    uint64_t version);

  /// Memoizes `result` under (key, version), restamping (and marking
  /// referenced) if the key is already present. When the shard is full,
  /// the CLOCK hand evicts the first entry not hit since it last passed.
  void Insert(const MatchCacheKey& key, uint64_t version,
              const MatchResult& result);

  /// Drops every entry (counters keep their totals).
  void Clear();

  size_t shard_count() const { return shards_.size(); }
  size_t capacity_per_shard() const { return capacity_per_shard_; }

  /// Live entries across all shards.
  size_t size() const;

  Stats ShardStats(size_t shard) const;
  Stats TotalStats() const;

  /// Which shard a key lands in (exposed so tests can target one shard).
  size_t ShardIndex(const MatchCacheKey& key) const;

 private:
  struct Slot {
    MatchCacheKey key;
    uint64_t version = 0;
    MatchResult result;
  };

  struct Shard {
    explicit Shard(size_t capacity)
        : referenced(std::make_unique<std::atomic<uint8_t>[]>(capacity)) {}

    // Guards everything below except the referenced bits and counters.
    mutable StripedSharedMutex mu;
    // The ring: grows to capacity, then slots are reused in place. A slot
    // freed by a stale-entry erase goes on `free` and is refilled first.
    std::vector<Slot> slots;
    std::vector<uint32_t> free;
    std::unordered_map<MatchCacheKey, uint32_t, MatchCacheKeyHash> index;
    size_t hand = 0;
    // Per slot: set by a hit under the shared lock (atomic for that
    // reason), cleared by the sweep under the exclusive lock.
    std::unique_ptr<std::atomic<uint8_t>[]> referenced;
    obs::Counter hits;
    obs::Counter misses;
    obs::Counter evictions;
    obs::Counter invalidations;
  };

  Shard& ShardFor(const MatchCacheKey& key) {
    return *shards_[ShardIndex(key)];
  }

  /// Runs the CLOCK hand of a full shard and returns the victim slot.
  /// Requires the shard's exclusive lock.
  uint32_t Sweep(Shard& shard);

  /// Adds the totals to a registry snapshot (the registry's collector).
  void Collect(obs::MetricsSnapshot* snapshot) const;

  size_t capacity_per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace p3pdb::server

#endif  // P3PDB_SERVER_MATCH_CACHE_H_
