#include "server/match_cache.h"

#include <mutex>
#include <shared_mutex>

namespace p3pdb::server {

namespace {

inline uint64_t HashCombine(uint64_t h, uint64_t v) {
  // FNV-1a over the value's bytes, word at a time.
  h ^= v;
  h *= 0x100000001b3ULL;
  return h;
}

}  // namespace

size_t MatchCacheKeyHash::operator()(const MatchCacheKey& key) const {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = HashCombine(h, key.pref_fingerprint);
  h = HashCombine(h, static_cast<uint64_t>(key.subject));
  h = HashCombine(h, static_cast<uint64_t>(key.policy_id));
  h = HashCombine(h, static_cast<uint64_t>(key.engine));
  for (unsigned char c : key.path) h = HashCombine(h, c);
  return static_cast<size_t>(h);
}

MatchCache::MatchCache(Options options, obs::MetricsRegistry* registry)
    : capacity_per_shard_(options.capacity_per_shard == 0
                              ? 1
                              : options.capacity_per_shard) {
  size_t shard_count = options.shards == 0 ? 1 : options.shards;
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(capacity_per_shard_));
  }
  if (registry != nullptr) {
    registry->AddCollector(
        [this](obs::MetricsSnapshot* snapshot) { Collect(snapshot); });
  }
}

size_t MatchCache::ShardIndex(const MatchCacheKey& key) const {
  return MatchCacheKeyHash{}(key) % shards_.size();
}

std::optional<MatchResult> MatchCache::Lookup(const MatchCacheKey& key,
                                              uint64_t version) {
  Shard& shard = ShardFor(key);
  {
    std::shared_lock<StripedSharedMutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      shard.misses.Increment();
      return std::nullopt;
    }
    const Slot& slot = shard.slots[it->second];
    if (slot.version == version) {
      // Test before set: a hot entry's bit is already up, and the hit then
      // writes no shared line.
      std::atomic<uint8_t>& referenced = shard.referenced[it->second];
      if (referenced.load(std::memory_order_relaxed) == 0) {
        referenced.store(1, std::memory_order_relaxed);
      }
      shard.hits.Increment();
      return slot.result;
    }
  }
  // Stale: computed under another catalog version. Erase it so the slot
  // frees up — exclusively, and only if a concurrent Insert has not
  // restamped or replaced the entry since the shared section.
  std::unique_lock<StripedSharedMutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end() && shard.slots[it->second].version != version) {
    const uint32_t slot = it->second;
    shard.index.erase(it);
    shard.slots[slot] = Slot{};
    shard.free.push_back(slot);
    shard.invalidations.Increment();
  }
  shard.misses.Increment();
  return std::nullopt;
}

uint32_t MatchCache::Sweep(Shard& shard) {
  for (;;) {
    const uint32_t slot = static_cast<uint32_t>(shard.hand);
    shard.hand = (shard.hand + 1) % shard.slots.size();
    std::atomic<uint8_t>& referenced = shard.referenced[slot];
    if (referenced.load(std::memory_order_relaxed) == 0) return slot;
    referenced.store(0, std::memory_order_relaxed);  // second chance
  }
}

void MatchCache::Insert(const MatchCacheKey& key, uint64_t version,
                        const MatchResult& result) {
  Shard& shard = ShardFor(key);
  std::unique_lock<StripedSharedMutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    Slot& slot = shard.slots[it->second];
    slot.version = version;
    slot.result = result;
    shard.referenced[it->second].store(1, std::memory_order_relaxed);
    return;
  }
  uint32_t slot;
  if (!shard.free.empty()) {
    slot = shard.free.back();
    shard.free.pop_back();
  } else if (shard.slots.size() < capacity_per_shard_) {
    slot = static_cast<uint32_t>(shard.slots.size());
    shard.slots.emplace_back();
  } else {
    slot = Sweep(shard);
    shard.index.erase(shard.slots[slot].key);
    shard.evictions.Increment();
  }
  shard.slots[slot] = Slot{key, version, result};
  shard.referenced[slot].store(0, std::memory_order_relaxed);
  shard.index.emplace(key, slot);
}

void MatchCache::Clear() {
  for (auto& shard : shards_) {
    std::unique_lock<StripedSharedMutex> lock(shard->mu);
    shard->index.clear();
    shard->slots.clear();
    shard->free.clear();
    shard->hand = 0;
  }
}

size_t MatchCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<StripedSharedMutex> lock(shard->mu);
    total += shard->index.size();
  }
  return total;
}

MatchCache::Stats MatchCache::ShardStats(size_t shard_index) const {
  const Shard& shard = *shards_[shard_index];
  Stats stats;
  stats.hits = shard.hits.value();
  stats.misses = shard.misses.value();
  stats.evictions = shard.evictions.value();
  stats.invalidations = shard.invalidations.value();
  {
    std::shared_lock<StripedSharedMutex> lock(shard.mu);
    stats.entries = shard.index.size();
  }
  return stats;
}

MatchCache::Stats MatchCache::TotalStats() const {
  Stats total;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Stats s = ShardStats(i);
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.invalidations += s.invalidations;
    total.entries += s.entries;
  }
  return total;
}

void MatchCache::Collect(obs::MetricsSnapshot* snapshot) const {
  const Stats total = TotalStats();
  auto& counters = snapshot->counters;
  counters["p3p_match_cache_hits_total"] = total.hits;
  counters["p3p_match_cache_misses_total"] = total.misses;
  counters["p3p_match_cache_evictions_total"] = total.evictions;
  counters["p3p_match_cache_invalidations_total"] = total.invalidations;
  snapshot->gauges["p3p_match_cache_entries"] =
      static_cast<int64_t>(total.entries);
}

}  // namespace p3pdb::server
