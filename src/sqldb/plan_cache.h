// PlanCache: bound, planned SELECTs keyed by SQL text, shared by every
// database that joins the cache.
//
// A plan names tables by catalog slot and indexes by ordinal (ast.h), and
// keeps no runtime state, so it runs on any database whose schema matches
// the planner's. The cache key is (schema identity, text hash, text): a
// database's schema identity is a hash of its planning options and its DDL
// in order (CREATE TABLE, CREATE INDEX, DROP TABLE; see
// Database::schema_identity), so two databases built by the same DDL hand
// each other their plans, and a database with a different schema (another
// column, indexes created in another order) never receives a foreign plan.
// A standalone Database is the only member of its own private cache; the
// serving tier hands one cache to all of its replicas, so a rule query any
// shard has planned hits on every shard.
//
// Per-database state stays per database. Each member gets an ordinal
// (AddMember), and a cached SharedPlan holds one lazily created PlanRuntime
// block per member, found by that ordinal with one atomic load: the
// member's hash-join key sets (stamped with its own table versions) and its
// statement-stats entry. The planning member's block sits in the plan's
// arena; a block another member creates on its first execution comes from
// the heap and dies with the plan.
//
// Striping: the text hash picks one of up to kMaxStripes stripes, each an
// exact LRU (index + list threaded through the index's nodes) under its own
// mutex with its own counters, so a hit takes one stripe lock and writes
// only that stripe's lines and the plan's refcount. The capacity bounds the
// entries of all stripes together: a store past it evicts the oldest entry
// of its own stripe (of another stripe when its own holds only the new
// plan). Small caches get one stripe and so stay an exact LRU.
//
// Re-costing: plans are costed against the statistics of the member that
// missed first. Every member's StatsCatalog bumps the cache's one stats
// epoch (StatsCatalog::ShareEpoch), and a lookup that finds a costed plan
// stamped with an older epoch drops it, so a 2x row-count drift on any
// member re-costs the shared plan.

#ifndef P3PDB_SQLDB_PLAN_CACHE_H_
#define P3PDB_SQLDB_PLAN_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "sqldb/ast.h"

namespace p3pdb::sqldb {

class PlanRuntime;

/// A bound, planned root SELECT as the members of a PlanCache share it: the
/// immutable plan plus each member's runtime block. Placed (finalized) in
/// the plan's own arena and owned through the root's shared_ptr, so sharing
/// costs no heap block.
class SharedPlan {
 public:
  /// `select` was planned by member `planner`, whose block `runtime` lives
  /// in the plan's arena (the arena's finalizer destroys it).
  SharedPlan(const SelectStmt* select, size_t planner, PlanRuntime* runtime);
  /// Deletes the heap blocks of the other members.
  ~SharedPlan();
  SharedPlan(const SharedPlan&) = delete;
  SharedPlan& operator=(const SharedPlan&) = delete;

  const SelectStmt& select() const { return *select_; }

  /// Member `member`'s block; null until the member first executes the
  /// plan.
  PlanRuntime* runtime(size_t member);
  /// Installs `runtime` (from PlanRuntime::New) as member `member`'s block,
  /// unless a concurrent execution on the same member installed one first,
  /// in which case `runtime` is deleted. Returns the installed block.
  PlanRuntime* Install(size_t member, PlanRuntime* runtime);

 private:
  // The tier's eight replicas fit inline; further members chain blocks of
  // cells, each created on first use.
  static constexpr size_t kInlineMembers = 8;
  struct Overflow {
    std::atomic<PlanRuntime*> cells[kInlineMembers];
    std::atomic<Overflow*> next{nullptr};
  };
  /// Member `member`'s cell; null when its overflow block does not exist
  /// and `create` is false.
  std::atomic<PlanRuntime*>* Cell(size_t member, bool create);

  const SelectStmt* const select_;
  const size_t planner_;
  std::atomic<PlanRuntime*> cells_[kInlineMembers];
  std::atomic<Overflow*> overflow_{nullptr};
};

/// Counters of one cache, summed over its stripes.
struct PlanCacheStats {
  uint64_t hits = 0;         // lookups that returned a plan
  uint64_t misses = 0;       // lookups that did not (re-costs included)
  uint64_t plans_built = 0;  // plans members built and stored
  uint64_t evictions = 0;    // plans dropped for capacity
  size_t entries = 0;        // live plans
};

class PlanCache {
 public:
  /// A cache of at most `capacity` plans (at least 1).
  explicit PlanCache(size_t capacity);
  ~PlanCache();
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// A new member's ordinal: 0, 1, ... in joining order, never reused (a
  /// departed member's blocks may still sit in cached plans).
  size_t AddMember() {
    return members_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The stats epoch every member's StatsCatalog bumps (ShareEpoch).
  std::atomic<uint64_t>* stats_epoch() { return &stats_epoch_; }

  /// What a lookup found: the plan (null on a miss), and whether a plan
  /// costed under an older stats epoch was dropped.
  struct Probe {
    std::shared_ptr<SharedPlan> plan;
    bool recosted = false;
  };

  /// Looks up `sql` (whose std::hash is `hash`) planned under schema
  /// identity `schema`. A hit moves the plan to its stripe's LRU front.
  Probe Lookup(uint64_t schema, std::string_view sql, size_t hash);

  /// Caches `plan` under (`schema`, its arena's copy of its text, `hash`),
  /// stamped with the current stats epoch when `costed`; a concurrent
  /// store of the same key keeps the first. Evicted plans are released
  /// after the stripe lock.
  void Store(uint64_t schema, size_t hash, std::shared_ptr<SharedPlan> plan,
             bool costed);

  PlanCacheStats stats() const;
  size_t stripe_count() const { return stripe_count_; }

 private:
  // An entry keys on its plan's own text copy (in the plan's arena).
  struct Key {
    uint64_t schema;
    std::string_view sql;
    size_t hash;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const noexcept {
      return key.hash ^ static_cast<size_t>(key.schema);
    }
  };
  struct KeyEqual {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return a.schema == b.schema && a.sql == b.sql;
    }
  };
  // The LRU order is a list threaded through the index's own nodes (their
  // addresses are stable), so an entry is one heap node.
  struct Entry {
    std::shared_ptr<SharedPlan> plan;
    Key key;
    bool costed = false;
    uint64_t stats_epoch = 0;  // the epoch a costed plan was stored under
    Entry* newer = nullptr;    // LRU neighbours
    Entry* older = nullptr;
  };
  using Index = std::unordered_map<Key, Entry, KeyHash, KeyEqual>;

  struct alignas(64) Stripe {
    std::mutex mu;  // guards everything below
    Index index;
    Entry* newest = nullptr;  // LRU front
    Entry* oldest = nullptr;  // next to evict
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t plans_built = 0;
    uint64_t evictions = 0;
  };

  static constexpr size_t kMaxStripes = 16;
  // Entries per stripe below which a cache keeps fewer stripes.
  static constexpr size_t kMinStripeEntries = 64;

  size_t StripeOf(size_t hash) const { return hash % stripe_count_; }
  static void Unlink(Stripe& stripe, Entry* entry);
  static void LinkNewest(Stripe& stripe, Entry* entry);
  /// Removes `stripe`'s least recently used entry, returning its node so
  /// the caller releases the plan after the stripe lock. Requires the
  /// stripe's lock and a non-empty stripe.
  Index::node_type EvictOldest(Stripe& stripe);

  const size_t capacity_;
  const size_t stripe_count_;
  std::unique_ptr<Stripe[]> stripes_;
  std::atomic<size_t> entries_{0};
  std::atomic<size_t> members_{0};
  std::atomic<uint64_t> stats_epoch_{0};
};

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_PLAN_CACHE_H_
