#include "sqldb/plan_cache.h"

#include <algorithm>

#include "sqldb/executor.h"

namespace p3pdb::sqldb {

SharedPlan::SharedPlan(const SelectStmt* select, size_t planner,
                       PlanRuntime* runtime)
    : select_(select), planner_(planner) {
  for (std::atomic<PlanRuntime*>& cell : cells_) {
    cell.store(nullptr, std::memory_order_relaxed);
  }
  Cell(planner, /*create=*/true)->store(runtime, std::memory_order_relaxed);
}

SharedPlan::~SharedPlan() {
  const auto release = [this](std::atomic<PlanRuntime*>* cells, size_t first) {
    for (size_t i = 0; i < kInlineMembers; ++i) {
      PlanRuntime* runtime = cells[i].load(std::memory_order_acquire);
      if (runtime != nullptr && first + i != planner_) {
        PlanRuntime::Delete(runtime);
      }
    }
  };
  release(cells_, 0);
  Overflow* next = overflow_.load(std::memory_order_acquire);
  for (size_t first = kInlineMembers; next != nullptr;
       first += kInlineMembers) {
    Overflow* block = next;
    release(block->cells, first);
    next = block->next.load(std::memory_order_acquire);
    delete block;
  }
}

std::atomic<PlanRuntime*>* SharedPlan::Cell(size_t member, bool create) {
  if (member < kInlineMembers) return &cells_[member];
  member -= kInlineMembers;
  std::atomic<Overflow*>* link = &overflow_;
  for (;;) {
    Overflow* block = link->load(std::memory_order_acquire);
    if (block == nullptr) {
      if (!create) return nullptr;
      auto* fresh = new Overflow();
      for (std::atomic<PlanRuntime*>& cell : fresh->cells) {
        cell.store(nullptr, std::memory_order_relaxed);
      }
      if (link->compare_exchange_strong(block, fresh,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        block = fresh;
      } else {
        delete fresh;  // another member linked one first
      }
    }
    if (member < kInlineMembers) return &block->cells[member];
    member -= kInlineMembers;
    link = &block->next;
  }
}

PlanRuntime* SharedPlan::runtime(size_t member) {
  std::atomic<PlanRuntime*>* cell = Cell(member, /*create=*/false);
  return cell == nullptr ? nullptr : cell->load(std::memory_order_acquire);
}

PlanRuntime* SharedPlan::Install(size_t member, PlanRuntime* runtime) {
  std::atomic<PlanRuntime*>* cell = Cell(member, /*create=*/true);
  PlanRuntime* installed = nullptr;
  if (cell->compare_exchange_strong(installed, runtime,
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    return runtime;
  }
  PlanRuntime::Delete(runtime);
  return installed;
}

PlanCache::PlanCache(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)),
      stripe_count_(std::clamp<size_t>(capacity_ / kMinStripeEntries, 1,
                                       kMaxStripes)),
      stripes_(std::make_unique<Stripe[]>(stripe_count_)) {}

PlanCache::~PlanCache() = default;

PlanCache::Probe PlanCache::Lookup(uint64_t schema, std::string_view sql,
                                   size_t hash) {
  Stripe& stripe = stripes_[StripeOf(hash)];
  Probe probe;
  // A dropped plan moves here and is released after the stripe lock.
  Index::node_type dropped;
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.index.find(Key{schema, sql, hash});
  if (it == stripe.index.end()) {
    ++stripe.misses;
    return probe;
  }
  Entry* entry = &it->second;
  if (entry->costed &&
      entry->stats_epoch != stats_epoch_.load(std::memory_order_relaxed)) {
    // Cardinalities drifted past an epoch boundary on some member since
    // this plan was costed: its build-side/access-path choices may no
    // longer hold. Drop it and let the caller re-plan.
    Unlink(stripe, entry);
    dropped = stripe.index.extract(it);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    ++stripe.misses;
    probe.recosted = true;
    return probe;
  }
  if (entry != stripe.newest) {
    Unlink(stripe, entry);
    LinkNewest(stripe, entry);
  }
  ++stripe.hits;
  probe.plan = entry->plan;
  return probe;
}

void PlanCache::Store(uint64_t schema, size_t hash,
                      std::shared_ptr<SharedPlan> plan, bool costed) {
  const Key key{schema, plan->select().arena->text(), hash};
  const uint64_t epoch =
      costed ? stats_epoch_.load(std::memory_order_relaxed) : 0;
  const size_t home = StripeOf(hash);
  // The evicted plan is released after the stripe lock, so lookups never
  // wait on a plan's release.
  Index::node_type evicted;
  {
    Stripe& stripe = stripes_[home];
    std::lock_guard<std::mutex> lock(stripe.mu);
    ++stripe.plans_built;
    auto [it, inserted] = stripe.index.try_emplace(
        key, Entry{std::move(plan), key, costed, epoch});
    if (!inserted) return;  // concurrent store
    LinkNewest(stripe, &it->second);
    if (entries_.fetch_add(1, std::memory_order_relaxed) < capacity_) return;
    if (stripe.index.size() > 1) {
      evicted = EvictOldest(stripe);
      return;
    }
  }
  // Over capacity, and the home stripe holds only the new plan.
  for (size_t i = 1; i < stripe_count_; ++i) {
    Stripe& other = stripes_[(home + i) % stripe_count_];
    std::lock_guard<std::mutex> lock(other.mu);
    if (other.index.empty()) continue;
    evicted = EvictOldest(other);
    return;
  }
}

PlanCache::Index::node_type PlanCache::EvictOldest(Stripe& stripe) {
  Entry* victim = stripe.oldest;
  Unlink(stripe, victim);
  entries_.fetch_sub(1, std::memory_order_relaxed);
  ++stripe.evictions;
  return stripe.index.extract(victim->key);
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats total;
  for (size_t i = 0; i < stripe_count_; ++i) {
    Stripe& stripe = stripes_[i];
    std::lock_guard<std::mutex> lock(stripe.mu);
    total.hits += stripe.hits;
    total.misses += stripe.misses;
    total.plans_built += stripe.plans_built;
    total.evictions += stripe.evictions;
    total.entries += stripe.index.size();
  }
  return total;
}

void PlanCache::Unlink(Stripe& stripe, Entry* entry) {
  (entry->newer != nullptr ? entry->newer->older : stripe.newest) =
      entry->older;
  (entry->older != nullptr ? entry->older->newer : stripe.oldest) =
      entry->newer;
  entry->newer = nullptr;
  entry->older = nullptr;
}

void PlanCache::LinkNewest(Stripe& stripe, Entry* entry) {
  entry->older = stripe.newest;
  (stripe.newest != nullptr ? stripe.newest->newer : stripe.oldest) = entry;
  stripe.newest = entry;
}

}  // namespace p3pdb::sqldb
