// EpochPtr<T>: a lock-free-read published-snapshot cell, the publication
// primitive under the sharded serving tier.
//
// Why not std::atomic<std::shared_ptr<T>>? libstdc++'s _Sp_atomic guards
// the contained pointer with an embedded spinlock whose reader-side unlock
// is memory_order_relaxed (shared_ptr_atomic.h, _Sp_atomic::load), so the
// reader's plain read of _M_ptr has no release edge ordering it against the
// next writer's plain write — ThreadSanitizer reports the pair as a data
// race, and our TSan CI runs with halt_on_error=1. This cell implements the
// same contract with only plain std::atomic operations, so the protocol is
// fully visible to the race detector. It also reads without a reference
// count: a reader holds a pin, not a shared_ptr copy.
//
// Protocol (two-slot epoch pinning, a user-space RCU in miniature):
//
//   - Two shared_ptr slots. At any instant `parity_ & 1` names the live
//     slot; the other slot is either empty or holds the previous snapshot
//     draining its readers.
//   - Pins are striped (common/thread_ordinal.h): each stripe holds its own
//     pair of pin counts on its own cache line, and a reader pins only in
//     its thread's stripe, so concurrent readers never write a shared line.
//   - Reader (a Guard): load parity, pin its slot in its stripe
//     (fetch_add), re-check parity. If it moved, unpin and retry —
//     otherwise the pin is guaranteed to cover the slot the writer will
//     next wait on. The guard then exposes the slot's raw pointer and keeps
//     the pin until it is destroyed, so the pin spans the reader's whole
//     use of the snapshot and the slot's shared_ptr is never copied.
//   - Writer (callers must serialize stores externally — every tier writer
//     already holds its shard's install_mu or the directory install mutex):
//     write the spare slot (no reader can be pinned there: the previous
//     store drained it and parity has not named it since), bump parity,
//     spin until the old slot's pins drain in every stripe, then release
//     the old slot's reference, which destroys the snapshot. Readers never
//     block; a Store waits for every guard still on the old snapshot, so it
//     takes as long as the longest in-flight read (for a tier match: ~0.3 us
//     for a warm hit, tens of us for a cold one).
//
// Every operation is seq_cst (the std::atomic default). That is what makes
// the TOCTOU triangle airtight: either a reader's pin precedes the writer's
// drain-check of that stripe in the single total order — so the writer sees
// it and waits — or the writer's parity bump precedes the reader's
// re-check, which then must observe the bump and retry.
//
// Two lock-order rules follow from a Store waiting on guards:
//
//   1. A thread never Stores into a cell while it holds a Guard on that
//      same cell: the Store would wait on the thread's own pin forever.
//      Copy what the write needs out of the guarded snapshot, end the
//      guard, then Store.
//   2. A thread never takes a lock that some Store-er holds while it holds
//      a Guard on that Store-er's cell. For the tier: never take a shard's
//      install_mu while holding a guard on that shard (the installer holds
//      install_mu across its Store and would wait for the guard while the
//      guard holder waits for the lock). Taking the lock first and the
//      guard second is fine.
//
// Guards nest: a thread may hold several guards on one cell at once (each
// is its own pin), and guards on different cells in any order.

#ifndef P3PDB_SERVER_EPOCH_PTR_H_
#define P3PDB_SERVER_EPOCH_PTR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "common/thread_ordinal.h"

namespace p3pdb::server {

template <typename T>
class EpochPtr {
 public:
  /// A scoped, lock-free read: pins the snapshot current at construction in
  /// the calling thread's stripe and keeps it alive (and unreclaimed) until
  /// destruction. Null when nothing has been stored yet. Not copyable or
  /// movable: the pin belongs to the scope that took it.
  class Guard {
   public:
    explicit Guard(const EpochPtr& cell) {
      std::atomic<uint64_t>* pins = cell.stripes_[ThreadStripe()].pins;
      for (;;) {
        const uint64_t e = cell.parity_.load();
        pins[e & 1].fetch_add(1);
        if (cell.parity_.load() == e) {
          pin_ = &pins[e & 1];
          value_ = cell.slots_[e & 1].get();
          return;
        }
        // A store moved the live slot between our parity read and our pin;
        // the writer may already have skipped this pin in its drain. Back
        // out and pin the new slot.
        pins[e & 1].fetch_sub(1);
      }
    }
    ~Guard() { pin_->fetch_sub(1); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    const T* get() const { return value_; }
    const T* operator->() const { return value_; }
    explicit operator bool() const { return value_ != nullptr; }

   private:
    std::atomic<uint64_t>* pin_ = nullptr;
    const T* value_ = nullptr;
  };

  EpochPtr() = default;
  EpochPtr(const EpochPtr&) = delete;
  EpochPtr& operator=(const EpochPtr&) = delete;

  /// Publishes a new snapshot, waits until no guard remains on the previous
  /// one, and destroys it (unless the caller kept another reference).
  /// Callers must serialize Store calls on a given cell and must not hold a
  /// Guard on it (see the lock-order rules above).
  void Store(std::shared_ptr<const T> next) {
    const uint64_t e = parity_.load();
    slots_[(e + 1) & 1] = std::move(next);
    parity_.fetch_add(1);
    for (const PinStripe& stripe : stripes_) {
      while (stripe.pins[e & 1].load() != 0) std::this_thread::yield();
    }
    // No guard holds a pin on the old slot and none can re-pin it until
    // the next Store names it live again.
    slots_[e & 1].reset();
  }

 private:
  struct alignas(64) PinStripe {
    std::atomic<uint64_t> pins[2] = {{0}, {0}};
  };

  std::shared_ptr<const T> slots_[2];
  std::atomic<uint64_t> parity_{0};
  mutable std::array<PinStripe, kThreadStripes> stripes_;
};

}  // namespace p3pdb::server

#endif  // P3PDB_SERVER_EPOCH_PTR_H_
