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
// fully visible to the race detector.
//
// Protocol (two-slot epoch pinning, a user-space RCU in miniature):
//
//   - Two shared_ptr slots. At any instant `parity_ & 1` names the live
//     slot; the other slot is either empty or holds the previous snapshot
//     draining its readers.
//   - Pins are striped (common/thread_ordinal.h): each stripe holds its own
//     pair of pin counts on its own cache line, and a reader pins only in
//     its thread's stripe, so concurrent readers never write a shared line
//     for the pin (the returned shared_ptr's refcount is still one shared
//     line per snapshot).
//   - Reader: load parity, pin its slot in its stripe (fetch_add), re-check
//     parity. If it moved, unpin and retry — otherwise the pin is
//     guaranteed to cover the slot the writer will next wait on. Copy the
//     slot's shared_ptr (a refcount bump), unpin. The pin window is that
//     copy, nanoseconds; the returned shared_ptr keeps the snapshot alive
//     for as long as the caller works with it.
//   - Writer (callers must serialize stores externally — every tier writer
//     already holds its shard's install_mu or the directory install mutex):
//     write the spare slot (no reader can be pinned there: the previous
//     store drained it and parity has not named it since), bump parity,
//     spin until the old slot's pins drain in every stripe, then release
//     the old slot's reference. Readers never block; the writer blocks only
//     for the nanosecond pin windows of readers mid-copy.
//
// Every operation is seq_cst (the std::atomic default). That is what makes
// the TOCTOU triangle airtight: either a reader's pin precedes the writer's
// drain-check of that stripe in the single total order — so the writer sees
// it and waits — or the writer's parity bump precedes the reader's
// re-check, which then must observe the bump and retry.

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
  EpochPtr() = default;
  EpochPtr(const EpochPtr&) = delete;
  EpochPtr& operator=(const EpochPtr&) = delete;

  /// Lock-free reader. Returns the snapshot current at some instant during
  /// the call (nullptr if nothing has been stored yet).
  std::shared_ptr<const T> Load() const {
    std::atomic<uint64_t>* pins = stripes_[ThreadStripe()].pins;
    for (;;) {
      const uint64_t e = parity_.load();
      pins[e & 1].fetch_add(1);
      if (parity_.load() != e) {
        // A store moved the live slot between our parity read and our pin;
        // the writer may already have skipped this pin in its drain. Back
        // out and pin the new slot.
        pins[e & 1].fetch_sub(1);
        continue;
      }
      std::shared_ptr<const T> copy = slots_[e & 1];
      pins[e & 1].fetch_sub(1);
      return copy;
    }
  }

  /// Publishes a new snapshot and reclaims the previous one once its
  /// readers drain. Callers must serialize Store calls on a given cell.
  void Store(std::shared_ptr<const T> next) {
    const uint64_t e = parity_.load();
    slots_[(e + 1) & 1] = std::move(next);
    parity_.fetch_add(1);
    for (const PinStripe& stripe : stripes_) {
      while (stripe.pins[e & 1].load() != 0) std::this_thread::yield();
    }
    // No reader holds a pin on the old slot and none can re-pin it until
    // the next Store names it live again; in-flight readers that already
    // copied the shared_ptr keep the snapshot itself alive.
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
