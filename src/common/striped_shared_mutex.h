// StripedSharedMutex: a reader-writer lock whose shared side writes only a
// cache line owned by the calling thread's stripe.
//
// std::shared_mutex (pthread_rwlock) keeps one reader count that every
// lock_shared and unlock_shared updates, so readers on different cores
// serialize on that line even when no writer exists. Here each reader
// increments and decrements the counter of its own stripe (see
// thread_ordinal.h); a writer raises a flag and waits until every stripe
// drains. The hot path for a reader is one RMW on its own line and one
// load of the flag, which stays shared in every core's cache while no
// writer runs.
//
// Protocol (all operations seq_cst, the std::atomic default):
//   - lock_shared: increment own stripe, then load the flag. If it is down,
//     the read section begins. If it is up, decrement and wait for the flag
//     to fall, then retry. Either the writer's flag store precedes the
//     reader's load in the single total order (the reader sees it and backs
//     off), or the reader's increment precedes the writer's drain check
//     (the writer sees it and waits).
//   - lock: take the writer mutex (writers exclude each other), raise the
//     flag, spin until every stripe reads zero.
//   - unlock: lower the flag, wake readers waiting on it, release the
//     writer mutex.
//
// Writers are preferred: a raised flag turns new readers away, so a writer
// waits only for the read sections already running and cannot starve.
// The price is the usual one for writer-preferring locks: a thread must
// not take the shared lock recursively, because a writer queued between
// the two acquisitions would wait for the outer section while the inner
// one waits for the writer. A shared lock is released by the thread that
// took it (the stripe is the thread's).
//
// Meets the Lockable and SharedLockable requirements used by
// std::unique_lock and std::shared_lock.

#ifndef P3PDB_COMMON_STRIPED_SHARED_MUTEX_H_
#define P3PDB_COMMON_STRIPED_SHARED_MUTEX_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/thread_ordinal.h"

namespace p3pdb {

class StripedSharedMutex {
 public:
  StripedSharedMutex() = default;
  StripedSharedMutex(const StripedSharedMutex&) = delete;
  StripedSharedMutex& operator=(const StripedSharedMutex&) = delete;

  void lock_shared() {
    std::atomic<uint32_t>& readers = stripes_[ThreadStripe()].readers;
    for (;;) {
      readers.fetch_add(1);
      if (writer_.load() == 0) return;
      readers.fetch_sub(1);
      writer_.wait(1);
    }
  }

  void unlock_shared() { stripes_[ThreadStripe()].readers.fetch_sub(1); }

  void lock() {
    writer_mu_.lock();
    writer_.store(1);
    for (const Stripe& stripe : stripes_) {
      while (stripe.readers.load() != 0) std::this_thread::yield();
    }
  }

  void unlock() {
    writer_.store(0);
    writer_.notify_all();
    writer_mu_.unlock();
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint32_t> readers{0};
  };

  std::array<Stripe, kThreadStripes> stripes_;
  // Read by every reader, written only by writers: its own line, so reader
  // increments never invalidate it.
  alignas(64) std::atomic<uint32_t> writer_{0};
  std::mutex writer_mu_;  // serializes writers
};

}  // namespace p3pdb

#endif  // P3PDB_COMMON_STRIPED_SHARED_MUTEX_H_
