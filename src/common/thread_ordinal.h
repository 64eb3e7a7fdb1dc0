// Per-thread ordinals for striping shared counters and locks.
//
// A counter or lock that every thread updates is one cache line bouncing
// between cores. Striping gives each thread its own line: the thread picks
// stripe `ThreadOrdinal() % kThreadStripes`, writes only there, and readers
// sum (or drain) every stripe. Consecutive threads get consecutive
// ordinals, so up to kThreadStripes live threads never share a stripe.

#ifndef P3PDB_COMMON_THREAD_ORDINAL_H_
#define P3PDB_COMMON_THREAD_ORDINAL_H_

#include <atomic>
#include <cstddef>

namespace p3pdb {

/// Stripe count of every striped structure (a power of two, so the modulo
/// is a mask).
inline constexpr size_t kThreadStripes = 16;

/// The calling thread's ordinal, taken once from a process-wide counter.
inline size_t ThreadOrdinal() {
  static std::atomic<size_t> next_ordinal{0};
  thread_local const size_t ordinal =
      next_ordinal.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

/// The calling thread's stripe in [0, kThreadStripes).
inline size_t ThreadStripe() { return ThreadOrdinal() % kThreadStripes; }

}  // namespace p3pdb

#endif  // P3PDB_COMMON_THREAD_ORDINAL_H_
