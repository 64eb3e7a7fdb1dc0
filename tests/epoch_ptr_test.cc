// EpochPtr tests: a guard reads the latest store, a Store waits for the
// guards on the snapshot it replaces and then destroys that snapshot once,
// guards nest, and readers racing a writer only ever see whole, live,
// in-order snapshots (run under TSan in CI via the `concurrency` ctest
// label). Every cross-thread step is sequenced with atomics, never sleeps.

#include "server/epoch_ptr.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace p3pdb::server {
namespace {

struct Snapshot {
  int64_t value = 0;
};

using Cell = EpochPtr<Snapshot>;

/// Makes snapshots whose deleter counts destructions.
class CountingFactory {
 public:
  std::shared_ptr<const Snapshot> Make(int64_t value) {
    return std::shared_ptr<const Snapshot>(
        new Snapshot{value}, [this](const Snapshot* snapshot) {
          destroyed_.fetch_add(1);
          delete snapshot;
        });
  }
  uint64_t destroyed() const { return destroyed_.load(); }

 private:
  std::atomic<uint64_t> destroyed_{0};
};

/// Spins (yielding) until `done` holds.
template <typename Pred>
void WaitUntil(Pred done) {
  while (!done()) std::this_thread::yield();
}

/// The value a fresh guard on `cell` reads.
int64_t Read(const Cell& cell) { return Cell::Guard(cell)->value; }

TEST(EpochPtrTest, GuardSeesMostRecentStore) {
  Cell cell;
  {
    Cell::Guard empty(cell);
    EXPECT_FALSE(empty);
    EXPECT_EQ(empty.get(), nullptr);
  }
  CountingFactory factory;
  for (int64_t v = 1; v <= 5; ++v) {
    cell.Store(factory.Make(v));
    Cell::Guard guard(cell);
    ASSERT_TRUE(guard);
    EXPECT_EQ(guard->value, v);
  }
  // Every replaced snapshot is gone; the live one is not.
  EXPECT_EQ(factory.destroyed(), 4u);
}

// A Store does not return while a guard on the snapshot it replaces is
// alive, leaves that snapshot intact for the guard, and returns (destroying
// it) once the guard ends.
TEST(EpochPtrTest, StoreWaitsForGuardOnOldSnapshot) {
  CountingFactory factory;
  Cell cell;
  cell.Store(factory.Make(1));

  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::atomic<int64_t> seen_after_store{0};
  std::thread reader([&] {
    Cell::Guard guard(cell);
    pinned.store(true);
    WaitUntil([&] { return release.load(); });
    seen_after_store.store(guard->value);
  });
  WaitUntil([&] { return pinned.load(); });

  std::atomic<bool> stored{false};
  std::thread writer([&] {
    cell.Store(factory.Make(2));
    stored.store(true);
  });
  // Once a fresh guard reads 2 the writer has published and is draining
  // the old slot, which the reader still pins.
  WaitUntil([&] { return Read(cell) == 2; });
  EXPECT_FALSE(stored.load());
  EXPECT_EQ(factory.destroyed(), 0u);

  release.store(true);
  reader.join();
  writer.join();
  EXPECT_TRUE(stored.load());
  EXPECT_EQ(seen_after_store.load(), 1);  // the old snapshot, still whole
  EXPECT_EQ(factory.destroyed(), 1u);
}

// With two guards on the old snapshot, it outlives the first and is
// destroyed exactly once, after the second.
TEST(EpochPtrTest, OldSnapshotDestroyedOnceAfterLastGuard) {
  CountingFactory factory;
  Cell cell;
  cell.Store(factory.Make(1));

  std::atomic<int> pinned{0};
  std::atomic<int> release{0};  // guards released so far may be 0, 1, 2
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Cell::Guard guard(cell);
      pinned.fetch_add(1);
      WaitUntil([&] { return release.load() > r; });
      EXPECT_EQ(guard->value, 1);
    });
  }
  WaitUntil([&] { return pinned.load() == 2; });
  std::atomic<bool> stored{false};
  std::thread writer([&] {
    cell.Store(factory.Make(2));
    stored.store(true);
  });
  WaitUntil([&] { return Read(cell) == 2; });

  release.store(1);
  readers[0].join();
  EXPECT_FALSE(stored.load());
  EXPECT_EQ(factory.destroyed(), 0u);

  release.store(2);
  readers[1].join();
  writer.join();
  EXPECT_TRUE(stored.load());
  EXPECT_EQ(factory.destroyed(), 1u);

  // A later store destroys the next snapshot, and only that one.
  cell.Store(factory.Make(3));
  EXPECT_EQ(factory.destroyed(), 2u);
}

// One thread may hold several guards on one cell: an outer guard on the old
// snapshot while a writer drains it, and inner guards that see the new one.
TEST(EpochPtrTest, GuardsNestOnOneThread) {
  CountingFactory factory;
  Cell cell;
  cell.Store(factory.Make(1));
  {
    Cell::Guard outer(cell);
    Cell::Guard inner(cell);
    EXPECT_EQ(outer.get(), inner.get());
  }

  std::atomic<bool> stored{false};
  std::thread writer;
  {
    Cell::Guard outer(cell);
    writer = std::thread([&] {
      cell.Store(factory.Make(2));
      stored.store(true);
    });
    WaitUntil([&] {
      Cell::Guard inner(cell);
      return inner->value == 2;
    });
    Cell::Guard inner(cell);
    EXPECT_EQ(inner->value, 2);
    EXPECT_EQ(outer->value, 1);
    EXPECT_FALSE(stored.load());
    EXPECT_EQ(factory.destroyed(), 0u);
  }
  writer.join();
  EXPECT_TRUE(stored.load());
  EXPECT_EQ(factory.destroyed(), 1u);
}

// Readers hold guards while one writer stores an increasing sequence. Each
// reader sees values that never go backwards, each snapshot stays whole
// while guarded, and every replaced snapshot is destroyed exactly once.
TEST(EpochPtrTest, ReadersHammerWhileWriterStores) {
  constexpr int kReaders = 4;
  constexpr int64_t kStores = 2000;
  CountingFactory factory;
  {
    Cell cell;
    cell.Store(factory.Make(0));
    std::atomic<bool> stop{false};
    std::atomic<int> errors{0};
    std::atomic<uint64_t> reads{0};
    std::atomic<int> started{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        int64_t last = 0;
        for (bool first_pass = true; first_pass || !stop.load();
             first_pass = false) {
          Cell::Guard guard(cell);
          const int64_t first = guard->value;
          if (first < last) ++errors;
          // Nested: an inner guard may see a newer snapshot, never older.
          {
            Cell::Guard inner(cell);
            if (inner->value < first) ++errors;
          }
          // The guarded snapshot did not change under us.
          if (guard->value != first) ++errors;
          last = first;
          reads.fetch_add(1);
          if (first_pass) started.fetch_add(1);
        }
      });
    }
    // Every reader has read once before the first store.
    WaitUntil([&] { return started.load() == kReaders; });
    for (int64_t v = 1; v <= kStores; ++v) cell.Store(factory.Make(v));
    stop.store(true);
    for (std::thread& t : readers) t.join();
    EXPECT_EQ(errors.load(), 0);
    EXPECT_GE(reads.load(), static_cast<uint64_t>(kReaders));
    EXPECT_EQ(Read(cell), kStores);
    EXPECT_EQ(factory.destroyed(), static_cast<uint64_t>(kStores));
  }
  // The cell's own destruction releases the live snapshot.
  EXPECT_EQ(factory.destroyed(), static_cast<uint64_t>(kStores) + 1);
}

}  // namespace
}  // namespace p3pdb::server
