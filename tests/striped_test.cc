// Threaded tests of the striped primitives: StripedSharedMutex (readers
// overlap, a writer excludes everyone, a waiting writer holds off new
// readers and is not starved) and the striped obs::Counter (increments from
// many threads sum exactly). Labeled `concurrency` so the TSan job runs
// them.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/striped_shared_mutex.h"
#include "obs/metrics.h"

namespace p3pdb {
namespace {

using std::chrono::milliseconds;

TEST(StripedSharedMutexTest, ReadersOverlap) {
  StripedSharedMutex mu;
  constexpr int kReaders = 4;
  std::atomic<int> inside{0};
  std::atomic<bool> all_met{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::shared_lock<StripedSharedMutex> lock(mu);
      inside.fetch_add(1);
      // Every reader waits inside its read section for all the others: this
      // only finishes if the shared sections overlap.
      while (inside.load() < kReaders) std::this_thread::yield();
      all_met.store(true);
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_TRUE(all_met.load());
}

TEST(StripedSharedMutexTest, WriterExcludesReadersAndWriters) {
  StripedSharedMutex mu;
  std::atomic<int> shared_inside{0};
  // Plain ints, written only under the exclusive lock: a reader or writer
  // that overlapped a writer would also show as a race under TSan.
  int writers_inside = 0;
  int counter = 0;
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        std::unique_lock<StripedSharedMutex> lock(mu);
        if (shared_inside.load() != 0 || ++writers_inside != 1) {
          violations.fetch_add(1);
        }
        ++counter;
        --writers_inside;
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < 4000; ++i) {
        std::shared_lock<StripedSharedMutex> lock(mu);
        shared_inside.fetch_add(1);
        if (writers_inside != 0 || counter < 0) violations.fetch_add(1);
        shared_inside.fetch_sub(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(counter, 4000);
}

TEST(StripedSharedMutexTest, WaitingWriterHoldsOffNewReaders) {
  StripedSharedMutex mu;
  std::atomic<bool> writer_done{false};
  std::atomic<bool> late_reader_in{false};
  std::atomic<bool> late_reader_saw_writer_done{false};

  mu.lock_shared();  // the reader the writer must wait for
  std::thread writer([&] {
    std::unique_lock<StripedSharedMutex> lock(mu);
    writer_done.store(true);
  });
  // Give the writer time to raise its flag and start draining.
  std::this_thread::sleep_for(milliseconds(50));
  std::thread late_reader([&] {
    std::shared_lock<StripedSharedMutex> lock(mu);
    late_reader_saw_writer_done.store(writer_done.load());
    late_reader_in.store(true);
  });
  std::this_thread::sleep_for(milliseconds(50));
  // The late reader is held off by the waiting writer, which is itself
  // waiting for the first reader.
  EXPECT_FALSE(late_reader_in.load());
  EXPECT_FALSE(writer_done.load());
  mu.unlock_shared();
  writer.join();
  late_reader.join();
  EXPECT_TRUE(writer_done.load());
  EXPECT_TRUE(late_reader_saw_writer_done.load());
}

TEST(StripedSharedMutexTest, WriterIsNotStarvedByContinuousReaders) {
  StripedSharedMutex mu;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        std::shared_lock<StripedSharedMutex> lock(mu);
        std::this_thread::yield();
      }
    });
  }
  // Each exclusive acquisition must finish although some reader holds the
  // lock at almost every instant.
  for (int i = 0; i < 50; ++i) {
    std::unique_lock<StripedSharedMutex> lock(mu);
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  SUCCEED();
}

TEST(StripedCounterTest, IncrementsFromManyThreadsSumExactly) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("striped_total");
  constexpr int kThreads = 8;  // more threads than cores: stripes shared too
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIncrements; ++i) counter->Increment(1 + t % 2);
    });
  }
  for (std::thread& t : threads) t.join();
  // Half the threads add 1, half add 2.
  const uint64_t expected = uint64_t{kIncrements} * (kThreads / 2) * 3;
  EXPECT_EQ(counter->value(), expected);
  EXPECT_EQ(registry.Snapshot().counters.at("striped_total"), expected);
}

}  // namespace
}  // namespace p3pdb
