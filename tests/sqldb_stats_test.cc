// Tests for the executor's statistics aggregation: every counter of the
// field table survives Accumulate, Merge, Snapshot and Reset;
// AtomicExecStats loses nothing under concurrent Merge; and concurrent
// PreparedStatement executions tally exactly into each Database, however
// many databases a thread runs statements against.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sqldb/database.h"
#include "sqldb/query_result.h"
#include "sqldb/value.h"

namespace p3pdb::sqldb {
namespace {

// Distinct per-field values: counter i gets (i + 1) * 1000 + 7, so a
// generator that crossed two fields would be caught.
uint64_t FieldValue(size_t i) { return (i + 1) * 1000 + 7; }

TEST(AtomicExecStatsTest, MergeAccumulatesEveryField) {
  // The field table covers every ExecStats member: nothing declared
  // outside it could be skipped by the generated code.
  constexpr size_t kFields = std::size(kExecStatsFields);
  static_assert(sizeof(ExecStats) == kFields * sizeof(uint64_t));

  ExecStats s;
  for (size_t i = 0; i < kFields; ++i) {
    s.*kExecStatsFields[i].member = FieldValue(i);
  }
  ExecStats sum;
  sum.Accumulate(s);
  sum.Accumulate(s);
  AtomicExecStats agg;
  agg.Merge(s);
  agg.Merge(s);
  ExecStats snap = agg.Snapshot();
  for (size_t i = 0; i < kFields; ++i) {
    const ExecStatsField& field = kExecStatsFields[i];
    EXPECT_EQ(sum.*field.member, 2 * FieldValue(i)) << field.name;
    EXPECT_EQ(snap.*field.member, 2 * FieldValue(i)) << field.name;
  }

  agg.Reset();
  snap = agg.Snapshot();
  for (const ExecStatsField& field : kExecStatsFields) {
    EXPECT_EQ(snap.*field.member, 0u) << field.name;
  }
}

TEST(AtomicExecStatsTest, ConcurrentMergesAreExact) {
  AtomicExecStats agg;
  constexpr int kThreads = 8;
  constexpr int kMergesPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      ExecStats s;
      s.statements_executed = 1;
      s.rows_scanned = 3;
      s.index_lookups = 1;
      s.full_scans = 0;
      s.subquery_evals = 2;
      s.comparisons = 7;
      for (int i = 0; i < kMergesPerThread; ++i) agg.Merge(s);
    });
  }
  for (auto& w : workers) w.join();
  const uint64_t n = uint64_t{kThreads} * kMergesPerThread;
  ExecStats snap = agg.Snapshot();
  EXPECT_EQ(snap.statements_executed, n);
  EXPECT_EQ(snap.rows_scanned, 3 * n);
  EXPECT_EQ(snap.index_lookups, n);
  EXPECT_EQ(snap.full_scans, 0u);
  EXPECT_EQ(snap.subquery_evals, 2 * n);
  EXPECT_EQ(snap.comparisons, 7 * n);
}

TEST(AtomicExecStatsTest, ConcurrentPreparedExecutionsTallyExactly) {
  // Each Execute fills a private ExecStats and merges it once, so the
  // database aggregate must come out exact no matter the interleaving.
  Database db;
  ASSERT_TRUE(db.ExecuteScript(
                    "CREATE TABLE t (id INTEGER, v INTEGER, "
                    "PRIMARY KEY (id));")
                  .ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", " + std::to_string(i * i) + ")")
                    .ok());
  }
  auto prepared = db.Prepare("SELECT v FROM t WHERE id = ?");
  ASSERT_TRUE(prepared.ok());
  db.ResetStats();

  constexpr int kThreads = 8;
  constexpr int kExecsPerThread = 500;
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kExecsPerThread; ++i) {
        std::vector<Value> params = {Value::Integer((t + i) % 16)};
        auto result = prepared.value().Execute(params);
        if (!result.ok() || result.value().rows.size() != 1) ++failures[t];
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;

  const uint64_t n = uint64_t{kThreads} * kExecsPerThread;
  ExecStats snap = db.stats();
  EXPECT_EQ(snap.statements_executed, n);
  // Every lookup is a point probe on the primary key: one index lookup and
  // one row scanned per execution, never a full scan.
  EXPECT_EQ(snap.index_lookups, n);
  EXPECT_EQ(snap.rows_scanned, n);
  EXPECT_EQ(snap.full_scans, 0u);
}

TEST(AtomicExecStatsTest, ThreadsRoundRobinOverManyDatabasesTallyExactly) {
  // Each thread interleaves statements over more databases than any
  // per-thread cache would hold; every database must still count exactly
  // its own executions, and ResetStats must zero it.
  constexpr int kDatabases = 8;
  constexpr int kThreads = 3;
  constexpr int kRounds = 400;
  std::vector<std::unique_ptr<Database>> dbs;
  std::vector<PreparedStatement> lookups;
  for (int d = 0; d < kDatabases; ++d) {
    dbs.push_back(std::make_unique<Database>());
    ASSERT_TRUE(dbs.back()
                    ->ExecuteScript("CREATE TABLE t (id INTEGER, v INTEGER, "
                                    "PRIMARY KEY (id));")
                    .ok());
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(dbs.back()
                      ->Execute("INSERT INTO t VALUES (" +
                                std::to_string(i) + ", " +
                                std::to_string(d) + ")")
                      .ok());
    }
    auto prepared = dbs.back()->Prepare("SELECT v FROM t WHERE id = ?");
    ASSERT_TRUE(prepared.ok());
    lookups.push_back(std::move(prepared).value());
    dbs.back()->ResetStats();
  }

  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (int k = 0; k < kDatabases; ++k) {
          const int d = (k + t) % kDatabases;
          std::vector<Value> params = {Value::Integer((r + t) % 16)};
          auto result = lookups[d].Execute(params);
          if (!result.ok() || result.value().rows.size() != 1 ||
              result.value().rows[0][0].AsInteger() != d) {
            ++failures[t];
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;

  const uint64_t n = uint64_t{kThreads} * kRounds;
  for (int d = 0; d < kDatabases; ++d) {
    const ExecStats snap = dbs[d]->stats();
    EXPECT_EQ(snap.statements_executed, n) << d;
    EXPECT_EQ(snap.index_lookups, n) << d;
    EXPECT_EQ(snap.rows_scanned, n) << d;
    EXPECT_EQ(snap.full_scans, 0u) << d;
    dbs[d]->ResetStats();
    const ExecStats reset = dbs[d]->stats();
    for (const ExecStatsField& field : kExecStatsFields) {
      EXPECT_EQ(reset.*field.member, 0u) << d << " " << field.name;
    }
  }
}

}  // namespace
}  // namespace p3pdb::sqldb
