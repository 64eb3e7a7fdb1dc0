// Concurrent readers of the statistics catalog (stats.h). Planning runs
// under the server's shared lock, so many threads read one table's stats at
// once, and those reads write: the memoized HLL estimate, the lazy NDV
// rebuild after delete churn, and the min/max rescan after a deleted
// extremum. All of it must happen under the entry's own mutex. Four threads
// read the same tables while those caches are empty, and each must see the
// single-threaded values; under ThreadSanitizer (the `concurrency` label)
// any unguarded read or write of a memo fails the run.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sqldb/database.h"
#include "sqldb/stats.h"

namespace p3pdb::sqldb {
namespace {

constexpr int kThreads = 4;
constexpr int kReadsPerThread = 50;

/// What one table's catalog entry should report, taken from a second
/// catalog that analyzes the table from scratch (so taking it leaves the
/// database's own memos empty).
struct ExpectedStats {
  const Table* table = nullptr;
  std::vector<double> ndv;
  std::vector<std::optional<std::pair<Value, Value>>> minmax;
  TableStatsSnapshot snapshot;
};

ExpectedStats Expect(const Table* t) {
  StatsCatalog fresh;
  fresh.Register(t);
  ExpectedStats e;
  e.table = t;
  for (size_t c = 0; c < t->schema().ColumnCount(); ++c) {
    e.ndv.push_back(fresh.EstimatedNdv(t, c));
    e.minmax.push_back(fresh.MinMax(t, c));
  }
  e.snapshot = *fresh.Snapshot(t);
  return e;
}

bool SameValue(const std::optional<Value>& a, const std::optional<Value>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || Value::OrderCompare(*a, *b) == 0;
}

/// Counts the reads of `e.table` through `stats` that disagree with `e`.
/// Runs on the reader threads, so it reports instead of asserting.
int CountMismatches(const StatsCatalog& stats, const ExpectedStats& e) {
  int mismatches = 0;
  for (size_t c = 0; c < e.ndv.size(); ++c) {
    if (stats.EstimatedNdv(e.table, c) != e.ndv[c]) ++mismatches;
    const auto span = stats.MinMax(e.table, c);
    const auto& want = e.minmax[c];
    if (span.has_value() != want.has_value() ||
        (span.has_value() &&
         (!SameValue(span->first, want->first) ||
          !SameValue(span->second, want->second)))) {
      ++mismatches;
    }
  }
  const auto snap = stats.Snapshot(e.table);
  if (!snap.has_value() || snap->row_count != e.snapshot.row_count ||
      snap->columns.size() != e.snapshot.columns.size()) {
    return mismatches + 1;
  }
  for (size_t c = 0; c < snap->columns.size(); ++c) {
    const ColumnStatsSnapshot& got = snap->columns[c];
    const ColumnStatsSnapshot& want = e.snapshot.columns[c];
    if (got.ndv != want.ndv || got.null_count != want.null_count ||
        !SameValue(got.min, want.min) || !SameValue(got.max, want.max)) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// Four threads read every table's stats at once, in rotated table order
/// so they collide on each entry's caches; returns the mismatches seen.
int ReadConcurrently(const StatsCatalog& stats,
                     const std::vector<ExpectedStats>& expected) {
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kThreads; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kReadsPerThread; ++i) {
        for (size_t k = 0; k < expected.size(); ++k) {
          mismatches[r] += CountMismatches(
              stats, expected[(k + static_cast<size_t>(r)) % expected.size()]);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  int total = 0;
  for (int m : mismatches) total += m;
  return total;
}

TEST(StatsConcurrencyTest, ConcurrentReadersSeeSingleThreadedValues) {
  Database::Options options;
  options.enable_cost_model = true;  // statistics are kept only with it on
  Database db(options);
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE grow (a INTEGER, s TEXT);"
                               "CREATE TABLE churn (a INTEGER, b INTEGER);"
                               "CREATE TABLE edge (a INTEGER, b INTEGER);")
                  .ok());
  const Table* grow = db.LookupTable("grow");
  const Table* churn = db.LookupTable("churn");
  const Table* edge = db.LookupTable("edge");
  ASSERT_NE(grow, nullptr);
  ASSERT_NE(churn, nullptr);
  ASSERT_NE(edge, nullptr);

  // Three rounds of single-threaded mutation (as under the install lock),
  // each followed by concurrent readers that find every memo invalidated.
  for (int round = 0; round < 3; ++round) {
    const int base = round * 1000;
    for (int i = 0; i < 400; ++i) {
      // `grow` only gains rows: registers rise, memos reset in Insert.
      ASSERT_TRUE(db.InsertRow("grow",
                               {i % 7 == 0 ? Value::Null()
                                           : Value::Integer(base + i),
                                Value::Text("s" + std::to_string(base + i))})
                      .ok());
      ASSERT_TRUE(db.InsertRow("churn", {Value::Integer(base + i),
                                         Value::Integer(i % 50)})
                      .ok());
      ASSERT_TRUE(
          db.InsertRow("edge", {Value::Integer(base + i), Value::Integer(i % 2)})
              .ok());
    }
    ASSERT_TRUE(
        db.InsertRow("edge", {Value::Integer(base + 399), Value::Integer(0)})
            .ok());
    // `churn` loses more than a quarter of its rows: the first reader
    // rebuilds its sketches lazily.
    ASSERT_TRUE(db.Execute("DELETE FROM churn WHERE a >= " +
                           std::to_string(base + 100) + " AND a < " +
                           std::to_string(base + 300))
                    .ok());
    // `edge` loses a row holding its tracked maximum, so the first MinMax
    // or Snapshot rescans it. Both of the row's values stay live in other
    // rows, so the sketches read the same before and after that rescan and
    // every interleaving of readers has one right answer.
    ASSERT_TRUE(db.Execute("DELETE FROM edge WHERE a = " +
                           std::to_string(base + 399) + " AND b = 0")
                    .ok());

    const std::vector<ExpectedStats> expected = {Expect(grow), Expect(churn),
                                                 Expect(edge)};
    EXPECT_EQ(ReadConcurrently(db.stats_catalog(), expected), 0)
        << "round " << round;
  }
}

}  // namespace
}  // namespace p3pdb::sqldb
