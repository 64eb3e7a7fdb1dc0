// Accuracy tests for the statistics catalog (stats.h): the cost model is
// only as good as its inputs, so this file pins the contract each estimate
// carries. Exact quantities (row count, null count, min/max) must be exact
// through arbitrary seeded insert/delete churn; the HLL distinct-count
// estimate must stay inside its sketch error bounds on both skewed
// (Zipfian) and near-unique data; a disk-backed database must come back
// from a reopen with the same statistics it closed with; and the memoized
// NDV estimate must equal a fresh recompute bit for bit after every kind of
// maintenance, so the memo can never change a plan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>
#include <unistd.h>

#include "common/random.h"
#include "sqldb/database.h"
#include "sqldb/stats.h"

namespace p3pdb::sqldb {
namespace {

/// Statistics are kept only with the cost model on: every test but the
/// cost-off one sets it rather than take the P3PDB_NO_COST default.
Database::Options WithStats(std::string storage_path = "") {
  Database::Options options;
  options.enable_cost_model = true;
  options.storage.path = std::move(storage_path);
  return options;
}

// HLL with p=9 has standard error 1.04/sqrt(512) = 4.6%; three sigma plus
// a little slack for the small-range linear-counting handoff.
constexpr double kNdvTolerance = 0.15;

void ExpectNdvWithin(double estimate, size_t actual) {
  ASSERT_GT(actual, 0u);
  const double rel =
      std::abs(estimate - static_cast<double>(actual)) /
      static_cast<double>(actual);
  EXPECT_LE(rel, kNdvTolerance)
      << "estimate " << estimate << " vs actual " << actual;
}

/// Zipf(s=1) sampler over ranks [1, n]: precomputed harmonic CDF, inverted
/// by binary search. Deterministic for a fixed Random seed.
class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double total = 0.0;
    for (size_t k = 1; k <= n; ++k) {
      total += 1.0 / static_cast<double>(k);
      cdf_[k - 1] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Sample(Random* r) const {
    const double u = r->UniformDouble();
    return static_cast<size_t>(
               std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin()) +
           1;
  }

 private:
  std::vector<double> cdf_;
};

TEST(StatsAccuracyTest, NearUniqueNdvWithinSketchBounds) {
  Database db(WithStats());
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER);").ok());
  constexpr int kRows = 5000;
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(db.InsertRow("t", {Value::Integer(i)}).ok());
  }
  const Table* t = db.LookupTable("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(db.stats_catalog().EstimatedRows(t), kRows);
  ExpectNdvWithin(db.stats_catalog().EstimatedNdv(t, 0), kRows);
}

TEST(StatsAccuracyTest, ZipfianNdvWithinSketchBounds) {
  Database db(WithStats());
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER, s TEXT);").ok());
  Random rng(20260808);
  Zipf zipf(1200);
  std::set<int64_t> distinct_a;
  std::set<std::string> distinct_s;
  for (int i = 0; i < 20000; ++i) {
    const int64_t a = static_cast<int64_t>(zipf.Sample(&rng));
    const std::string s = "v" + std::to_string(zipf.Sample(&rng));
    distinct_a.insert(a);
    distinct_s.insert(s);
    ASSERT_TRUE(db.InsertRow("t", {Value::Integer(a), Value::Text(s)}).ok());
  }
  const Table* t = db.LookupTable("t");
  ASSERT_NE(t, nullptr);
  ExpectNdvWithin(db.stats_catalog().EstimatedNdv(t, 0), distinct_a.size());
  ExpectNdvWithin(db.stats_catalog().EstimatedNdv(t, 1), distinct_s.size());
}

TEST(StatsAccuracyTest, ExactStatsExactThroughSeededChurn) {
  // Randomized insert/delete churn with NULLs mixed in; after every phase
  // the exact quantities (rows, nulls, min, max) must match a brute-force
  // recompute of the live rows, and NDV must track the live distinct set.
  Database db(WithStats());
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER);").ok());
  const Table* t = db.LookupTable("t");
  ASSERT_NE(t, nullptr);
  Random rng(97);

  auto verify = [&] {
    uint64_t rows = 0, nulls = 0;
    std::optional<int64_t> min, max;
    std::set<int64_t> distinct;
    for (size_t id = 0; id < t->SlotCount(); ++id) {
      if (!t->IsLive(id)) continue;
      ++rows;
      const Value& v = t->RowAt(id)[0];
      if (v.is_null()) {
        ++nulls;
        continue;
      }
      const int64_t x = v.AsInteger();
      distinct.insert(x);
      min = min.has_value() ? std::min(*min, x) : x;
      max = max.has_value() ? std::max(*max, x) : x;
    }
    auto snap = db.stats_catalog().Snapshot(t);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->row_count, rows);
    ASSERT_EQ(snap->columns.size(), 1u);
    const ColumnStatsSnapshot& col = snap->columns[0];
    EXPECT_EQ(col.null_count, nulls);
    ASSERT_EQ(col.min.has_value(), min.has_value());
    ASSERT_EQ(col.max.has_value(), max.has_value());
    if (min.has_value()) EXPECT_EQ(col.min->AsInteger(), *min);
    if (max.has_value()) EXPECT_EQ(col.max->AsInteger(), *max);
    const double nf = db.stats_catalog().NullFraction(t, 0);
    EXPECT_DOUBLE_EQ(nf, rows == 0 ? 0.0
                                   : static_cast<double>(nulls) /
                                         static_cast<double>(rows));
    if (!distinct.empty()) ExpectNdvWithin(col.ndv, distinct.size());
  };

  for (int phase = 0; phase < 6; ++phase) {
    // Insert burst: skewed values, ~12% NULLs.
    const int inserts = 200 + rng.UniformInt(0, 400);
    for (int i = 0; i < inserts; ++i) {
      Value v = rng.Bernoulli(0.12)
                    ? Value::Null()
                    : Value::Integer(rng.UniformInt(0, 1000));
      ASSERT_TRUE(db.InsertRow("t", {std::move(v)}).ok());
    }
    verify();
    // Delete sweep: drop ~40% of live rows, extrema included — exercises
    // the min/max invalidation and the NDV stale-rebuild path.
    std::vector<size_t> live;
    for (size_t id = 0; id < t->SlotCount(); ++id) {
      if (t->IsLive(id)) live.push_back(id);
    }
    for (size_t id : live) {
      if (!rng.Bernoulli(0.4)) continue;
      if (!t->IsLive(id) || t->RowAt(id)[0].is_null()) continue;
      ASSERT_TRUE(db.Execute("DELETE FROM t WHERE a = " +
                             t->RowAt(id)[0].ToString())
                      .ok());
    }
    // Also delete NULL rows through SQL so the null counter sees churn.
    if (phase % 2 == 1) {
      ASSERT_TRUE(db.Execute("DELETE FROM t WHERE a IS NULL").ok());
    }
    verify();
  }
}

TEST(StatsAccuracyTest, StatsSurviveDiskBackedReopen) {
  const std::string dir =
      "stats_accuracy_reopen_" + std::to_string(::getpid()) + ".tmp";
  std::filesystem::remove_all(dir);
  Random rng(4242);
  Zipf zipf(300);

  TableStatsSnapshot before;
  {
    Database db(WithStats(dir));
    ASSERT_TRUE(db.storage_status().ok());
    ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER, s TEXT);").ok());
    for (int i = 0; i < 3000; ++i) {
      Value a = rng.Bernoulli(0.1)
                    ? Value::Null()
                    : Value::Integer(static_cast<int64_t>(zipf.Sample(&rng)));
      ASSERT_TRUE(
          db.InsertRow("t", {std::move(a),
                             Value::Text("k" + std::to_string(
                                                   zipf.Sample(&rng)))})
              .ok());
    }
    // Delete churn so the reopened rebuild must reflect live rows only.
    ASSERT_TRUE(db.Execute("DELETE FROM t WHERE a = 1").ok());
    ASSERT_TRUE(db.Execute("DELETE FROM t WHERE a = 7").ok());
    const Table* t = db.LookupTable("t");
    ASSERT_NE(t, nullptr);
    // Force a rebuild before snapshotting: the incremental sketch may still
    // contain deleted values, while the reopened catalog is rebuilt from
    // live rows. Analyze pins both sides to the same definition.
    db.mutable_stats_catalog().Analyze(t);
    auto snap = db.stats_catalog().Snapshot(t);
    ASSERT_TRUE(snap.has_value());
    before = *snap;
  }  // destructor checkpoints

  Database reopened(WithStats(dir));
  ASSERT_TRUE(reopened.storage_status().ok());
  const Table* t = reopened.LookupTable("t");
  ASSERT_NE(t, nullptr);
  auto after = reopened.stats_catalog().Snapshot(t);
  ASSERT_TRUE(after.has_value());

  EXPECT_EQ(after->row_count, before.row_count);
  ASSERT_EQ(after->columns.size(), before.columns.size());
  for (size_t c = 0; c < before.columns.size(); ++c) {
    const ColumnStatsSnapshot& b = before.columns[c];
    const ColumnStatsSnapshot& a = after->columns[c];
    // The HLL registers are max-based and order-insensitive, so a rebuild
    // from the recovered live rows is bit-identical to the pre-close
    // rebuild: the *estimate* must match exactly, not just approximately.
    EXPECT_DOUBLE_EQ(a.ndv, b.ndv) << "column " << c;
    EXPECT_EQ(a.null_count, b.null_count) << "column " << c;
    ASSERT_EQ(a.min.has_value(), b.min.has_value()) << "column " << c;
    ASSERT_EQ(a.max.has_value(), b.max.has_value()) << "column " << c;
    if (b.min.has_value()) {
      EXPECT_EQ(Value::OrderCompare(*a.min, *b.min), 0) << "column " << c;
    }
    if (b.max.has_value()) {
      EXPECT_EQ(Value::OrderCompare(*a.max, *b.max), 0) << "column " << c;
    }
  }
  std::filesystem::remove_all(dir);
}

/// Reads every column's NDV through both catalog entry points (which serve
/// the memoized estimate) and requires each to equal, with exact double
/// equality, the estimate of a second catalog that analyzes `t` from
/// scratch. Call it only when the tracked sketch should reflect the live
/// rows (after a rebuild, or after inserts alone).
void ExpectNdvMatchesFreshRecompute(const Database& db, const Table* t) {
  StatsCatalog fresh;
  fresh.Register(t);
  const size_t columns = t->schema().ColumnCount();
  for (size_t c = 0; c < columns; ++c) {
    EXPECT_EQ(db.stats_catalog().EstimatedNdv(t, c), fresh.EstimatedNdv(t, c))
        << "column " << c;
  }
  auto snap = db.stats_catalog().Snapshot(t);
  ASSERT_TRUE(snap.has_value());
  ASSERT_EQ(snap->columns.size(), columns);
  for (size_t c = 0; c < columns; ++c) {
    EXPECT_EQ(snap->columns[c].ndv, fresh.EstimatedNdv(t, c))
        << "column " << c;
  }
}

/// Reads every column's estimate so the memo is filled before the next
/// mutation; a mutation that failed to invalidate it then shows up as a
/// stale value in ExpectNdvMatchesFreshRecompute.
void PrimeMemo(const Database& db, const Table* t) {
  for (size_t c = 0; c < t->schema().ColumnCount(); ++c) {
    db.stats_catalog().EstimatedNdv(t, c);
  }
}

TEST(StatsAccuracyTest, MemoizedNdvEqualsFreshRecompute) {
  Database db(WithStats());
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER, s TEXT);").ok());
  const Table* t = db.LookupTable("t");
  ASSERT_NE(t, nullptr);
  const StatsCatalog& stats = db.stats_catalog();
  ExpectNdvMatchesFreshRecompute(db, t);

  // Distinct inserts: each batch raises registers, so each must invalidate.
  for (int batch = 0; batch < 5; ++batch) {
    PrimeMemo(db, t);
    for (int i = batch * 100; i < (batch + 1) * 100; ++i) {
      ASSERT_TRUE(db.InsertRow("t", {Value::Integer(i),
                                     Value::Text("k" + std::to_string(i))})
                      .ok());
    }
    ExpectNdvMatchesFreshRecompute(db, t);
  }

  // A duplicate insert raises no register: the value stays bit-identical.
  const double a_before = stats.EstimatedNdv(t, 0);
  const double s_before = stats.EstimatedNdv(t, 1);
  ASSERT_TRUE(db.InsertRow("t", {Value::Integer(5), Value::Text("k5")}).ok());
  EXPECT_EQ(stats.EstimatedNdv(t, 0), a_before);
  EXPECT_EQ(stats.EstimatedNdv(t, 1), s_before);
  ExpectNdvMatchesFreshRecompute(db, t);

  // Deletes past StaleDeleteThreshold (live/4) mark the sketch stale; the
  // next read rebuilds it from the live rows. The extrema (0 and 499)
  // survive, so only the NDV path triggers the rebuild.
  PrimeMemo(db, t);
  uint64_t rebuilds = stats.counters().rebuilds;
  ASSERT_TRUE(db.Execute("DELETE FROM t WHERE a >= 100 AND a < 400").ok());
  ExpectNdvMatchesFreshRecompute(db, t);
  EXPECT_GT(stats.counters().rebuilds, rebuilds);

  // Deleting the tracked maximum leaves min/max stale; MinMax rescans with
  // a full rebuild, which must reset the memo along with the registers.
  PrimeMemo(db, t);
  rebuilds = stats.counters().rebuilds;
  ASSERT_TRUE(db.Execute("DELETE FROM t WHERE a = 499").ok());
  auto span = stats.MinMax(t, 0);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->second.AsInteger(), 498);
  EXPECT_GT(stats.counters().rebuilds, rebuilds);
  ExpectNdvMatchesFreshRecompute(db, t);

  // Analyze: a delete below both thresholds leaves the deleted values in
  // the sketch until the explicit recompute.
  ASSERT_TRUE(db.InsertRow("t", {Value::Integer(1000),
                                 Value::Text("k1000")})
                  .ok());
  ASSERT_TRUE(db.Execute("DELETE FROM t WHERE a = 50").ok());
  PrimeMemo(db, t);
  db.mutable_stats_catalog().Analyze(t);
  ExpectNdvMatchesFreshRecompute(db, t);

  // Deleting every row: the rebuild re-inserts nothing, so only Reset can
  // clear the memo, and the estimate must fall to the empty sketch's.
  PrimeMemo(db, t);
  ASSERT_TRUE(db.Execute("DELETE FROM t").ok());
  ExpectNdvMatchesFreshRecompute(db, t);
  EXPECT_EQ(stats.EstimatedNdv(t, 0), 0.0);
}

TEST(StatsAccuracyTest, MemoizedNdvEqualsFreshRecomputeAfterReopen) {
  const std::string dir =
      "stats_memo_reopen_" + std::to_string(::getpid()) + ".tmp";
  std::filesystem::remove_all(dir);
  {
    Database db(WithStats(dir));
    ASSERT_TRUE(db.storage_status().ok());
    ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER, s TEXT);").ok());
    for (int i = 0; i < 800; ++i) {
      ASSERT_TRUE(db.InsertRow("t", {Value::Integer(i % 300),
                                     Value::Text("k" + std::to_string(i))})
                      .ok());
    }
    ASSERT_TRUE(db.Execute("DELETE FROM t WHERE a < 40").ok());
    const Table* t = db.LookupTable("t");
    ASSERT_NE(t, nullptr);
    PrimeMemo(db, t);
  }  // destructor checkpoints

  // Reopening replays the rows and calls AnalyzeAll, which resets every
  // sketch; inserts after that must invalidate the rebuilt memo again.
  Database reopened(WithStats(dir));
  ASSERT_TRUE(reopened.storage_status().ok());
  const Table* t = reopened.LookupTable("t");
  ASSERT_NE(t, nullptr);
  ExpectNdvMatchesFreshRecompute(reopened, t);
  PrimeMemo(reopened, t);
  for (int i = 1000; i < 1100; ++i) {
    ASSERT_TRUE(reopened.InsertRow("t", {Value::Integer(i),
                                         Value::Text("k" + std::to_string(i))})
                    .ok());
  }
  ExpectNdvMatchesFreshRecompute(reopened, t);
  std::filesystem::remove_all(dir);
}

TEST(StatsAccuracyTest, CostModelOffCostsNothing) {
  // The ablation guarantee: with enable_cost_model off, no table is
  // tracked and no maintenance counters move.
  Database db(Database::Options{.enable_cost_model = false});
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER);").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.InsertRow("t", {Value::Integer(i)}).ok());
  }
  const Table* t = db.LookupTable("t");
  ASSERT_NE(t, nullptr);
  EXPECT_FALSE(db.stats_catalog().Snapshot(t).has_value());
  const StatsCounters counters = db.stats_catalog().counters();
  EXPECT_EQ(counters.updates, 0u);
  EXPECT_EQ(counters.rebuilds, 0u);
  // Estimates fall back to the table's own row count.
  EXPECT_EQ(db.stats_catalog().EstimatedRows(t), 100.0);
}

}  // namespace
}  // namespace p3pdb::sqldb
