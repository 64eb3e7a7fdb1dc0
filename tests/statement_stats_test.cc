// Statement-telemetry tests: normalization and fingerprinting (literal vs
// bind-parameter submissions must collapse to one fingerprint), the
// per-entry aggregates through real Database executions, plan-cache and
// prepared-statement attribution, slow-query and trace-sample capture, and
// registry reset semantics (pointer stability).

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "obs/slow_log.h"
#include "sqldb/database.h"
#include "sqldb/statement_stats.h"
#include "sqldb/value.h"

namespace p3pdb::sqldb {
namespace {

Database MakeStatsDb(uint64_t slow_threshold_us = 0,
                     uint32_t sample_every = 0) {
  Database::Options options;
  options.enable_statement_stats = true;
  options.slow_query_threshold_us = slow_threshold_us;
  options.trace_sample_every = sample_every;
  options.slow_log_capacity = 8;
  return Database(options);
}

void InstallFixture(Database* db) {
  ASSERT_TRUE(db->ExecuteScript(R"sql(
    CREATE TABLE t (id INTEGER NOT NULL, name VARCHAR(32), PRIMARY KEY (id));
    INSERT INTO t VALUES (1, 'a');
    INSERT INTO t VALUES (2, 'b');
    INSERT INTO t VALUES (3, 'c');
  )sql")
                  .ok());
}

TEST(NormalizeStatementTextTest, LiteralsAndParamsCollapse) {
  const std::string a =
      NormalizeStatementText("SELECT name FROM t WHERE id = 3");
  const std::string b =
      NormalizeStatementText("select  name\nfrom T where ID=?");
  const std::string c =
      NormalizeStatementText("SELECT name FROM t WHERE id = 'x'");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a, "select name from t where id = ?");
}

TEST(NormalizeStatementTextTest, DotsGlueQualifiedNames) {
  EXPECT_EQ(NormalizeStatementText("SELECT T . Name FROM t"),
            "select t.name from t");
  EXPECT_EQ(NormalizeStatementText("SELECT COUNT ( * ) FROM t"),
            "select count (*) from t");
  EXPECT_EQ(NormalizeStatementText("SELECT COUNT(*) FROM t"),
            "select count (*) from t");
}

TEST(NormalizeStatementTextTest, DifferentShapesStayDistinct) {
  EXPECT_NE(
      FingerprintStatementText(
          NormalizeStatementText("SELECT name FROM t WHERE id = 1")),
      FingerprintStatementText(
          NormalizeStatementText("SELECT id FROM t WHERE name = 'a'")));
}

TEST(NormalizeStatementTextTest, UntokenizableFallsBackToCollapse) {
  // `$` is not in the lexer's alphabet; the fallback still produces a
  // deterministic normalization instead of failing Intern.
  EXPECT_EQ(NormalizeStatementText("  foo   $bar  "), "foo $bar");
}

TEST(StatementStatsTest, LiteralAndParamSubmissionsShareOneEntry) {
  Database db = MakeStatsDb();
  InstallFixture(&db);
  ASSERT_TRUE(db.Execute("SELECT name FROM t WHERE id = 1").ok());
  ASSERT_TRUE(db.Execute("SELECT name FROM t WHERE id = 2").ok());
  ASSERT_TRUE(
      db.Execute("SELECT name FROM t WHERE id = ?", {Value::Integer(3)}).ok());

  std::vector<StatementStatsSnapshot> snaps = db.statement_stats().Snapshot();
  const StatementStatsSnapshot* entry = nullptr;
  for (const auto& s : snaps) {
    if (s.normalized_sql == "select name from t where id = ?") entry = &s;
  }
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->calls, 3u);
  EXPECT_EQ(entry->rows_returned, 3u);
  EXPECT_EQ(entry->errors, 0u);
  EXPECT_GE(entry->max_us, entry->min_us);
  EXPECT_GE(entry->total_us, entry->max_us);
}

TEST(StatementStatsTest, PlanCacheHitsAttributeToTheEntry) {
  Database::Options options;
  options.enable_plan_cache = true;
  options.enable_statement_stats = true;
  Database db(options);
  InstallFixture(&db);
  const std::string sql = "SELECT name FROM t WHERE id = ?";
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.Execute(sql, {Value::Integer(1)}).ok());
  }
  std::vector<StatementStatsSnapshot> snaps = db.statement_stats().Snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].calls, 5u);
  EXPECT_EQ(snaps[0].plans_built, 1u);
  // The first execution parses and plans; the remaining four hit the cache.
  EXPECT_EQ(snaps[0].plan_cache_hits, 4u);
}

TEST(StatementStatsTest, PreparedStatementsTallyIntoTheSameEntry) {
  Database db = MakeStatsDb();
  InstallFixture(&db);
  auto prepared = db.Prepare("SELECT name FROM t WHERE id = ?");
  ASSERT_TRUE(prepared.ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(prepared.value().Execute({Value::Integer(i)}).ok());
  }
  // A literal-carrying text execution of the same shape joins the entry.
  ASSERT_TRUE(db.Execute("SELECT name FROM t WHERE id = 2").ok());
  std::vector<StatementStatsSnapshot> snaps = db.statement_stats().Snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].calls, 4u);
}

TEST(StatementStatsTest, SnapshotOrdersByTotalTimeAndHonorsTop) {
  Database db = MakeStatsDb();
  InstallFixture(&db);
  // Three shapes with different call counts; total time tracks calls
  // closely enough for ordering not to matter — just check `top` trims.
  ASSERT_TRUE(db.Execute("SELECT name FROM t WHERE id = 1").ok());
  ASSERT_TRUE(db.Execute("SELECT id FROM t").ok());
  ASSERT_TRUE(db.Execute("SELECT COUNT(*) FROM t").ok());
  EXPECT_EQ(db.statement_stats().Snapshot().size(), 3u);
  EXPECT_EQ(db.statement_stats().Snapshot(2).size(), 2u);
  std::vector<StatementStatsSnapshot> all = db.statement_stats().Snapshot();
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i - 1].total_us, all[i].total_us);
  }
}

TEST(StatementStatsTest, DisabledByDefaultCostsNothing) {
  Database db;  // default options: stats off
  InstallFixture(&db);
  ASSERT_TRUE(db.Execute("SELECT name FROM t WHERE id = 1").ok());
  EXPECT_EQ(db.statement_stats().size(), 0u);
  EXPECT_EQ(db.slow_log(), nullptr);
}

TEST(StatementStatsTest, SlowThresholdCapturesPlanAndParams) {
  // An indexed 3-row lookup can finish in under a microsecond, so give the
  // threshold something to catch: a sequential scan over a few hundred
  // rows on the non-indexed column.
  Database db = MakeStatsDb(/*slow_query_threshold_us=*/1);
  InstallFixture(&db);
  ASSERT_NE(db.slow_log(), nullptr);
  for (int i = 10; i < 400; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", 'row')")
                    .ok());
  }
  const std::string sql = "SELECT id FROM t WHERE name = ?";
  ASSERT_TRUE(db.Execute(sql, {Value::Text("b")}).ok());
  // Belt and braces against an improbably fast scan: retry a few times.
  for (int i = 0; i < 10 && db.slow_log()->total_captured() == 0; ++i) {
    ASSERT_TRUE(db.Execute(sql, {Value::Text("b")}).ok());
  }
  auto entries =
      db.slow_log()->Entries(obs::SlowQueryEntry::Kind::kSlow);
  ASSERT_FALSE(entries.empty());
  const obs::SlowQueryEntry& e = entries.front();
  EXPECT_EQ(e.sql, "select id from t where name = ?");
  EXPECT_EQ(e.params, "['b']");
  EXPECT_NE(e.plan.find("scan t"), std::string::npos)
      << "expected an access-path line in the captured plan, got: " << e.plan;
  EXPECT_NE(e.plan.find("(actual rows="), std::string::npos)
      << "expected EXPLAIN ANALYZE actuals in the captured plan, got: "
      << e.plan;
  EXPECT_GT(e.elapsed_us, 0.0);
  // JSON rendering carries the plan.
  EXPECT_NE(db.slow_log()->RenderJson().find("\"kind\": \"slow\""),
            std::string::npos);
}

TEST(StatementStatsTest, TraceSamplingCapturesEveryNth) {
  Database db = MakeStatsDb(/*slow_threshold_us=*/0, /*sample_every=*/3);
  InstallFixture(&db);
  ASSERT_NE(db.slow_log(), nullptr);
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(db.Execute("SELECT name FROM t WHERE id = ?",
                           {Value::Integer(1)})
                    .ok());
  }
  auto samples =
      db.slow_log()->Entries(obs::SlowQueryEntry::Kind::kTraceSample);
  EXPECT_EQ(samples.size(), 3u);  // calls 3, 6, 9
  for (const auto& s : samples) {
    EXPECT_EQ(s.kind, obs::SlowQueryEntry::Kind::kTraceSample);
    EXPECT_FALSE(s.plan.empty());
  }
}

TEST(StatementStatsTest, RingOverwritesOldestButKeepsCounting) {
  obs::SlowQueryLog log(3);
  for (int i = 0; i < 5; ++i) {
    obs::SlowQueryEntry e;
    e.sql = "q" + std::to_string(i);
    log.Add(std::move(e));
  }
  EXPECT_EQ(log.total_captured(), 5u);
  auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries.front().sql, "q2");  // oldest surviving
  EXPECT_EQ(entries.back().sql, "q4");
}

TEST(StatementStatsTest, ResetZeroesInPlaceAndKeepsPointersValid) {
  Database db = MakeStatsDb();
  InstallFixture(&db);
  const std::string sql = "SELECT name FROM t WHERE id = ?";
  auto prepared = db.Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared.value().Execute({Value::Integer(1)}).ok());
  ASSERT_EQ(db.statement_stats().Snapshot()[0].calls, 1u);

  db.mutable_statement_stats().Reset();
  ASSERT_EQ(db.statement_stats().Snapshot()[0].calls, 0u);

  // The prepared statement still points at the (zeroed) entry: executing
  // after Reset must tally, not crash.
  ASSERT_TRUE(prepared.value().Execute({Value::Integer(2)}).ok());
  EXPECT_EQ(db.statement_stats().Snapshot()[0].calls, 1u);
  EXPECT_EQ(db.statement_stats().size(), 1u);
}

TEST(StatementStatsTest, ConcurrentExecutionsLoseNoCalls) {
  Database db = MakeStatsDb();
  InstallFixture(&db);
  auto prepared = db.Prepare("SELECT name FROM t WHERE id = ?");
  ASSERT_TRUE(prepared.ok());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&prepared] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(prepared.value().Execute({Value::Integer(1)}).ok());
      }
    });
  }
  for (auto& w : workers) w.join();
  std::vector<StatementStatsSnapshot> snaps = db.statement_stats().Snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].calls, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(snaps[0].rows_returned, uint64_t{kThreads} * kPerThread);
}

TEST(StatementStatsTest, RenderJsonAndTextContainTheStatement) {
  Database db = MakeStatsDb();
  InstallFixture(&db);
  ASSERT_TRUE(db.Execute("SELECT name FROM t WHERE id = 1").ok());
  const std::string json = db.statement_stats().RenderJson(10);
  EXPECT_NE(json.find("select name from t where id = ?"), std::string::npos);
  EXPECT_NE(json.find("\"calls\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"fingerprint\": \""), std::string::npos);
  const std::string text = db.statement_stats().RenderText(10);
  EXPECT_NE(text.find("select name from t where id = ?"), std::string::npos);
}

}  // namespace
}  // namespace p3pdb::sqldb
