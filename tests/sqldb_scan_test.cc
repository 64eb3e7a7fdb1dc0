// Unit tests for the executor's scan loop (Executor::ScanSlot): all-pass,
// all-fail and NULL-heavy filters at table sizes around 1024 rows, coverage
// of every predicate operator, hash-join probes with NULL keys, correlated
// EXISTS, and DML and aggregates over EXISTS. Every query runs on a planned
// database and a no-planner database over identical data and must render
// identical results — the no-planner database is the ground truth of the
// plan-equivalence battery (sqldb_random_test).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sqldb/database.h"

namespace p3pdb::sqldb {
namespace {

Database::Options PlannedOptions() {
  Database::Options options;
  options.enable_planner = true;
  options.enable_plan_cache = true;
  return options;
}

Database::Options GroundTruthOptions() {
  Database::Options options;
  options.enable_planner = false;
  options.enable_plan_cache = false;
  return options;
}

/// A planned / no-planner database pair kept in lockstep.
class ScanPair {
 public:
  ScanPair() : planned_(PlannedOptions()), truth_(GroundTruthOptions()) {}

  void Script(const std::string& sql) {
    ASSERT_TRUE(planned_.ExecuteScript(sql).ok()) << sql;
    ASSERT_TRUE(truth_.ExecuteScript(sql).ok()) << sql;
  }

  void Insert(const char* table, Row row) {
    ASSERT_TRUE(planned_.InsertRow(table, row).ok());
    ASSERT_TRUE(truth_.InsertRow(table, std::move(row)).ok());
  }

  /// Runs `sql` on both and expects identical renderings.
  void ExpectAgree(const std::string& sql) {
    auto p = planned_.Execute(sql);
    auto t = truth_.Execute(sql);
    ASSERT_TRUE(p.ok()) << p.status() << "\n" << sql;
    ASSERT_TRUE(t.ok()) << t.status() << "\n" << sql;
    EXPECT_EQ(p.value().ToString(), t.value().ToString()) << sql;
  }

  Database& planned() { return planned_; }
  Database& truth() { return truth_; }

 private:
  Database planned_;
  Database truth_;
};

/// Fills `t(a INTEGER, c VARCHAR)` with `n` rows: a = i, c cycles through
/// a few texts with NULLs at the given stride (0 = no NULLs).
void FillTable(ScanPair* pair, size_t n, size_t null_stride) {
  static const char* texts[] = {"alpha", "beta", "gamma", "delta"};
  for (size_t i = 0; i < n; ++i) {
    Row row;
    const bool null_a = null_stride != 0 && i % null_stride == 0;
    row.push_back(null_a ? Value::Null()
                         : Value::Integer(static_cast<int64_t>(i)));
    const bool null_c = null_stride != 0 && i % null_stride == 1;
    row.push_back(null_c ? Value::Null() : Value::Text(texts[i % 4]));
    pair->Insert("t", std::move(row));
  }
}

// Table sizes: a single row, and one below, at and above 1024 rows.
class TableSizeTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, TableSizeTest,
                         ::testing::Values(1, 1023, 1024, 1025));

TEST_P(TableSizeTest, AllPassAllFailAndSelective) {
  const size_t n = GetParam();
  ScanPair pair;
  pair.Script("CREATE TABLE t (a INTEGER, c VARCHAR(8));");
  FillTable(&pair, n, 0);
  // All pass, all fail, ~half pass, and a text predicate.
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE a >= 0");
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE a < 0");
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE a >= " +
                   std::to_string(n / 2));
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE c = 'beta'");
  // Row-returning shape (order is scan order on both databases).
  pair.ExpectAgree("SELECT a, c FROM t WHERE a IN (0, 3, 511, 1022, 1024) "
                   "OR c = 'delta'");
}

TEST_P(TableSizeTest, NullHeavyRows) {
  const size_t n = GetParam();
  ScanPair pair;
  pair.Script("CREATE TABLE t (a INTEGER, c VARCHAR(8));");
  FillTable(&pair, n, 2);  // half the rows carry a NULL
  // NULL comparisons are UNKNOWN and must filter out (three-valued logic).
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE a >= 0");
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE NOT (a < 0)");
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE a IS NULL");
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE a IS NOT NULL AND c IS "
                   "NOT NULL");
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE a > 5 OR c = 'alpha'");
}

TEST(SqldbScanTest, OperatorCoverage) {
  ScanPair pair;
  pair.Script("CREATE TABLE t (a INTEGER, c VARCHAR(8));");
  FillTable(&pair, 200, 5);
  // One query per operator: comparison, logical AND/OR, NOT, IN (with and
  // without NULL in the list), IS [NOT] NULL, LIKE (with ESCAPE).
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE a = 7");
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE a > 10 AND a <= 150");
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE a < 3 OR a > 190");
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE NOT (a > 100)");
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE a IN (1, 2, 3, 99)");
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE a IN (1, NULL, 3)");
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE a NOT IN (1, NULL, 3)");
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE c IS NULL");
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE c IS NOT NULL");
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE c LIKE '%eta'");
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE c LIKE 'a!%%' ESCAPE '!'");
}

TEST(SqldbScanTest, HashJoinProbesWithNullKeys) {
  ScanPair pair;
  pair.Script(
      "CREATE TABLE t (a INTEGER, c VARCHAR(8));"
      "CREATE TABLE u (k INTEGER, v INTEGER);");
  FillTable(&pair, 120, 4);  // NULL probe keys every 4th row
  for (int i = 0; i < 40; ++i) {
    Row row;
    row.push_back(i % 5 == 0 ? Value::Null() : Value::Integer(i * 3));
    row.push_back(Value::Integer(i % 7));
    pair.Insert("u", std::move(row));
  }
  // Rewritable EXISTS / NOT EXISTS become hash semi/anti-joins; NULL keys
  // on either side must produce the SQL verdicts (never match; NOT EXISTS
  // over a NULL probe key is TRUE because no row can equal NULL).
  pair.ExpectAgree(
      "SELECT COUNT(*) FROM t WHERE EXISTS (SELECT * FROM u WHERE u.k = a)");
  pair.ExpectAgree(
      "SELECT COUNT(*) FROM t WHERE NOT EXISTS "
      "(SELECT * FROM u WHERE u.k = a)");
  pair.ExpectAgree(
      "SELECT COUNT(*) FROM t WHERE EXISTS "
      "(SELECT * FROM u WHERE u.k = a AND u.v >= 2)");
}

TEST(SqldbScanTest, CorrelatedExistsRunsPerRow) {
  ScanPair pair;
  pair.Script(
      "CREATE TABLE t (a INTEGER, c VARCHAR(8));"
      "CREATE TABLE u (k INTEGER, v INTEGER);");
  FillTable(&pair, 100, 0);
  for (int i = 0; i < 30; ++i) {
    Row row;
    row.push_back(Value::Integer(i));
    row.push_back(Value::Integer(i % 4));
    pair.Insert("u", std::move(row));
  }
  // Non-equality correlation cannot be decorrelated: the subquery runs
  // once per outer row on both databases.
  pair.ExpectAgree(
      "SELECT COUNT(*) FROM t WHERE EXISTS "
      "(SELECT * FROM u WHERE u.k < a)");
  pair.ExpectAgree(
      "SELECT COUNT(*) FROM t WHERE a > 10 AND EXISTS "
      "(SELECT * FROM u WHERE u.k < a AND u.v = 1)");
  EXPECT_GT(pair.planned().stats().subquery_evals, 0u);
}

TEST(SqldbScanTest, DmlAndAggregatesAgree) {
  ScanPair pair;
  pair.Script("CREATE TABLE t (a INTEGER, c VARCHAR(8));");
  FillTable(&pair, 300, 3);
  // DML goes through the row predicate entry points on both databases.
  pair.Script("UPDATE t SET c = 'upd' WHERE a IN (10, 20, 30, 40, 250);");
  pair.Script("DELETE FROM t WHERE a > 280;");
  // DML subqueries over an indexed child table: both sides probe the index
  // through the subquery's annotated access path.
  pair.Script("CREATE TABLE child (pid INTEGER, tag VARCHAR(8));"
              "CREATE INDEX child_pid ON child (pid);");
  for (int64_t i = 0; i < 120; ++i) {
    pair.Insert("child",
                {Value::Integer(i * 2), Value::Text(i % 3 == 0 ? "x" : "y")});
  }
  pair.planned().ResetStats();
  pair.truth().ResetStats();
  pair.Script("DELETE FROM t WHERE EXISTS (SELECT * FROM child WHERE "
              "child.pid = t.a AND child.tag = 'x');");
  pair.Script("UPDATE t SET c = 'orphan' WHERE NOT EXISTS "
              "(SELECT * FROM child WHERE child.pid = t.a);");
  EXPECT_GT(pair.planned().stats().index_lookups, 0u);
  EXPECT_EQ(pair.planned().stats().index_lookups,
            pair.truth().stats().index_lookups);
  pair.ExpectAgree("SELECT a, c FROM t ORDER BY a");
  pair.ExpectAgree("SELECT COUNT(*) FROM t WHERE c = 'upd'");
  pair.ExpectAgree("SELECT c, COUNT(*) FROM t WHERE a IS NOT NULL "
                   "GROUP BY c ORDER BY c");
  pair.ExpectAgree("SELECT MIN(a), MAX(a) FROM t WHERE c <> 'upd'");
}

// A DML subquery is costed like any SELECT: an index on a two-value column
// returns half its table per probe, so the cost model scans instead.
TEST(SqldbScanTest, DmlSubqueryTakesTheCostedAccessPath) {
  const char* schema =
      "CREATE TABLE t (a INTEGER);"
      "CREATE TABLE flags (flag INTEGER, v INTEGER);"
      "CREATE INDEX flags_flag ON flags (flag);";
  const std::string dml =
      "DELETE FROM t WHERE EXISTS (SELECT * FROM flags WHERE "
      "flags.flag = 1 AND flags.v = t.a)";
  Database::Options options;
  options.enable_cost_model = true;
  Database costed(options);
  options.enable_cost_model = false;
  Database rule(options);
  for (Database* db : {&costed, &rule}) {
    ASSERT_TRUE(db->ExecuteScript(schema).ok());
    for (int64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(db->InsertRow("t", {Value::Integer(i)}).ok());
    }
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          db->InsertRow("flags", {Value::Integer(i % 2), Value::Integer(i)})
              .ok());
    }
    db->ResetStats();
    ASSERT_TRUE(db->Execute(dml).ok());
  }
  EXPECT_GT(costed.stats().cost_seq_forced, 0u);
  EXPECT_EQ(costed.stats().index_lookups, 0u);
  EXPECT_EQ(rule.stats().cost_seq_forced, 0u);
  EXPECT_EQ(rule.stats().index_lookups, 20u);
  auto costed_rows = costed.Execute("SELECT a FROM t ORDER BY a");
  auto rule_rows = rule.Execute("SELECT a FROM t ORDER BY a");
  ASSERT_TRUE(costed_rows.ok());
  ASSERT_TRUE(rule_rows.ok());
  EXPECT_EQ(costed_rows.value().rows.size(), 10u);  // the even a survive
  EXPECT_EQ(costed_rows.value().ToString(), rule_rows.value().ToString());
}

// DML visits its own table by row id, so the probe SELECT's FROM slot gets
// no access path and is never costed: a two-value index on the DML table
// ticks no seq-scan override. Its subqueries are costed (test above).
TEST(SqldbScanTest, DmlOwnTableIsNotCosted) {
  Database::Options options;
  options.enable_cost_model = true;
  Database db(options);
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (flag INTEGER, v INTEGER);"
                               "CREATE INDEX t_flag ON t (flag);")
                  .ok());
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        db.InsertRow("t", {Value::Integer(i % 2), Value::Integer(i)}).ok());
  }
  db.ResetStats();
  auto deleted = db.Execute("DELETE FROM t WHERE flag = 1");
  ASSERT_TRUE(deleted.ok()) << deleted.status();
  EXPECT_EQ(deleted.value().rows_affected, 50);
  auto updated = db.Execute("UPDATE t SET v = 0 WHERE flag = 0");
  ASSERT_TRUE(updated.ok()) << updated.status();
  EXPECT_EQ(updated.value().rows_affected, 50);
  EXPECT_EQ(db.stats().cost_seq_forced, 0u);
  EXPECT_EQ(db.stats().index_lookups, 0u);
}

/// `c, MIN(e), MAX(e)` per group, one "c:min/max" entry per row.
std::string GroupMinMax(const QueryResult& result) {
  std::string out;
  for (const Row& row : result.rows) {
    out += std::string(row[0].AsText()) + ":" + row[1].ToString() + "/" +
           row[2].ToString() + " ";
  }
  return out;
}

// An EXISTS subquery inside an aggregate's argument is annotated like any
// other nested SELECT, with and without the cost model. Expected groups
// were computed by hand: x holds a = 0..3, y 4..7, z 8..11; u.k = u.v =
// 0..5.
TEST(SqldbScanTest, AggregatesOverExistsAgreeOnEveryConfiguration) {
  struct Case {
    const char* sql;
    const char* groups;
  };
  const Case cases[] = {
      // Correlated equality on the indexed u.k: an index probe per row.
      {"SELECT c, MIN(EXISTS (SELECT * FROM u WHERE u.k = t.a)), "
       "MAX(EXISTS (SELECT * FROM u WHERE u.k = t.a)) FROM t "
       "GROUP BY c ORDER BY c",
       "x:TRUE/TRUE y:FALSE/TRUE z:FALSE/FALSE "},
      // Correlated equality on the unindexed u.v: a scan per row.
      {"SELECT c, MIN(NOT EXISTS (SELECT * FROM u WHERE u.v = t.a)), "
       "MAX(NOT EXISTS (SELECT * FROM u WHERE u.v = t.a)) FROM t "
       "GROUP BY c ORDER BY c",
       "x:FALSE/FALSE y:FALSE/TRUE z:TRUE/TRUE "},
      // A non-equality correlation: never indexable.
      {"SELECT c, MIN(EXISTS (SELECT * FROM u WHERE u.k < t.a)), "
       "MAX(EXISTS (SELECT * FROM u WHERE u.k < t.a)) FROM t "
       "GROUP BY c ORDER BY c",
       "x:FALSE/TRUE y:TRUE/TRUE z:TRUE/TRUE "},
  };
  for (bool costed : {false, true}) {
    SCOPED_TRACE("cost=" + std::to_string(costed));
    Database::Options options;
    options.enable_cost_model = costed;
    Database db(options);
    ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER, c VARCHAR(8));"
                                 "CREATE TABLE u (k INTEGER, v INTEGER);"
                                 "CREATE INDEX u_k ON u (k);")
                    .ok());
    for (int64_t i = 0; i < 12; ++i) {
      const char* group = i < 4 ? "x" : i < 8 ? "y" : "z";
      ASSERT_TRUE(
          db.InsertRow("t", {Value::Integer(i), Value::Text(group)}).ok());
    }
    for (int64_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          db.InsertRow("u", {Value::Integer(i), Value::Integer(i)}).ok());
    }
    for (const Case& c : cases) {
      db.ResetStats();
      auto result = db.Execute(c.sql);
      ASSERT_TRUE(result.ok()) << result.status() << "\n" << c.sql;
      EXPECT_EQ(GroupMinMax(result.value()), c.groups) << c.sql;
      auto plan = db.Execute(std::string("EXPLAIN ") + c.sql);
      ASSERT_TRUE(plan.ok()) << plan.status() << "\n" << c.sql;
      EXPECT_NE(plan.value().ToString().find("scan t (seq scan)"),
                std::string::npos)
          << plan.value().ToString();
    }
    // The indexed case probes u_k once per subquery evaluation: two
    // aggregates over twelve rows.
    db.ResetStats();
    ASSERT_TRUE(db.Execute(cases[0].sql).ok());
    EXPECT_EQ(db.stats().index_lookups, 24u);
  }
}

}  // namespace
}  // namespace p3pdb::sqldb
