// Tests for name resolution and semantic analysis: scoping, shadowing,
// aggregate placement rules, and the error taxonomy the binder reports.

#include <gtest/gtest.h>

#include "sqldb/database.h"

namespace p3pdb::sqldb {
namespace {

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(
                      "CREATE TABLE outer_t (x INTEGER, y INTEGER);"
                      "CREATE TABLE inner_t (x INTEGER, z INTEGER);"
                      "INSERT INTO outer_t VALUES (1, 10), (2, 20);"
                      "INSERT INTO inner_t VALUES (1, 100), (3, 300);")
                    .ok());
  }

  Database db_;
};

TEST_F(BinderTest, InnermostScopeWins) {
  // `x` inside the subquery binds to inner_t.x, not outer_t.x: the
  // subquery finds inner rows with x = 1 or 3, so EXISTS is true for every
  // outer row regardless of the outer x.
  auto result = db_.Execute(
      "SELECT COUNT(*) FROM outer_t WHERE EXISTS "
      "(SELECT * FROM inner_t WHERE x = 3)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().rows[0][0].AsInteger(), 2);
}

TEST_F(BinderTest, QualifiedOuterReference) {
  auto result = db_.Execute(
      "SELECT COUNT(*) FROM outer_t WHERE EXISTS "
      "(SELECT * FROM inner_t WHERE inner_t.x = outer_t.x)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().rows[0][0].AsInteger(), 1);  // only x = 1 joins
}

TEST_F(BinderTest, UnqualifiedFallsBackToOuterScope) {
  // `y` does not exist in inner_t, so it resolves one scope up.
  auto result = db_.Execute(
      "SELECT COUNT(*) FROM outer_t WHERE EXISTS "
      "(SELECT * FROM inner_t WHERE y = 10)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().rows[0][0].AsInteger(), 1);
}

TEST_F(BinderTest, AliasShadowsTableName) {
  auto result = db_.Execute(
      "SELECT COUNT(*) FROM outer_t o WHERE o.x = 1");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().rows[0][0].AsInteger(), 1);
  // The original name is no longer addressable once aliased.
  EXPECT_FALSE(
      db_.Execute("SELECT COUNT(*) FROM outer_t o WHERE outer_t.x = 1")
          .ok());
}

TEST_F(BinderTest, DuplicateAliasRejected) {
  auto result = db_.Execute("SELECT * FROM outer_t a, inner_t a");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BinderTest, SelfJoinWithAliases) {
  auto result = db_.Execute(
      "SELECT COUNT(*) FROM outer_t a, outer_t b WHERE a.x < b.x");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().rows[0][0].AsInteger(), 1);  // (1,2)
}

TEST_F(BinderTest, AggregateInWhereRejected) {
  auto result =
      db_.Execute("SELECT x FROM outer_t WHERE COUNT(*) > 1 GROUP BY x");
  EXPECT_FALSE(result.ok());
}

TEST_F(BinderTest, StarWithGroupByRejected) {
  EXPECT_FALSE(db_.Execute("SELECT * FROM outer_t GROUP BY x").ok());
}

TEST_F(BinderTest, NestedAggregateRejected) {
  EXPECT_FALSE(db_.Execute("SELECT COUNT(MAX(x)) FROM outer_t").ok());
}

TEST_F(BinderTest, StarWithoutFromRejected) {
  EXPECT_FALSE(db_.Execute("SELECT *").ok());
}

TEST_F(BinderTest, OrderByOrdinalOutOfRange) {
  auto result = db_.Execute("SELECT x FROM outer_t ORDER BY 2");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // The error is the statement's, not the data's: no qualifying row.
  auto empty = db_.Execute("SELECT x FROM outer_t WHERE 1 = 0 ORDER BY 2");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

// Only the root's rows are sorted: an EXISTS subquery's ORDER BY is bound
// (its columns must resolve) but never checked against its result columns.
TEST_F(BinderTest, ExistsSubqueryOrderByIsNotChecked) {
  const char* accepted[] = {
      "SELECT COUNT(*) FROM outer_t WHERE EXISTS "
      "(SELECT x FROM inner_t ORDER BY 5)",
      "SELECT COUNT(*) FROM outer_t WHERE EXISTS "
      "(SELECT COUNT(*) FROM inner_t ORDER BY z)",
      "SELECT COUNT(*) FROM outer_t WHERE EXISTS "
      "(SELECT x FROM inner_t WHERE inner_t.x = outer_t.x ORDER BY 2)",
  };
  const int64_t counts[] = {2, 2, 1};
  for (size_t i = 0; i < 3; ++i) {
    auto result = db_.Execute(accepted[i]);
    ASSERT_TRUE(result.ok()) << result.status() << "\n" << accepted[i];
    EXPECT_EQ(result.value().rows[0][0].AsInteger(), counts[i]);
  }
  auto unresolved = db_.Execute(
      "SELECT COUNT(*) FROM outer_t WHERE EXISTS "
      "(SELECT x FROM inner_t ORDER BY nope)");
  ASSERT_FALSE(unresolved.ok());
  EXPECT_EQ(unresolved.status().code(), StatusCode::kNotFound);
}

TEST_F(BinderTest, OrderByAggregateAliasInGroupedQuery) {
  auto result = db_.Execute(
      "SELECT x, COUNT(*) AS n FROM outer_t GROUP BY x ORDER BY n DESC");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().rows.size(), 2u);
}

TEST_F(BinderTest, OrderByUnrelatedExprInGroupedQueryRejected) {
  EXPECT_FALSE(
      db_.Execute("SELECT x FROM outer_t GROUP BY x ORDER BY y").ok());
}

TEST_F(BinderTest, GroupingItemMustMatchGroupByText) {
  EXPECT_TRUE(
      db_.Execute("SELECT x, COUNT(*) FROM outer_t GROUP BY x").ok());
  EXPECT_FALSE(
      db_.Execute("SELECT y, COUNT(*) FROM outer_t GROUP BY x").ok());
}

TEST_F(BinderTest, DepthCountsSelectNesting) {
  Database shallow(Database::Options{.max_subquery_depth = 1,
                                     .enforce_foreign_keys = false});
  ASSERT_TRUE(shallow.ExecuteScript("CREATE TABLE t (a INTEGER);").ok());
  EXPECT_TRUE(shallow.Execute("SELECT * FROM t").ok());
  auto nested =
      shallow.Execute("SELECT * FROM t WHERE EXISTS (SELECT * FROM t)");
  ASSERT_FALSE(nested.ok());
  EXPECT_EQ(nested.status().code(), StatusCode::kLimitExceeded);
}

TEST_F(BinderTest, ErrorsNameTheMissingObject) {
  auto missing_table = db_.Execute("SELECT * FROM nothere");
  ASSERT_FALSE(missing_table.ok());
  EXPECT_NE(missing_table.status().message().find("nothere"),
            std::string::npos);
  auto missing_column = db_.Execute("SELECT nope FROM outer_t");
  ASSERT_FALSE(missing_column.ok());
  EXPECT_NE(missing_column.status().message().find("nope"),
            std::string::npos);
}

TEST_F(BinderTest, InsertArityAndUnknownColumn) {
  EXPECT_FALSE(db_.Execute("INSERT INTO outer_t VALUES (1)").ok());
  EXPECT_FALSE(
      db_.Execute("INSERT INTO outer_t (x, nope) VALUES (1, 2)").ok());
  EXPECT_TRUE(db_.Execute("INSERT INTO outer_t (y, x) VALUES (30, 3)").ok());
  auto check = db_.Execute("SELECT y FROM outer_t WHERE x = 3");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value().rows[0][0].AsInteger(), 30);
}

TEST_F(BinderTest, InsertPartialColumnListFillsNulls) {
  ASSERT_TRUE(db_.Execute("INSERT INTO outer_t (x) VALUES (9)").ok());
  auto check = db_.Execute("SELECT y FROM outer_t WHERE x = 9");
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check.value().rows[0][0].is_null());
}

TEST_F(BinderTest, ColumnRefsInInsertValuesRejected) {
  EXPECT_FALSE(db_.Execute("INSERT INTO outer_t VALUES (x, 1)").ok());
}

}  // namespace
}  // namespace p3pdb::sqldb
