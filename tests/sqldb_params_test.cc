// Bind-parameter (`?`) support: parse/bind/execute plumbing, unbound and
// miscounted rejection, index use, prepared re-execution, and agreement
// between traced and untraced execution.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

#include "sqldb/database.h"

namespace p3pdb::sqldb {
namespace {

void InstallAlbums(Database* db) {
  ASSERT_TRUE(db->ExecuteScript(R"sql(
    CREATE TABLE Album (
      album_id INTEGER NOT NULL,
      artist VARCHAR(64) NOT NULL,
      year INTEGER,
      PRIMARY KEY (album_id)
    );
  )sql")
                  .ok());
  for (int i = 1; i <= 40; ++i) {
    ASSERT_TRUE(db->InsertRow("Album",
                              {Value::Integer(i),
                               Value::Text("artist-" + std::to_string(i % 4)),
                               Value::Integer(1960 + i)})
                    .ok());
  }
}

class SqldbParamsTest : public ::testing::Test {
 protected:
  void SetUp() override { InstallAlbums(&db_); }

  Database db_;
};

TEST_F(SqldbParamsTest, UnparameterizedExecuteRejectsPlaceholder) {
  auto result = db_.Execute("SELECT * FROM Album WHERE album_id = ?");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("parameter"), std::string::npos)
      << result.status();
}

TEST_F(SqldbParamsTest, ExecuteWithParamsReturnsLiteralRows) {
  auto literal = db_.Execute("SELECT artist FROM Album WHERE album_id = 7");
  ASSERT_TRUE(literal.ok());
  auto bound = db_.Execute("SELECT artist FROM Album WHERE album_id = ?",
                           {Value::Integer(7)});
  ASSERT_TRUE(bound.ok()) << bound.status();
  ASSERT_EQ(bound.value().rows.size(), literal.value().rows.size());
  EXPECT_EQ(bound.value().rows[0], literal.value().rows[0]);
}

TEST_F(SqldbParamsTest, ParamCountMismatchIsRejected) {
  auto prepared = db_.Prepare(
      "SELECT * FROM Album WHERE album_id = ? AND year = ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(prepared.value().param_count(), 2u);

  auto unbound = prepared.value().Execute();
  ASSERT_FALSE(unbound.ok());
  auto too_few = prepared.value().Execute({Value::Integer(3)});
  ASSERT_FALSE(too_few.ok());
  EXPECT_NE(too_few.status().ToString().find("2 parameter"),
            std::string::npos)
      << too_few.status();
  auto too_many = prepared.value().Execute(
      {Value::Integer(3), Value::Integer(1963), Value::Integer(9)});
  ASSERT_FALSE(too_many.ok());

  auto exact = prepared.value().Execute(
      {Value::Integer(3), Value::Integer(1963)});
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_EQ(exact.value().rows.size(), 1u);
}

TEST_F(SqldbParamsTest, ExecuteWithParamsOnNonSelectIsRejected) {
  auto result = db_.Execute("DELETE FROM Album WHERE album_id = ?",
                            {Value::Integer(1)});
  ASSERT_FALSE(result.ok());
}

TEST_F(SqldbParamsTest, PlaceholderInDmlIsRejectedAsUnbound) {
  auto result = db_.Execute("DELETE FROM Album WHERE album_id = ?");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("parameter"), std::string::npos);
}

TEST_F(SqldbParamsTest, ParamEqualityUsesPrimaryKeyIndex) {
  db_.ResetStats();
  auto bound = db_.Execute("SELECT year FROM Album WHERE album_id = ?",
                           {Value::Integer(21)});
  ASSERT_TRUE(bound.ok()) << bound.status();
  ASSERT_EQ(bound.value().rows.size(), 1u);
  EXPECT_EQ(bound.value().rows[0][0].AsInteger(), 1981);
  EXPECT_GE(db_.stats().index_lookups, 1u);
  EXPECT_EQ(db_.stats().full_scans, 0u);
}

TEST_F(SqldbParamsTest, PreparedStatementReexecutesWithDifferentValues) {
  auto prepared = db_.Prepare("SELECT COUNT(*) FROM Album WHERE artist = ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto hits = prepared.value().Execute({Value::Text("artist-1")});
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits.value().rows[0][0].AsInteger(), 10);
  auto misses = prepared.value().Execute({Value::Text("nobody")});
  ASSERT_TRUE(misses.ok());
  EXPECT_EQ(misses.value().rows[0][0].AsInteger(), 0);
}

TEST_F(SqldbParamsTest, ParamInSubqueryCountsOnRootStatement) {
  auto prepared = db_.Prepare(
      "SELECT album_id FROM Album WHERE year = ? AND EXISTS "
      "(SELECT * FROM Album WHERE album_id = ?)");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(prepared.value().param_count(), 2u);
  auto rows = prepared.value().Execute(
      {Value::Integer(1970), Value::Integer(1)});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows.value().rows.size(), 1u);
  EXPECT_EQ(rows.value().rows[0][0].AsInteger(), 10);
}

// A trace only records spans: for the same statement sequence, traced and
// untraced execution return the same rows and status and move every
// executor counter by the same amount.
TEST(SqldbTracedExecuteTest, TracedAndUntracedExecutionAgree) {
  struct Step {
    std::string sql;
    std::optional<std::vector<Value>> params;
  };
  const std::vector<Step> steps = {
      {"SELECT artist FROM Album WHERE album_id = ?", {{Value::Integer(7)}}},
      // Plan-cache hit.
      {"SELECT artist FROM Album WHERE album_id = ?", {{Value::Integer(8)}}},
      {"UPDATE Album SET year = 2000 WHERE album_id = 3", std::nullopt},
      {"DELETE FROM Album WHERE album_id = 40", std::nullopt},
      {"EXPLAIN SELECT year FROM Album WHERE album_id = ?",
       {{Value::Integer(21)}}},
      // Wrong parameter count: rejected before binding, so nothing is
      // planned or cached.
      {"SELECT * FROM Album WHERE album_id = ? AND year = ?",
       {{Value::Integer(1)}}},
      {"SELECT year FROM Album WHERE artist = ?", std::nullopt},
      {"SELECT * FROM Album WHERE album_id = ? AND year = ?",
       {{Value::Integer(1), Value::Integer(1961)}}},
      {"DELETE FROM Album WHERE album_id = ?", {{Value::Integer(1)}}},
      {"SELECT COUNT(*) FROM Album", std::nullopt},
  };

  Database plain;
  Database traced;
  InstallAlbums(&plain);
  InstallAlbums(&traced);
  for (const Step& step : steps) {
    SCOPED_TRACE(step.sql);
    const ExecStats plain_before = plain.stats();
    const ExecStats traced_before = traced.stats();
    obs::TraceContext trace;
    Result<QueryResult> untraced_result =
        step.params ? plain.Execute(step.sql, *step.params)
                    : plain.Execute(step.sql);
    Result<QueryResult> traced_result =
        step.params ? traced.Execute(step.sql, *step.params, &trace)
                    : traced.Execute(step.sql, &trace);
    const ExecStats plain_after = plain.stats();
    const ExecStats traced_after = traced.stats();

    ASSERT_EQ(untraced_result.status(), traced_result.status());
    EXPECT_NE(trace.root(), nullptr);
    if (untraced_result.ok()) {
      EXPECT_EQ(untraced_result.value().rows, traced_result.value().rows);
      EXPECT_EQ(untraced_result.value().rows_affected,
                traced_result.value().rows_affected);
    }
    for (const ExecStatsField& field : kExecStatsFields) {
      EXPECT_EQ(plain_after.*field.member - plain_before.*field.member,
                traced_after.*field.member - traced_before.*field.member)
          << field.name;
    }
  }
}

}  // namespace
}  // namespace p3pdb::sqldb
