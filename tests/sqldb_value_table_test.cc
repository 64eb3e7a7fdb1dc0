// Unit tests for sqldb internals: Value three-valued comparison semantics,
// schema/row validation, index maintenance, and prepared statements.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "sqldb/database.h"
#include "sqldb/table.h"
#include "sqldb/value.h"

namespace p3pdb::sqldb {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Integer(42).AsInteger(), 42);
  EXPECT_EQ(Value::Text("x").AsText(), "x");
  EXPECT_TRUE(Value::Boolean(true).AsBoolean());
  EXPECT_EQ(Value::Integer(1).type(), ValueType::kInteger);
  EXPECT_EQ(Value::Text("").type(), ValueType::kText);
}

TEST(ValueTest, ToStringQuotesText) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Integer(-5).ToString(), "-5");
  EXPECT_EQ(Value::Text("it's").ToString(), "'it''s'");
  EXPECT_EQ(Value::Boolean(false).ToString(), "FALSE");
  EXPECT_EQ(Value::Text("plain").ToDisplayString(), "plain");
}

TEST(ValueTest, CompareEqThreeValued) {
  auto eq = Value::CompareEq(Value::Integer(1), Value::Integer(1));
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(eq.value().AsBoolean());

  auto ne = Value::CompareEq(Value::Text("a"), Value::Text("b"));
  ASSERT_TRUE(ne.ok());
  EXPECT_FALSE(ne.value().AsBoolean());

  // NULL poisons comparisons into NULL, including NULL = NULL.
  EXPECT_TRUE(
      Value::CompareEq(Value::Null(), Value::Integer(1)).value().is_null());
  EXPECT_TRUE(
      Value::CompareEq(Value::Null(), Value::Null()).value().is_null());

  // Mixed non-null types are an error, not false.
  EXPECT_FALSE(Value::CompareEq(Value::Integer(1), Value::Text("1")).ok());
}

TEST(ValueTest, CompareLt) {
  EXPECT_TRUE(Value::CompareLt(Value::Integer(1), Value::Integer(2))
                  .value()
                  .AsBoolean());
  EXPECT_FALSE(Value::CompareLt(Value::Text("b"), Value::Text("a"))
                   .value()
                   .AsBoolean());
  EXPECT_TRUE(
      Value::CompareLt(Value::Null(), Value::Integer(1)).value().is_null());
  // Booleans have no order in this dialect.
  EXPECT_FALSE(
      Value::CompareLt(Value::Boolean(false), Value::Boolean(true)).ok());
}

TEST(ValueTest, OrderCompareTotalOrder) {
  // NULL < integers < text < boolean by type rank; within type by value.
  EXPECT_LT(Value::OrderCompare(Value::Null(), Value::Integer(0)), 0);
  EXPECT_LT(Value::OrderCompare(Value::Integer(5), Value::Text("")), 0);
  EXPECT_EQ(Value::OrderCompare(Value::Integer(3), Value::Integer(3)), 0);
  EXPECT_GT(Value::OrderCompare(Value::Text("b"), Value::Text("a")), 0);
  EXPECT_EQ(Value::OrderCompare(Value::Null(), Value::Null()), 0);
}

TEST(ValueTest, HashConsistentWithOrderEquality) {
  EXPECT_EQ(Value::Integer(7).Hash(), Value::Integer(7).Hash());
  EXPECT_EQ(Value::Text("abc").Hash(), Value::Text("abc").Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
}

TEST(ValueTest, SixteenBytesWithInlineAndStoredText) {
  static_assert(sizeof(Value) == 16);
  const std::string inline_text(Value::kInlineText, 'i');
  const std::string long_text(Value::kInlineText + 1, 'l');
  EXPECT_EQ(Value::Text(inline_text).StoredTextBytes(), 0u);
  EXPECT_GT(Value::Text(long_text).StoredTextBytes(), long_text.size());
  EXPECT_EQ(Value::Integer(1).StoredTextBytes(), 0u);
  // Embedded NULs count, inline and stored.
  const std::string nul_short("a\0b", 3);
  const std::string nul_long("a\0bcdefghijklmnopq", 19);
  EXPECT_EQ(Value::Text(nul_short).AsText(), nul_short);
  EXPECT_EQ(Value::Text(nul_long).AsText(), nul_long);
  EXPECT_FALSE(Value::Text(nul_long) == Value::Text("a"));
  EXPECT_EQ(Value::Text(nul_long).Hash(),
            std::hash<std::string_view>()(nul_long));
}

TEST(ValueTest, CopiesStandAloneAndBorrowsShare) {
  const std::string text = "a text longer than the inline bytes";
  Value owner = Value::Text(text);
  const Value copy = owner;
  const Value borrow = owner.Borrow();
  EXPECT_NE(copy.AsText().data(), owner.AsText().data());
  EXPECT_EQ(borrow.AsText().data(), owner.AsText().data());
  // A borrow made to stand alone (as a result row is) outlives its owner.
  Value kept = borrow;
  Value owned_borrow = borrow;
  owned_borrow.Own();
  owner = Value::Null();
  EXPECT_EQ(copy.AsText(), text);
  EXPECT_EQ(kept.AsText(), text);
  EXPECT_EQ(owned_borrow.AsText(), text);
  // Moves keep the bytes where they are.
  Value moved_from = Value::Text(text);
  const char* bytes = moved_from.AsText().data();
  Value moved = std::move(moved_from);
  EXPECT_EQ(moved.AsText().data(), bytes);
}

TEST(ValueTest, ValuesOutliveTheirTableAndDatabase) {
  // Long texts are interned in the table's pool, short ones sit inline.
  const std::string long_a = "current,admin,develop,tailoring,pseudo-analysis";
  const std::string long_b = "#dynamic.clickstream.uri.authority";
  QueryResult rows;
  QueryResult star;
  QueryResult max;
  QueryResult literal;
  QueryResult param;
  Value cell;
  {
    auto db = std::make_unique<Database>();
    ASSERT_TRUE(db->ExecuteScript("CREATE TABLE t (id INTEGER, s TEXT, "
                                  "u TEXT, PRIMARY KEY (id));")
                    .ok());
    ASSERT_TRUE(db->InsertRow("t", {Value::Integer(1), Value::Text(long_a),
                                    Value::Text("short")})
                    .ok());
    ASSERT_TRUE(db->InsertRow("t", {Value::Integer(2), Value::Text(long_b),
                                    Value::Text(long_a)})
                    .ok());
    auto r = db->Execute("SELECT s, u FROM t ORDER BY id");
    ASSERT_TRUE(r.ok()) << r.status();
    rows = std::move(r).value();
    r = db->Execute("SELECT * FROM t WHERE id = 2");
    ASSERT_TRUE(r.ok()) << r.status();
    star = std::move(r).value();
    r = db->Execute("SELECT MAX(s) FROM t");
    ASSERT_TRUE(r.ok()) << r.status();
    max = std::move(r).value();
    r = db->Execute("SELECT 'a literal longer than the inline bytes' FROM t "
                    "WHERE id = 1");
    ASSERT_TRUE(r.ok()) << r.status();
    literal = std::move(r).value();
    auto prepared = db->Prepare("SELECT s FROM t WHERE s = ?");
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    r = prepared.value().Execute({Value::Text(long_b)});
    ASSERT_TRUE(r.ok()) << r.status();
    param = std::move(r).value();
    cell = db->LookupTable("t")->RowAt(0)[1];

    ASSERT_TRUE(db->Execute("DELETE FROM t").ok());
    ASSERT_TRUE(db->Execute("DROP TABLE t").ok());
    db.reset();
  }
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[0][0].AsText(), long_a);
  EXPECT_EQ(rows.rows[0][1].AsText(), "short");
  EXPECT_EQ(rows.rows[1][0].AsText(), long_b);
  EXPECT_EQ(rows.rows[1][1].AsText(), long_a);
  ASSERT_EQ(star.rows.size(), 1u);
  EXPECT_EQ(star.rows[0][1].AsText(), long_b);
  EXPECT_EQ(star.rows[0][2].AsText(), long_a);
  EXPECT_EQ(max.rows.at(0).at(0).AsText(), long_a);
  EXPECT_EQ(literal.rows.at(0).at(0).AsText(),
            "a literal longer than the inline bytes");
  EXPECT_EQ(param.rows.at(0).at(0).AsText(), long_b);
  EXPECT_EQ(cell.AsText(), long_a);
  EXPECT_EQ(cell.Hash(), Value::Text(long_a).Hash());
  // Copies of the kept values stand alone too.
  const Value again = rows.rows[1][0];
  rows = QueryResult();
  EXPECT_EQ(again.AsText(), long_b);
}

TEST(TableTest, InternsEachDistinctLongTextOnce) {
  TableSchema schema("t", {ColumnDef{"a", ColumnType::kText, true},
                           ColumnDef{"b", ColumnType::kText, true}});
  Table table(std::move(schema));
  const std::string long_text = "a text longer than the inline bytes";
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        table.Insert({Value::Text(long_text), Value::Text(long_text)}).ok());
  }
  ASSERT_TRUE(table.Insert({Value::Text("short"), Value::Null()}).ok());
  EXPECT_EQ(table.footprint().distinct_texts, 1u);
  EXPECT_EQ(table.RowAt(0)[0].AsText().data(),
            table.RowAt(9)[1].AsText().data());
  // A row re-inserted from the table's own slot survives the cell array
  // growing under it.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(table.Insert(table.RowAt(static_cast<size_t>(i))).ok());
  }
  for (size_t row = 0; row < table.SlotCount(); ++row) {
    EXPECT_TRUE(table.RowAt(row)[0].AsText() == long_text ||
                table.RowAt(row)[0].AsText() == "short");
  }
  EXPECT_EQ(table.footprint().distinct_texts, 1u);
}

TEST(TableSchemaTest, ValidateRow) {
  TableSchema schema("t", {ColumnDef{"a", ColumnType::kInteger, false},
                           ColumnDef{"b", ColumnType::kText, true}});
  EXPECT_TRUE(
      schema.ValidateRow(Row{Value::Integer(1), Value::Text("x")}).ok());
  EXPECT_TRUE(schema.ValidateRow(Row{Value::Integer(1), Value::Null()}).ok());
  // Arity.
  EXPECT_FALSE(schema.ValidateRow(Row{Value::Integer(1)}).ok());
  // NOT NULL.
  EXPECT_FALSE(schema.ValidateRow(Row{Value::Null(), Value::Null()}).ok());
  // Type mismatch.
  EXPECT_FALSE(
      schema.ValidateRow(Row{Value::Text("1"), Value::Null()}).ok());
  // Booleans are not storable.
  EXPECT_FALSE(
      schema.ValidateRow(Row{Value::Integer(1), Value::Boolean(true)}).ok());
}

TEST(TableSchemaTest, ColumnIndexCaseInsensitive) {
  TableSchema schema("t", {ColumnDef{"Policy_Id", ColumnType::kInteger,
                                     false}});
  EXPECT_EQ(schema.ColumnIndex("policy_id"), 0u);
  EXPECT_EQ(schema.ColumnIndex("POLICY_ID"), 0u);
  EXPECT_FALSE(schema.ColumnIndex("nope").has_value());
}

TEST(TableSchemaTest, ToCreateTableSqlRoundTrips) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(
                    "CREATE TABLE parent (id INTEGER NOT NULL, "
                    "PRIMARY KEY (id));")
                  .ok());
  const Table* parent = db.LookupTable("parent");
  ASSERT_NE(parent, nullptr);
  std::string ddl = parent->schema().ToCreateTableSql();
  Database db2;
  EXPECT_TRUE(db2.ExecuteScript(ddl).ok()) << ddl;
}

TEST(TableTest, InsertDeleteAndIndexMaintenance) {
  TableSchema schema("t", {ColumnDef{"k", ColumnType::kInteger, false},
                           ColumnDef{"v", ColumnType::kText, true}});
  schema.set_primary_key({"k"});
  Table table(std::move(schema));
  ASSERT_TRUE(table.Insert({Value::Integer(1), Value::Text("a")}).ok());
  ASSERT_TRUE(table.Insert({Value::Integer(2), Value::Text("b")}).ok());
  EXPECT_EQ(table.RowCount(), 2u);

  // Duplicate PK rejected.
  auto dup = table.Insert({Value::Integer(1), Value::Text("c")});
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(table.RowCount(), 2u);

  // Delete frees the key for reuse.
  table.Delete(0);
  EXPECT_EQ(table.RowCount(), 1u);
  EXPECT_FALSE(table.IsLive(0));
  EXPECT_TRUE(table.Insert({Value::Integer(1), Value::Text("again")}).ok());
  EXPECT_EQ(table.RowCount(), 2u);
}

TEST(TableTest, NullKeysAreNotIndexed) {
  TableSchema schema("t", {ColumnDef{"k", ColumnType::kInteger, true}});
  Table table(std::move(schema));
  ASSERT_TRUE(table.CreateIndex("uk", {"k"}, /*unique=*/true).ok());
  // Two NULL keys do not collide (NULL != NULL).
  EXPECT_TRUE(table.Insert({Value::Null()}).ok());
  EXPECT_TRUE(table.Insert({Value::Null()}).ok());
  EXPECT_TRUE(table.Insert({Value::Integer(1)}).ok());
  EXPECT_FALSE(table.Insert({Value::Integer(1)}).ok());
}

TEST(TableTest, FindIndexCoveringPrefersWidest) {
  TableSchema schema("t", {ColumnDef{"a", ColumnType::kInteger, false},
                           ColumnDef{"b", ColumnType::kInteger, false},
                           ColumnDef{"c", ColumnType::kInteger, false}});
  Table table(std::move(schema));
  ASSERT_TRUE(table.CreateIndex("ia", {"a"}, false).ok());
  ASSERT_TRUE(table.CreateIndex("iab", {"a", "b"}, false).ok());
  const Index* found = table.FindIndexCovering({0, 1, 2});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->name(), "iab");
  // Only column c available: no usable index.
  EXPECT_EQ(table.FindIndexCovering({2}), nullptr);
  // Only a available: single-column index.
  EXPECT_EQ(table.FindIndexCovering({0})->name(), "ia");
}

TEST(TableTest, CreateIndexValidates) {
  TableSchema schema("t", {ColumnDef{"a", ColumnType::kInteger, false}});
  Table table(std::move(schema));
  EXPECT_EQ(table.CreateIndex("i", {"nope"}, false).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(table.CreateIndex("i", {"a"}, false).ok());
  EXPECT_EQ(table.CreateIndex("i", {"a"}, false).code(),
            StatusCode::kAlreadyExists);
}

TEST(TableTest, CreateUniqueIndexOnExistingDuplicatesFails) {
  TableSchema schema("t", {ColumnDef{"a", ColumnType::kInteger, false}});
  Table table(std::move(schema));
  ASSERT_TRUE(table.Insert({Value::Integer(1)}).ok());
  ASSERT_TRUE(table.Insert({Value::Integer(1)}).ok());
  EXPECT_FALSE(table.CreateIndex("u", {"a"}, /*unique=*/true).ok());
}

TEST(PreparedStatementTest, ReusedAcrossDataChanges) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER);").ok());
  auto stmt = db.Prepare("SELECT COUNT(*) FROM t WHERE a >= 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  auto r0 = stmt.value().Execute();
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(r0.value().rows[0][0].AsInteger(), 0);
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (5), (10), (15)").ok());
  auto r1 = stmt.value().Execute();
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().rows[0][0].AsInteger(), 2);
}

TEST(PreparedStatementTest, OnlySelectsPrepare) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER);").ok());
  EXPECT_EQ(db.Prepare("INSERT INTO t VALUES (1)").status().code(),
            StatusCode::kUnsupported);
  EXPECT_FALSE(db.Prepare("SELECT * FROM missing").ok());
}

TEST(PreparedStatementTest, StaleAfterDdl) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER);").ok());
  auto stmt = db.Prepare("SELECT * FROM t");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE other (b INTEGER)").ok());
  auto result = stmt.value().Execute();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PreparedStatementTest, EmptyStatementFails) {
  PreparedStatement empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.Execute().ok());
}

}  // namespace
}  // namespace p3pdb::sqldb
