// Tests for the SQL lexer and parser.

#include <gtest/gtest.h>

#include "sqldb/ast.h"
#include "sqldb/lexer.h"
#include "sqldb/parser.h"

namespace p3pdb::sqldb {
namespace {

TokenList MustTokenize(std::string_view sql) {
  auto result = Tokenize(sql);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

TEST(LexerTest, BasicTokens) {
  TokenList tokens = MustTokenize("SELECT * FROM t WHERE a = 1");
  ASSERT_EQ(tokens.size(), 9u);  // incl. kEnd
  EXPECT_TRUE(tokens[0].IsKeyword(Keyword::kSelect));
  EXPECT_EQ(tokens[1].type, TokenType::kStar);
  EXPECT_TRUE(tokens[2].IsKeyword(Keyword::kFrom));
  EXPECT_EQ(tokens[3].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[5].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[6].type, TokenType::kOperator);
  EXPECT_EQ(tokens[7].type, TokenType::kInteger);
  EXPECT_EQ(tokens[7].int_value, 1);
  EXPECT_EQ(tokens.back().type, TokenType::kEnd);
}

TEST(LexerTest, StringLiteralWithEscapedQuote) {
  TokenList tokens = MustTokenize("'it''s'");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].type, TokenType::kString);
  EXPECT_EQ(tokens[0].text, "it's");
}

TEST(LexerTest, Operators) {
  TokenList tokens = MustTokenize("= <> != < <= > >=");
  ASSERT_EQ(tokens.size(), 8u);
  EXPECT_EQ(tokens[0].text, "=");
  EXPECT_EQ(tokens[1].text, "<>");
  EXPECT_EQ(tokens[2].text, "<>");  // != normalizes
  EXPECT_EQ(tokens[3].text, "<");
  EXPECT_EQ(tokens[4].text, "<=");
  EXPECT_EQ(tokens[5].text, ">");
  EXPECT_EQ(tokens[6].text, ">=");
}

TEST(LexerTest, CommentsSkipped) {
  TokenList tokens = MustTokenize("SELECT -- comment\n 1");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].type, TokenType::kInteger);
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("SELECT 'abc").ok());
}

TEST(LexerTest, QualifiedName) {
  TokenList tokens = MustTokenize("Policy.policy_id");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].type, TokenType::kDot);
}

TEST(LexerTest, EscapedLiteralsDecodeAndSurviveAMove) {
  // Several escaped literals share the list's decode buffer; the views must
  // stay valid once the list is moved out of the Result and again.
  const std::string sql = "SELECT 'a''b', 'plain', '''', 'x''''y' FROM t";
  TokenList first = MustTokenize(sql);
  TokenList tokens = std::move(first);
  ASSERT_EQ(tokens.size(), 11u);
  EXPECT_EQ(tokens[1].text, "a'b");
  EXPECT_EQ(tokens[3].text, "plain");
  EXPECT_EQ(tokens[5].text, "'");
  EXPECT_EQ(tokens[7].text, "x''y");
  // An unescaped literal is a view into the text itself.
  EXPECT_EQ(tokens[3].text.data(), sql.data() + 16);
  EXPECT_EQ(tokens[1].offset, 7u);
  EXPECT_EQ(tokens[3].offset, 15u);
  EXPECT_EQ(tokens[7].offset, 30u);
  auto parsed = ParseStatement(sql);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(static_cast<const SelectStmt&>(*parsed.value()).ToSql(),
            sql);  // ToSql re-escapes: the statement round-trips
}

TEST(LexerTest, NotEqualsSpellsAngleBrackets) {
  TokenList tokens = MustTokenize("a!=b");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].type, TokenType::kOperator);
  EXPECT_EQ(tokens[1].text, "<>");
  EXPECT_EQ(tokens[1].offset, 1u);
  auto parsed = ParseStatement("SELECT 1 FROM t WHERE a != 2");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(static_cast<const SelectStmt&>(*parsed.value()).ToSql(),
            "SELECT 1 FROM t WHERE a <> 2");
}

TEST(LexerTest, MixedCaseKeywordsGetTheirIds) {
  TokenList tokens =
      MustTokenize("sElEcT DiStInCt x FrOm t wHeRe NoT eXiStS");
  EXPECT_EQ(tokens[0].keyword, Keyword::kSelect);
  EXPECT_EQ(tokens[1].keyword, Keyword::kDistinct);
  EXPECT_EQ(tokens[2].keyword, Keyword::kNone);
  EXPECT_EQ(tokens[3].keyword, Keyword::kFrom);
  EXPECT_EQ(tokens[5].keyword, Keyword::kWhere);
  EXPECT_EQ(tokens[6].keyword, Keyword::kNot);
  EXPECT_EQ(tokens[7].keyword, Keyword::kExists);
  // The spelling is kept as written.
  EXPECT_EQ(tokens[0].text, "sElEcT");
  // Near-misses are plain identifiers: a digit or '_' never folds into a
  // letter, and longer or shorter words never match.
  for (const char* word : {"selects", "selec", "s_lect", "SELECT_", "in1",
                           "references_", "_from"}) {
    TokenList t = MustTokenize(word);
    EXPECT_EQ(t[0].type, TokenType::kIdentifier) << word;
    EXPECT_EQ(t[0].keyword, Keyword::kNone) << word;
  }
  EXPECT_EQ(KeywordSpelling(Keyword::kReferences), "REFERENCES");
  EXPECT_EQ(KeywordSpelling(Keyword::kNone), "");
}

TEST(LexerTest, KeywordsStillServeAsNames) {
  // Keywords are not reserved: `key` and `text` work as column names.
  auto parsed = ParseStatement("SELECT key, text FROM t WHERE key = 1");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(static_cast<const SelectStmt&>(*parsed.value()).ToSql(),
            "SELECT key, text FROM t WHERE key = 1");
}

TEST(LexerTest, ErrorMessagesKeepTheirOffsets) {
  auto bad_char = Tokenize("SELECT a FROM t WHERE a = #");
  ASSERT_FALSE(bad_char.ok());
  EXPECT_EQ(bad_char.status().message(),
            "unexpected character '#' at offset 26");
  auto bang = Tokenize("SELECT a ! b");
  ASSERT_FALSE(bang.ok());
  EXPECT_EQ(bang.status().message(), "unexpected '!' at offset 9");
  auto open = Tokenize("SELECT 'abc");
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.status().message(),
            "unterminated string literal at offset 7");
  auto parse = ParseStatement("SELECT a FROM t WHERE");
  ASSERT_FALSE(parse.ok());
  EXPECT_EQ(parse.status().message(),
            "expected expression near offset 21 (end of input)");
  auto keyword = ParseStatement("SELECT a FROM t GROUP x");
  ASSERT_FALSE(keyword.ok());
  EXPECT_EQ(keyword.status().message(), "expected BY near offset 22 ('x')");
}

TEST(LexerTest, IntegerLiteralOutOfRangeIsAParseError) {
  TokenList max = MustTokenize("9223372036854775807");
  EXPECT_EQ(max[0].int_value, INT64_MAX);
  for (const char* sql :
       {"SELECT 9223372036854775808", "SELECT 99999999999999999999",
        "SELECT 1 FROM t WHERE a = 123456789012345678901234567890"}) {
    auto tokens = Tokenize(sql);
    ASSERT_FALSE(tokens.ok()) << sql;
    EXPECT_EQ(tokens.status().code(), StatusCode::kParseError);
    EXPECT_NE(tokens.status().message().find("integer literal out of range"),
              std::string::npos)
        << tokens.status().message();
    EXPECT_FALSE(ParseStatement(sql).ok()) << sql;
  }
  auto script = ParseScript("SELECT 1; SELECT 99999999999999999999");
  ASSERT_FALSE(script.ok());
  EXPECT_EQ(script.status().message(),
            "integer literal out of range at offset 17");
}

std::unique_ptr<Statement> MustParse(std::string_view sql) {
  auto result = ParseStatement(sql);
  EXPECT_TRUE(result.ok()) << result.status() << "\nSQL: " << sql;
  return result.ok() ? std::move(result).value() : nullptr;
}

const SelectStmt& AsSelect(const std::unique_ptr<Statement>& stmt) {
  EXPECT_EQ(stmt->kind, StatementKind::kSelect);
  return static_cast<const SelectStmt&>(*stmt);
}

TEST(ParserTest, SimpleSelect) {
  auto stmt = MustParse("SELECT a, b FROM t WHERE a = 1");
  const SelectStmt& sel = AsSelect(stmt);
  EXPECT_EQ(sel.items.size(), 2u);
  EXPECT_EQ(sel.from.size(), 1u);
  EXPECT_EQ(sel.from[0].table_name, "t");
  ASSERT_NE(sel.where, nullptr);
}

TEST(ParserTest, SelectStarWithAlias) {
  auto stmt = MustParse("SELECT * FROM Policy p");
  const SelectStmt& sel = AsSelect(stmt);
  EXPECT_TRUE(sel.items[0].is_star);
  EXPECT_EQ(sel.from[0].alias, "p");
}

TEST(ParserTest, SelectLiteralBehavior) {
  // The shape main() generates in Figure 13: SELECT 'block' FROM ...
  auto stmt = MustParse("SELECT 'block' FROM ApplicablePolicy");
  const SelectStmt& sel = AsSelect(stmt);
  ASSERT_EQ(sel.items.size(), 1u);
  EXPECT_EQ(sel.items[0].expr->kind, ExprKind::kLiteral);
}

TEST(ParserTest, NestedExists) {
  auto stmt = MustParse(
      "SELECT 'block' FROM ApplicablePolicy WHERE EXISTS ("
      "SELECT * FROM Policy WHERE Policy.policy_id = "
      "ApplicablePolicy.policy_id AND EXISTS ("
      "SELECT * FROM Statement WHERE Statement.policy_id = "
      "Policy.policy_id))");
  const SelectStmt& sel = AsSelect(stmt);
  ASSERT_EQ(sel.where->kind, ExprKind::kExists);
  const auto& outer = static_cast<const ExistsExpr&>(*sel.where);
  ASSERT_NE(outer.subquery, nullptr);
  ASSERT_NE(outer.subquery->where, nullptr);
  EXPECT_EQ(outer.subquery->where->kind, ExprKind::kLogical);
}

TEST(ParserTest, OrPrecedenceLowerThanAnd) {
  auto stmt = MustParse("SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3");
  const SelectStmt& sel = AsSelect(stmt);
  const auto& top = static_cast<const LogicalExpr&>(*sel.where);
  EXPECT_FALSE(top.is_and);
  ASSERT_EQ(top.operands.size(), 2u);
  EXPECT_EQ(top.operands[1]->kind, ExprKind::kLogical);
  EXPECT_TRUE(static_cast<const LogicalExpr&>(*top.operands[1]).is_and);
}

TEST(ParserTest, ParensOverridePrecedence) {
  auto stmt = MustParse("SELECT 1 FROM t WHERE (a = 1 OR b = 2) AND c = 3");
  const auto& top = static_cast<const LogicalExpr&>(*AsSelect(stmt).where);
  EXPECT_TRUE(top.is_and);
  EXPECT_EQ(top.operands[0]->kind, ExprKind::kLogical);
}

TEST(ParserTest, NotExists) {
  auto stmt = MustParse("SELECT 1 FROM t WHERE NOT EXISTS (SELECT * FROM u)");
  const auto& exists = static_cast<const ExistsExpr&>(*AsSelect(stmt).where);
  EXPECT_TRUE(exists.negated);
}

TEST(ParserTest, InList) {
  auto stmt =
      MustParse("SELECT 1 FROM t WHERE p IN ('admin', 'contact', 'develop')");
  const auto& in = static_cast<const InListExpr&>(*AsSelect(stmt).where);
  EXPECT_EQ(in.items.size(), 3u);
  EXPECT_FALSE(in.negated);
}

TEST(ParserTest, NotIn) {
  auto stmt = MustParse("SELECT 1 FROM t WHERE p NOT IN ('x')");
  const auto& in = static_cast<const InListExpr&>(*AsSelect(stmt).where);
  EXPECT_TRUE(in.negated);
}

TEST(ParserTest, IsNullAndIsNotNull) {
  auto stmt = MustParse("SELECT 1 FROM t WHERE a IS NULL AND b IS NOT NULL");
  const auto& top = static_cast<const LogicalExpr&>(*AsSelect(stmt).where);
  const auto& lhs = static_cast<const IsNullExpr&>(*top.operands[0]);
  const auto& rhs = static_cast<const IsNullExpr&>(*top.operands[1]);
  EXPECT_FALSE(lhs.negated);
  EXPECT_TRUE(rhs.negated);
}

TEST(ParserTest, Like) {
  auto stmt = MustParse("SELECT 1 FROM t WHERE 'uri' LIKE pattern");
  EXPECT_EQ(AsSelect(stmt).where->kind, ExprKind::kLike);
}

TEST(ParserTest, DistinctGroupOrderLimit) {
  auto stmt = MustParse(
      "SELECT DISTINCT purpose, COUNT(*) FROM Purpose GROUP BY purpose "
      "ORDER BY 2 DESC LIMIT 5");
  const SelectStmt& sel = AsSelect(stmt);
  EXPECT_TRUE(sel.distinct);
  EXPECT_EQ(sel.group_by.size(), 1u);
  ASSERT_EQ(sel.order_by.size(), 1u);
  EXPECT_FALSE(sel.order_by[0].ascending);
  EXPECT_EQ(sel.limit, 5);
}

TEST(ParserTest, Aggregates) {
  auto stmt = MustParse("SELECT COUNT(*), COUNT(a), MIN(a), MAX(a), SUM(a) FROM t");
  const SelectStmt& sel = AsSelect(stmt);
  ASSERT_EQ(sel.items.size(), 5u);
  for (const auto& item : sel.items) {
    EXPECT_EQ(item.expr->kind, ExprKind::kAggregate);
  }
}

TEST(ParserTest, InsertPositional) {
  auto stmt = MustParse("INSERT INTO t VALUES (1, 'a'), (2, NULL)");
  const auto& ins = static_cast<const InsertStmt&>(*stmt);
  EXPECT_EQ(ins.table_name, "t");
  EXPECT_TRUE(ins.columns.empty());
  EXPECT_EQ(ins.rows.size(), 2u);
}

TEST(ParserTest, InsertWithColumns) {
  auto stmt = MustParse("INSERT INTO t (a, b) VALUES (1, 'x')");
  const auto& ins = static_cast<const InsertStmt&>(*stmt);
  ASSERT_EQ(ins.columns.size(), 2u);
  EXPECT_EQ(ins.columns[0], "a");
}

TEST(ParserTest, CreateTableFull) {
  auto stmt = MustParse(
      "CREATE TABLE Statement (policy_id INTEGER NOT NULL, "
      "statement_id INTEGER NOT NULL, consequence VARCHAR(255), "
      "PRIMARY KEY (policy_id, statement_id), "
      "FOREIGN KEY (policy_id) REFERENCES Policy (policy_id))");
  const auto& ct = static_cast<const CreateTableStmt&>(*stmt);
  EXPECT_EQ(ct.schema.name(), "Statement");
  EXPECT_EQ(ct.schema.ColumnCount(), 3u);
  EXPECT_FALSE(ct.schema.columns()[0].nullable);
  EXPECT_TRUE(ct.schema.columns()[2].nullable);
  EXPECT_EQ(ct.schema.primary_key().size(), 2u);
  ASSERT_EQ(ct.schema.foreign_keys().size(), 1u);
  EXPECT_EQ(ct.schema.foreign_keys()[0].referenced_table, "Policy");
}

TEST(ParserTest, CreateTableIfNotExists) {
  auto stmt = MustParse("CREATE TABLE IF NOT EXISTS t (a INTEGER)");
  EXPECT_TRUE(static_cast<const CreateTableStmt&>(*stmt).if_not_exists);
}

TEST(ParserTest, CreateUniqueIndex) {
  auto stmt = MustParse("CREATE UNIQUE INDEX idx ON t (a, b)");
  const auto& ci = static_cast<const CreateIndexStmt&>(*stmt);
  EXPECT_TRUE(ci.unique);
  EXPECT_EQ(ci.columns.size(), 2u);
}

TEST(ParserTest, DropTableIfExists) {
  auto stmt = MustParse("DROP TABLE IF EXISTS t");
  EXPECT_TRUE(static_cast<const DropTableStmt&>(*stmt).if_exists);
}

TEST(ParserTest, DeleteWithWhere) {
  auto stmt = MustParse("DELETE FROM t WHERE a = 1");
  const auto& del = static_cast<const DeleteStmt&>(*stmt);
  EXPECT_EQ(del.table_name, "t");
  ASSERT_NE(del.where, nullptr);
}

TEST(ParserTest, ScriptSplitsOnSemicolons) {
  auto result = ParseScript(
      "CREATE TABLE a (x INTEGER); INSERT INTO a VALUES (1);;"
      "SELECT * FROM a;");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().size(), 3u);
}

TEST(ParserTest, TrailingGarbageFails) {
  EXPECT_FALSE(ParseStatement("SELECT 1 FROM t extra garbage here").ok());
}

TEST(ParserTest, MissingFromTableFails) {
  EXPECT_FALSE(ParseStatement("SELECT a FROM WHERE x = 1").ok());
}

TEST(ParserTest, EmptyFails) { EXPECT_FALSE(ParseStatement("").ok()); }

TEST(ParserTest, ErrorsMentionOffset) {
  auto result = ParseStatement("SELECT FROM t");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("offset"), std::string::npos);
}

TEST(ParserTest, ToSqlRoundTrips) {
  const char* sql =
      "SELECT 'block' FROM ApplicablePolicy WHERE EXISTS (SELECT * FROM "
      "Purpose WHERE Purpose.policy_id = ApplicablePolicy.policy_id AND "
      "(Purpose.purpose = 'admin' OR Purpose.purpose = 'contact' AND "
      "Purpose.required = 'always'))";
  auto stmt = MustParse(sql);
  std::string rendered = AsSelect(stmt).ToSql();
  // Render -> parse -> render must be a fixed point.
  auto stmt2 = MustParse(rendered);
  EXPECT_EQ(AsSelect(stmt2).ToSql(), rendered);
}

}  // namespace
}  // namespace p3pdb::sqldb
