// Tests for the XQuery path: the Figure 17 translator, the parser, the
// native evaluator, and the XTABLE SQL generation (including the
// complexity-budget failure that reproduces Figure 21's missing cell).

#include <gtest/gtest.h>

#include "p3p/augment.h"
#include "p3p/policy_xml.h"
#include "shredder/simple_schema.h"
#include "sqldb/database.h"
#include "sqldb/parser.h"
#include "translator/applicable_policy.h"
#include "workload/jrc_preferences.h"
#include "workload/paper_examples.h"
#include "xquery/eval.h"
#include "xquery/parser.h"
#include "xquery/translate_appel.h"
#include "xquery/xtable.h"

namespace p3pdb::xquery {
namespace {

using workload::JaneSimplifiedFirstRule;
using workload::VolgaPolicy;

TEST(TranslateTest, JaneSimplifiedMatchesFigure18Shape) {
  AppelToXQueryTranslator translator;
  auto text = translator.TranslateRule(JaneSimplifiedFirstRule());
  ASSERT_TRUE(text.ok()) << text.status();
  const std::string& q = text.value();
  EXPECT_NE(q.find("if (document(\"applicable-policy\")"), std::string::npos);
  EXPECT_NE(q.find("POLICY["), std::string::npos);
  EXPECT_NE(q.find("STATEMENT["), std::string::npos);
  EXPECT_NE(q.find("PURPOSE["), std::string::npos);
  EXPECT_NE(q.find("admin"), std::string::npos);
  EXPECT_NE(q.find("contact[@required = \"always\"]"), std::string::npos);
  EXPECT_NE(q.find(" or "), std::string::npos);
  EXPECT_NE(q.find("then <block/>"), std::string::npos);
}

TEST(TranslateTest, CatchAllRule) {
  AppelToXQueryTranslator translator;
  appel::AppelRule rule;
  rule.behavior = "request";
  auto text = translator.TranslateRule(rule);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value(),
            "if (document(\"applicable-policy\")) then <request/> else ()");
}

TEST(TranslateTest, ExactConnectivesUnsupported) {
  appel::AppelRule rule = JaneSimplifiedFirstRule();
  rule.expressions[0].children[0].children[0].connective =
      appel::Connective::kOrExact;
  AppelToXQueryTranslator translator;
  auto text = translator.TranslateRule(rule);
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kUnsupported);
}

TEST(ParserTest, RoundTripIsFixedPoint) {
  AppelToXQueryTranslator translator;
  auto text = translator.TranslateRule(JaneSimplifiedFirstRule());
  ASSERT_TRUE(text.ok());
  auto query = ParseQuery(text.value());
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query.value().ToString(), text.value());
  EXPECT_EQ(query.value().behavior, "block");
  EXPECT_EQ(query.value().document_arg, "applicable-policy");
}

TEST(ParserTest, HandWrittenQuery) {
  auto query = ParseQuery(
      "if (document(\"applicable-policy\")[POLICY[STATEMENT[PURPOSE["
      "(admin) or (contact[@required = \"always\"])]]]]) then <block/>");
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_EQ(query.value().conditions.size(), 1u);
  EXPECT_EQ(query.value().conditions[0].kind, CondKind::kPathExists);
}

TEST(ParserTest, NotAndNesting) {
  auto query = ParseQuery(
      "if (document(\"d\")[POLICY[not(STATEMENT[PURPOSE[telemarketing]]) "
      "and ACCESS[none]]]) then <b/> else ()");
  ASSERT_TRUE(query.ok()) << query.status();
}

TEST(ParserTest, Rejections) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("if (POLICY) then <b/>").ok());
  EXPECT_FALSE(ParseQuery("if (document(\"d\")[") .ok());
  EXPECT_FALSE(
      ParseQuery("if (document(\"d\")) then <b/> trailing").ok());
}

class EvalTest : public ::testing::Test {
 protected:
  EvalTest() {
    p3p::Policy policy = VolgaPolicy();
    dom_ = p3p::PolicyToXml(policy);
    augmented_ = p3p::AugmentPolicyXml(*dom_);
  }

  bool Fires(const appel::AppelRule& rule, const xml::Element& evidence) {
    AppelToXQueryTranslator translator;
    auto text = translator.TranslateRule(rule);
    EXPECT_TRUE(text.ok()) << text.status();
    auto query = ParseQuery(text.value());
    EXPECT_TRUE(query.ok()) << query.status();
    auto fired = EvalQuery(query.value(), evidence);
    EXPECT_TRUE(fired.ok()) << fired.status();
    return fired.ok() && fired.value();
  }

  std::unique_ptr<xml::Element> dom_;
  std::unique_ptr<xml::Element> augmented_;
};

TEST_F(EvalTest, JaneSimplifiedOnVolga) {
  EXPECT_FALSE(Fires(JaneSimplifiedFirstRule(), *dom_));
}

TEST_F(EvalTest, FiresOnMandatoryContact) {
  p3p::Policy policy = VolgaPolicy();
  policy.statements[1].purposes[1].required = p3p::Required::kAlways;
  std::unique_ptr<xml::Element> dom = p3p::PolicyToXml(policy);
  EXPECT_TRUE(Fires(JaneSimplifiedFirstRule(), *dom));
}

TEST_F(EvalTest, FullJanePreferenceAgainstVolga) {
  // Rule by rule: neither block rule fires, the catch-all does.
  appel::AppelRuleset jane = workload::JanePreference();
  AppelToXQueryTranslator translator;
  auto compiled = translator.TranslateRuleset(jane);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  std::vector<bool> fired;
  for (const std::string& text : compiled.value().rule_queries) {
    auto query = ParseQuery(text);
    ASSERT_TRUE(query.ok()) << query.status();
    auto result = EvalQuery(query.value(), *augmented_);
    ASSERT_TRUE(result.ok());
    fired.push_back(result.value());
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true}));
}

TEST(EvalCondTest, AttributeDefaults) {
  xml::Element contact("contact");
  Cond cond;
  cond.kind = CondKind::kAttrEquals;
  cond.attr_name = "required";
  cond.attr_value = "always";
  EXPECT_TRUE(EvalCond(cond, contact));
  cond.attr_value = "opt-in";
  EXPECT_FALSE(EvalCond(cond, contact));
  contact.SetAttr("required", "opt-in");
  EXPECT_TRUE(EvalCond(cond, contact));
  // Unknown attributes have no default.
  Cond other;
  other.kind = CondKind::kAttrEquals;
  other.attr_name = "color";
  other.attr_value = "red";
  EXPECT_FALSE(EvalCond(other, contact));
}

// ---- XTABLE ----------------------------------------------------------------

class XTableTest : public ::testing::Test {
 protected:
  void Install(const p3p::Policy& policy) {
    ASSERT_TRUE(shredder::InstallSimpleSchema(&db_).ok());
    ASSERT_TRUE(
        db_.ExecuteScript(translator::ApplicablePolicyDdl()).ok());
    shredder::SimpleShredder shredder(&db_);
    p3p::Policy prepared = p3p::Canonicalized(policy);
    p3p::AugmentPolicy(&prepared);
    std::unique_ptr<xml::Element> dom = p3p::PolicyToXml(prepared);
    auto id = shredder.ShredPolicy(*dom);
    ASSERT_TRUE(id.ok());
    policy_id_ = id.value();
    // The one-row FROM anchor; the policy id itself is bound to each `?`.
    ASSERT_TRUE(
        db_.InsertRow("ApplicablePolicy", {sqldb::Value::Integer(0)}).ok());
  }

  /// Runs the translated rule with every `?` bound to the installed id.
  Result<sqldb::QueryResult> Run(const std::string& sql) {
    P3PDB_ASSIGN_OR_RETURN(sqldb::PreparedStatement stmt, db_.Prepare(sql));
    return stmt.Execute(std::vector<sqldb::Value>(
        stmt.param_count(), sqldb::Value::Integer(policy_id_)));
  }

  Result<std::string> Translate(const appel::AppelRule& rule) {
    AppelToXQueryTranslator to_xq;
    P3PDB_ASSIGN_OR_RETURN(std::string text, to_xq.TranslateRule(rule));
    P3PDB_ASSIGN_OR_RETURN(Query query, ParseQuery(text));
    XTableTranslator to_sql;
    return to_sql.TranslateQuery(query);
  }

  sqldb::Database db_;
  int64_t policy_id_ = -1;
};

TEST_F(XTableTest, GeneratesUnmergedSimpleSchemaSql) {
  auto sql = Translate(JaneSimplifiedFirstRule());
  ASSERT_TRUE(sql.ok()) << sql.status();
  // Unmerged: the per-vocabulary tables appear, as in Figure 13.
  EXPECT_NE(sql.value().find("FROM Admin"), std::string::npos);
  EXPECT_NE(sql.value().find("FROM Contact"), std::string::npos);
  EXPECT_EQ(sql.value().find("Purpose.purpose ="), std::string::npos);
  // The policy id is bound, not joined from the ApplicablePolicy row.
  EXPECT_NE(sql.value().find("Policy.policy_id = ?"), std::string::npos);
  EXPECT_EQ(sql.value().find("ApplicablePolicy.policy_id"), std::string::npos);
}

TEST_F(XTableTest, DoesNotFireOnVolga) {
  Install(VolgaPolicy());
  auto sql = Translate(JaneSimplifiedFirstRule());
  ASSERT_TRUE(sql.ok()) << sql.status();
  auto result = Run(sql.value());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result.value().rows.empty());
}

TEST_F(XTableTest, FiresOnMandatoryContact) {
  p3p::Policy policy = VolgaPolicy();
  policy.statements[1].purposes[1].required = p3p::Required::kAlways;
  Install(policy);
  auto sql = Translate(JaneSimplifiedFirstRule());
  ASSERT_TRUE(sql.ok());
  auto result = Run(sql.value());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0][0].AsText(), "block");
}

TEST_F(XTableTest, MediumPreferenceExceedsComplexityBudget) {
  // The Figure 21 artifact: with a bounded statement complexity budget the
  // XTABLE translation of the Medium preference cannot be prepared, while
  // High (shallower patterns) can.
  sqldb::Database limited(sqldb::Database::Options{
      .max_subquery_depth = 6, .enforce_foreign_keys = false});
  ASSERT_TRUE(shredder::InstallSimpleSchema(&limited).ok());
  ASSERT_TRUE(
      limited.ExecuteScript(translator::ApplicablePolicyDdl()).ok());

  auto prepare_level = [&](workload::PreferenceLevel level) -> Status {
    appel::AppelRuleset rs = workload::JrcPreference(level);
    AppelToXQueryTranslator to_xq;
    XTableTranslator to_sql;
    for (const appel::AppelRule& rule : rs.rules) {
      auto text = to_xq.TranslateRule(rule);
      if (!text.ok()) return text.status();
      auto query = ParseQuery(text.value());
      if (!query.ok()) return query.status();
      auto sql = to_sql.TranslateQuery(query.value());
      if (!sql.ok()) return sql.status();
      auto stmt = sqldb::ParseStatement(sql.value());
      if (!stmt.ok()) return stmt.status();
      sqldb::Binder binder(limited, 6);
      Status st = binder.BindSelect(
          static_cast<sqldb::SelectStmt*>(stmt.value().get()));
      if (!st.ok()) return st;
    }
    return Status::OK();
  };

  Status medium = prepare_level(workload::PreferenceLevel::kMedium);
  ASSERT_FALSE(medium.ok());
  EXPECT_EQ(medium.code(), StatusCode::kLimitExceeded);

  EXPECT_TRUE(prepare_level(workload::PreferenceLevel::kHigh).ok());
  EXPECT_TRUE(prepare_level(workload::PreferenceLevel::kVeryHigh).ok());
  EXPECT_TRUE(prepare_level(workload::PreferenceLevel::kLow).ok());
  EXPECT_TRUE(prepare_level(workload::PreferenceLevel::kVeryLow).ok());
}

}  // namespace
}  // namespace p3pdb::xquery
