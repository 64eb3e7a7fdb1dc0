// Tests for the APPEL model, parser, and native matching engine,
// including the six connective semantics of §2.2.

#include <gtest/gtest.h>

#include "appel/engine.h"
#include "appel/fingerprint.h"
#include "appel/model.h"
#include "common/random.h"
#include "p3p/policy_xml.h"
#include "server/policy_server.h"
#include "workload/paper_examples.h"
#include "workload/random_preferences.h"
#include "xml/parser.h"

namespace p3pdb::appel {
namespace {

TEST(ConnectiveTest, ParseAll) {
  for (const char* name :
       {"and", "or", "non-and", "non-or", "and-exact", "or-exact"}) {
    auto c = ParseConnective(name);
    ASSERT_TRUE(c.ok()) << name;
    EXPECT_EQ(ConnectiveToString(c.value()), name);
  }
  EXPECT_FALSE(ParseConnective("xor").ok());
  EXPECT_FALSE(ParseConnective("").ok());
}

TEST(ModelTest, JaneShape) {
  AppelRuleset jane = workload::JanePreference();
  ASSERT_EQ(jane.RuleCount(), 3u);
  EXPECT_EQ(jane.rules[0].behavior, "block");
  EXPECT_EQ(jane.rules[1].behavior, "block");
  EXPECT_EQ(jane.rules[2].behavior, "request");
  EXPECT_TRUE(jane.rules[2].IsCatchAll());
  EXPECT_TRUE(jane.Validate().ok());
  // Rule 1's PURPOSE expression carries 12 value children (Figure 2).
  const AppelExpr& policy = jane.rules[0].expressions[0];
  const AppelExpr& purpose = policy.children[0].children[0];
  EXPECT_EQ(purpose.name, "PURPOSE");
  EXPECT_EQ(purpose.connective, Connective::kOr);
  EXPECT_EQ(purpose.children.size(), 12u);
}

TEST(ModelTest, ValidateRejectsMidCatchAll) {
  AppelRuleset rs = workload::JanePreference();
  std::swap(rs.rules[1], rs.rules[2]);  // catch-all before the last rule
  EXPECT_FALSE(rs.Validate().ok());
}

TEST(ModelTest, ValidateRejectsEmptyRuleset) {
  AppelRuleset rs;
  EXPECT_FALSE(rs.Validate().ok());
}

// APPEL 1.0 defines exactly three behaviors. Any other value fails
// Validate, and so fails CompilePreference on every engine; each of the
// three passes both.
TEST(ModelTest, OnlyTheThreeSpecBehaviorsValidate) {
  std::vector<std::unique_ptr<server::PolicyServer>> servers;
  for (server::EngineKind engine :
       {server::EngineKind::kNativeAppel, server::EngineKind::kSql,
        server::EngineKind::kSqlSimple, server::EngineKind::kXQueryNative,
        server::EngineKind::kXQueryXTable}) {
    server::PolicyServer::Options options;
    options.engine = engine;
    auto server = server::PolicyServer::Create(options);
    ASSERT_TRUE(server.ok()) << server.status();
    servers.push_back(std::move(server.value()));
  }
  auto with_behavior = [](std::string_view behavior) {
    AppelRuleset rs = workload::JanePreference();
    rs.rules[1].behavior = std::string(behavior);
    return rs;
  };
  for (const char* behavior : {"prompt", "b"}) {
    SCOPED_TRACE(behavior);
    const AppelRuleset rs = with_behavior(behavior);
    EXPECT_EQ(rs.Validate().code(), StatusCode::kInvalidArgument);
    for (const auto& server : servers) {
      SCOPED_TRACE(server::EngineKindName(server->options().engine));
      auto compiled = server->CompilePreference(rs);
      ASSERT_FALSE(compiled.ok());
      EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
    }
  }
  for (std::string_view behavior : kBehaviors) {
    SCOPED_TRACE(behavior);
    const AppelRuleset rs = with_behavior(behavior);
    EXPECT_TRUE(rs.Validate().ok()) << rs.Validate();
    for (const auto& server : servers) {
      SCOPED_TRACE(server::EngineKindName(server->options().engine));
      auto compiled = server->CompilePreference(rs);
      EXPECT_TRUE(compiled.ok()) << compiled.status();
    }
  }
}

TEST(ModelTest, XmlRoundTrip) {
  AppelRuleset jane = workload::JanePreference();
  std::string text = RulesetToText(jane);
  auto parsed = RulesetFromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const AppelRuleset& rs = parsed.value();
  ASSERT_EQ(rs.RuleCount(), 3u);
  EXPECT_EQ(rs.ExpressionCount(), jane.ExpressionCount());
  EXPECT_EQ(RulesetToText(rs), text);  // fixed point
}

TEST(ModelTest, ParsesPaperFigureTwo) {
  const char* text = R"(<appel:RULESET
      xmlns:appel="http://www.w3.org/2002/04/APPELv1">
    <appel:RULE behavior="block">
      <POLICY>
        <STATEMENT>
          <PURPOSE appel:connective="or">
            <admin/><develop/><tailoring/>
            <pseudo-analysis/><pseudo-decision/>
            <individual-analysis/>
            <individual-decision required="always"/>
            <contact required="always"/>
            <historical/><telemarketing/>
            <other-purpose/><extension/>
          </PURPOSE>
        </STATEMENT>
      </POLICY>
    </appel:RULE>
    <appel:RULE behavior="block">
      <POLICY>
        <STATEMENT>
          <RECIPIENT appel:connective="or">
            <delivery/><other-recipient/>
            <unrelated/><public/><extension/>
          </RECIPIENT>
        </STATEMENT>
      </POLICY>
    </appel:RULE>
    <appel:RULE behavior="request"/>
  </appel:RULESET>)";
  auto parsed = RulesetFromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const AppelRuleset& rs = parsed.value();
  ASSERT_EQ(rs.RuleCount(), 3u);
  EXPECT_TRUE(rs.rules[2].IsCatchAll());
  const AppelExpr& purpose =
      rs.rules[0].expressions[0].children[0].children[0];
  EXPECT_EQ(purpose.connective, Connective::kOr);
  ASSERT_EQ(purpose.children.size(), 12u);
  EXPECT_EQ(purpose.children[6].name, "individual-decision");
  ASSERT_EQ(purpose.children[6].attributes.size(), 1u);
  EXPECT_EQ(purpose.children[6].attributes[0].value, "always");
}

TEST(ModelTest, RuleWithoutBehaviorFails) {
  EXPECT_FALSE(
      RulesetFromText("<appel:RULESET><appel:RULE/></appel:RULESET>").ok());
}

TEST(ModelTest, UnknownConnectiveFails) {
  EXPECT_FALSE(RulesetFromText("<appel:RULESET><appel:RULE behavior=\"b\">"
                               "<POLICY appel:connective=\"xor\"/>"
                               "</appel:RULE></appel:RULESET>")
                   .ok());
}

// ---- Connective semantics on hand-built evidence --------------------------

class ConnectiveSemanticsTest : public ::testing::Test {
 protected:
  /// Evidence: <PURPOSE><current/><contact required="opt-in"/></PURPOSE>
  ConnectiveSemanticsTest() : evidence_("PURPOSE") {
    evidence_.AddChild("current");
    evidence_.AddChild("contact")->SetAttr("required", "opt-in");
  }

  static AppelExpr Value(std::string name) {
    AppelExpr e;
    e.name = std::move(name);
    return e;
  }

  AppelExpr Group(Connective c, std::vector<std::string> names) {
    AppelExpr e;
    e.name = "PURPOSE";
    e.connective = c;
    for (std::string& n : names) e.children.push_back(Value(std::move(n)));
    return e;
  }

  bool Matches(const AppelExpr& expr) {
    return NativeEngine::ExprMatches(expr, evidence_);
  }

  xml::Element evidence_;
};

TEST_F(ConnectiveSemanticsTest, Or) {
  EXPECT_TRUE(Matches(Group(Connective::kOr, {"current", "telemarketing"})));
  EXPECT_FALSE(Matches(Group(Connective::kOr, {"admin", "telemarketing"})));
}

TEST_F(ConnectiveSemanticsTest, And) {
  EXPECT_TRUE(Matches(Group(Connective::kAnd, {"current", "contact"})));
  EXPECT_FALSE(Matches(Group(Connective::kAnd, {"current", "admin"})));
}

TEST_F(ConnectiveSemanticsTest, NonOr) {
  // Matches only when NONE of the listed values are present.
  EXPECT_TRUE(Matches(Group(Connective::kNonOr, {"admin", "develop"})));
  EXPECT_FALSE(Matches(Group(Connective::kNonOr, {"admin", "current"})));
}

TEST_F(ConnectiveSemanticsTest, NonAnd) {
  // Matches unless ALL listed values are present.
  EXPECT_TRUE(Matches(Group(Connective::kNonAnd, {"current", "admin"})));
  EXPECT_FALSE(Matches(Group(Connective::kNonAnd, {"current", "contact"})));
}

TEST_F(ConnectiveSemanticsTest, AndExact) {
  // (a) all listed found and (b) nothing unlisted present.
  EXPECT_TRUE(Matches(Group(Connective::kAndExact, {"current", "contact"})));
  EXPECT_FALSE(Matches(Group(Connective::kAndExact, {"current"})));
  EXPECT_FALSE(Matches(
      Group(Connective::kAndExact, {"current", "contact", "admin"})));
}

TEST_F(ConnectiveSemanticsTest, OrExact) {
  // (a) at least one listed found and (b) nothing unlisted present.
  EXPECT_TRUE(Matches(
      Group(Connective::kOrExact, {"current", "contact", "admin"})));
  EXPECT_FALSE(Matches(Group(Connective::kOrExact, {"current"})));
  EXPECT_FALSE(Matches(Group(Connective::kOrExact, {"admin", "develop"})));
}

TEST_F(ConnectiveSemanticsTest, RequiredAttributeDefaults) {
  // <current/> carries no required attribute: it matches required="always"
  // (the default) but not required="opt-in".
  AppelExpr always;
  always.name = "PURPOSE";
  AppelExpr v = Value("current");
  v.attributes.push_back(AppelAttribute{"required", "always"});
  always.children.push_back(std::move(v));
  EXPECT_TRUE(Matches(always));

  AppelExpr optin;
  optin.name = "PURPOSE";
  AppelExpr v2 = Value("current");
  v2.attributes.push_back(AppelAttribute{"required", "opt-in"});
  optin.children.push_back(std::move(v2));
  EXPECT_FALSE(Matches(optin));

  // And the evidence's explicit opt-in on contact is honored.
  AppelExpr contact;
  contact.name = "PURPOSE";
  AppelExpr v3 = Value("contact");
  v3.attributes.push_back(AppelAttribute{"required", "opt-in"});
  contact.children.push_back(std::move(v3));
  EXPECT_TRUE(Matches(contact));
}

// ---- Engine-level tests ----------------------------------------------------

/// Applies one edit to field number `target` of a ruleset, numbering the
/// fields in RulesetFingerprint's order: strings get a character appended,
/// connectives move to the next value, and lists grow by a copy of their
/// last element (a repeated attribute among them) or a default one.
class FieldMutator {
 public:
  explicit FieldMutator(size_t target) : target_(target) {}

  void Ruleset(AppelRuleset* rs) {
    List(&rs->rules);
    for (AppelRule& rule : rs->rules) Rule(&rule);
  }
  size_t fields() const { return next_; }

 private:
  bool Hit() { return next_++ == target_; }
  void Text(std::string* s) {
    if (Hit()) s->push_back('z');
  }
  void Conn(Connective* c) {
    if (Hit()) *c = static_cast<Connective>((static_cast<int>(*c) + 1) % 6);
  }
  template <typename T>
  void List(std::vector<T>* v) {
    if (!Hit()) return;
    if (v->empty()) {
      v->emplace_back();
    } else {
      v->push_back(v->back());
    }
  }
  void Rule(AppelRule* rule) {
    Text(&rule->behavior);
    Text(&rule->description);
    Conn(&rule->connective);
    List(&rule->expressions);
    for (AppelExpr& expr : rule->expressions) Expr(&expr);
  }
  void Expr(AppelExpr* expr) {
    Text(&expr->name);
    Conn(&expr->connective);
    List(&expr->attributes);
    for (AppelAttribute& attr : expr->attributes) {
      Text(&attr.name);
      Text(&attr.value);
    }
    List(&expr->children);
    for (AppelExpr& child : expr->children) Expr(&child);
  }

  size_t target_;
  size_t next_ = 0;
};

TEST(FingerprintTest, EveryFieldEditChangesTheFingerprint) {
  workload::RandomPreferenceOptions options;
  options.allow_exact_connectives = true;
  size_t edits = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Random rng(seed);
    const AppelRuleset original = workload::RandomPreference(&rng, options);
    const uint64_t fp = RulesetFingerprint(original);
    ASSERT_NE(fp, 0u);
    const AppelRuleset copy = original;
    EXPECT_EQ(RulesetFingerprint(copy), fp) << "seed " << seed;

    AppelRuleset counted = original;
    FieldMutator counter(SIZE_MAX);
    counter.Ruleset(&counted);
    for (size_t field = 0; field < counter.fields(); ++field) {
      AppelRuleset edited = original;
      FieldMutator(field).Ruleset(&edited);
      EXPECT_NE(RulesetFingerprint(edited), fp)
          << "seed " << seed << ", field " << field << "\n"
          << RulesetToText(edited);
      ++edits;
    }
  }
  EXPECT_GT(edits, 2000u);
}

TEST(FingerprintTest, FieldBoundariesAndRepeatsAreHashed) {
  const auto policy_with = [](std::vector<AppelAttribute> attrs) {
    AppelExpr policy;
    policy.name = "POLICY";
    policy.attributes = std::move(attrs);
    AppelRule rule;
    rule.behavior = "block";
    rule.expressions.push_back(std::move(policy));
    AppelRuleset rs;
    rs.rules.push_back(std::move(rule));
    return rs;
  };
  // A repeated attribute (which an XML serialization collapses to its last
  // value) and a shifted name/value boundary each hash differently.
  const uint64_t once = RulesetFingerprint(policy_with({{"name", "p"}}));
  EXPECT_NE(RulesetFingerprint(policy_with({{"name", "x"}, {"name", "p"}})),
            once);
  EXPECT_NE(RulesetFingerprint(policy_with({{"name", "p"}, {"name", "p"}})),
            once);
  EXPECT_NE(RulesetFingerprint(policy_with({{"ab", "c"}})),
            RulesetFingerprint(policy_with({{"a", "bc"}})));
  // A child moved up to a sibling position changes the shape.
  AppelRuleset nested = policy_with({});
  AppelExpr child;
  child.name = "STATEMENT";
  nested.rules[0].expressions[0].children.push_back(child);
  AppelRuleset flat = policy_with({});
  flat.rules[0].expressions.push_back(child);
  EXPECT_NE(RulesetFingerprint(nested), RulesetFingerprint(flat));
}

TEST(NativeEngineTest, JaneVsVolga) {
  NativeEngine engine;
  std::unique_ptr<xml::Element> dom =
      p3p::PolicyToXml(workload::VolgaPolicy());
  auto outcome = engine.Evaluate(workload::JanePreference(), *dom);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome.value().behavior, "request");
  EXPECT_EQ(outcome.value().fired_rule_index, 2);
}

TEST(NativeEngineTest, DefaultBlockWhenNoRuleFires) {
  AppelRuleset rs;
  AppelRule rule;
  rule.behavior = "request";
  AppelExpr policy;
  policy.name = "POLICY";
  AppelExpr statement;
  statement.name = "STATEMENT";
  AppelExpr purpose;
  purpose.name = "PURPOSE";
  purpose.children.push_back([] {
    AppelExpr e;
    e.name = "telemarketing";
    return e;
  }());
  statement.children.push_back(std::move(purpose));
  policy.children.push_back(std::move(statement));
  rule.expressions.push_back(std::move(policy));
  rs.rules.push_back(std::move(rule));

  NativeEngine engine;
  std::unique_ptr<xml::Element> dom =
      p3p::PolicyToXml(workload::VolgaPolicy());
  auto outcome = engine.Evaluate(rs, *dom);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome.value().fired());
  EXPECT_EQ(outcome.value().behavior, kDefaultBehavior);
}

TEST(NativeEngineTest, CategoryMatchingNeedsAugmentation) {
  // A rule blocking physical data. Volga collects user.name (physical per
  // the base schema) but writes no CATEGORIES for it; only an augmenting
  // engine sees the implied category.
  AppelRuleset rs;
  AppelRule rule;
  rule.behavior = "block";
  AppelExpr categories;
  categories.name = "CATEGORIES";
  categories.connective = Connective::kOr;
  AppelExpr physical;
  physical.name = "physical";
  categories.children.push_back(std::move(physical));
  AppelExpr data;
  data.name = "DATA";
  data.children.push_back(std::move(categories));
  AppelExpr group;
  group.name = "DATA-GROUP";
  group.children.push_back(std::move(data));
  AppelExpr statement;
  statement.name = "STATEMENT";
  statement.children.push_back(std::move(group));
  AppelExpr policy;
  policy.name = "POLICY";
  policy.children.push_back(std::move(statement));
  rule.expressions.push_back(std::move(policy));
  rs.rules.push_back(std::move(rule));

  std::unique_ptr<xml::Element> dom =
      p3p::PolicyToXml(workload::VolgaPolicy());

  NativeEngine augmenting(NativeEngine::Options{.augment_per_match = true});
  auto with = augmenting.Evaluate(rs, *dom);
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(with.value().behavior, "block");

  NativeEngine raw(NativeEngine::Options{.augment_per_match = false});
  auto without = raw.Evaluate(rs, *dom);
  ASSERT_TRUE(without.ok());
  EXPECT_FALSE(without.value().fired());
}

TEST(NativeEngineTest, RejectsNonPolicyEvidence) {
  NativeEngine engine;
  xml::Element not_policy("RULESET");
  auto outcome = engine.Evaluate(workload::JanePreference(), not_policy);
  EXPECT_FALSE(outcome.ok());
}

TEST(NativeEngineTest, RuleOrderDecides) {
  // Two rules that both fire: the first wins.
  AppelRuleset rs;
  AppelRule first;
  first.behavior = "limited";
  rs.rules.push_back(std::move(first));
  AppelRule second;
  second.behavior = "request";
  rs.rules.push_back(std::move(second));

  NativeEngine engine;
  std::unique_ptr<xml::Element> dom =
      p3p::PolicyToXml(workload::VolgaPolicy());
  auto outcome = engine.Evaluate(rs, *dom);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().behavior, "limited");
  EXPECT_EQ(outcome.value().fired_rule_index, 0);
}

}  // namespace
}  // namespace p3pdb::appel
