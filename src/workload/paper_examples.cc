#include "workload/paper_examples.h"

#include "appel/model.h"
#include "p3p/policy_xml.h"

namespace p3pdb::workload {

using appel::AppelExpr;
using appel::AppelRule;
using appel::AppelRuleset;
using appel::Connective;
using p3p::DataGroup;
using p3p::DataItem;
using p3p::Policy;
using p3p::PolicyStatement;
using p3p::PurposeItem;
using p3p::RecipientItem;
using p3p::Required;

Policy VolgaPolicy() {
  Policy policy;
  policy.name = "volga";
  policy.discuri = "http://volga.example.com/privacy.html";
  policy.opturi = "http://volga.example.com/preferences";
  policy.access = "contact-and-other";
  policy.entity.data.push_back(DataItem{"business.name", false, {}});
  policy.entity.data.push_back(
      DataItem{"business.contact-info.online.email", false, {}});

  // Statement 1: name, postal address and purchase data, used to complete
  // the current transaction, kept no longer than needed.
  PolicyStatement s1;
  s1.consequence =
      "We use this information to fulfill your book order and ship it to "
      "you.";
  s1.purposes.push_back(PurposeItem{"current", Required::kAlways});
  s1.recipients.push_back(RecipientItem{"ours", Required::kAlways});
  s1.recipients.push_back(RecipientItem{"same", Required::kAlways});
  s1.retention = "stated-purpose";
  DataGroup g1;
  g1.items.push_back(DataItem{"user.name", false, {}});
  g1.items.push_back(DataItem{"user.home-info.postal", false, {}});
  g1.items.push_back(DataItem{"dynamic.miscdata", false, {"purchase"}});
  s1.data_groups.push_back(std::move(g1));
  policy.statements.push_back(std::move(s1));

  // Statement 2: purchase history for opt-in personalized recommendations
  // emailed to the customer.
  PolicyStatement s2;
  s2.consequence =
      "With your consent we analyze your purchase history to email you "
      "personalized book recommendations.";
  s2.purposes.push_back(
      PurposeItem{"individual-decision", Required::kOptIn});
  s2.purposes.push_back(PurposeItem{"contact", Required::kOptIn});
  s2.recipients.push_back(RecipientItem{"ours", Required::kAlways});
  s2.retention = "business-practices";
  DataGroup g2;
  g2.items.push_back(DataItem{"user.home-info.online.email", false, {}});
  g2.items.push_back(DataItem{"dynamic.miscdata", false, {"purchase"}});
  s2.data_groups.push_back(std::move(g2));
  policy.statements.push_back(std::move(s2));

  return policy;
}

std::string VolgaPolicyXml() { return p3p::PolicyToText(VolgaPolicy()); }

namespace {

AppelExpr ValueExpr(std::string name) {
  AppelExpr expr;
  expr.name = std::move(name);
  return expr;
}

AppelExpr ValueExprRequired(std::string name, std::string required) {
  AppelExpr expr;
  expr.name = std::move(name);
  expr.attributes.push_back(appel::AppelAttribute{"required",
                                                  std::move(required)});
  return expr;
}

/// Wraps `inner` in POLICY > STATEMENT > inner.
AppelExpr PolicyStatementWrap(AppelExpr inner) {
  AppelExpr statement;
  statement.name = "STATEMENT";
  statement.children.push_back(std::move(inner));
  AppelExpr policy;
  policy.name = "POLICY";
  policy.children.push_back(std::move(statement));
  return policy;
}

}  // namespace

AppelRuleset JanePreference() {
  AppelRuleset ruleset;

  // Rule 1: block every purpose other than current; individual-decision and
  // contact are tolerated only when the site offers opt-in/opt-out (i.e.
  // blocked when required="always").
  {
    AppelExpr purpose;
    purpose.name = "PURPOSE";
    purpose.connective = Connective::kOr;
    for (const char* v : {"admin", "develop", "tailoring", "pseudo-analysis",
                          "pseudo-decision", "individual-analysis"}) {
      purpose.children.push_back(ValueExpr(v));
    }
    purpose.children.push_back(
        ValueExprRequired("individual-decision", "always"));
    purpose.children.push_back(ValueExprRequired("contact", "always"));
    for (const char* v :
         {"historical", "telemarketing", "other-purpose", "extension"}) {
      purpose.children.push_back(ValueExpr(v));
    }
    AppelRule rule;
    rule.behavior = "block";
    rule.expressions.push_back(PolicyStatementWrap(std::move(purpose)));
    ruleset.rules.push_back(std::move(rule));
  }

  // Rule 2: block recipients other than ours/same.
  {
    AppelExpr recipient;
    recipient.name = "RECIPIENT";
    recipient.connective = Connective::kOr;
    for (const char* v : {"delivery", "other-recipient", "unrelated",
                          "public", "extension"}) {
      recipient.children.push_back(ValueExpr(v));
    }
    AppelRule rule;
    rule.behavior = "block";
    rule.expressions.push_back(PolicyStatementWrap(std::move(recipient)));
    ruleset.rules.push_back(std::move(rule));
  }

  // Final catch-all: request everything else.
  AppelRule otherwise;
  otherwise.behavior = "request";
  ruleset.rules.push_back(std::move(otherwise));
  return ruleset;
}

std::string JanePreferenceXml() {
  return appel::RulesetToText(JanePreference());
}

AppelRule JaneSimplifiedFirstRule() {
  AppelExpr purpose;
  purpose.name = "PURPOSE";
  purpose.connective = Connective::kOr;
  purpose.children.push_back(ValueExpr("admin"));
  purpose.children.push_back(ValueExprRequired("contact", "always"));
  AppelRule rule;
  rule.behavior = "block";
  rule.expressions.push_back(PolicyStatementWrap(std::move(purpose)));
  return rule;
}

p3p::ReferenceFile VolgaReferenceFile() {
  p3p::ReferenceFile rf;
  rf.expiry_max_age = 86400;
  p3p::PolicyRef ref;
  ref.about = "/P3P/policies.xml#volga";
  ref.includes.push_back("/*");
  ref.excludes.push_back("/about/*");
  ref.cookie_includes.push_back("/*");
  rf.AddRef(std::move(ref));
  return rf;
}

}  // namespace p3pdb::workload
