#include "appel/model.h"

#include "xml/parser.h"
#include "xml/writer.h"

namespace p3pdb::appel {

Result<Connective> ParseConnective(std::string_view text) {
  if (text == "and") return Connective::kAnd;
  if (text == "or") return Connective::kOr;
  if (text == "non-and") return Connective::kNonAnd;
  if (text == "non-or") return Connective::kNonOr;
  if (text == "and-exact") return Connective::kAndExact;
  if (text == "or-exact") return Connective::kOrExact;
  return Status::ParseError("unknown connective '" + std::string(text) + "'");
}

std::string_view ConnectiveToString(Connective c) {
  switch (c) {
    case Connective::kAnd:
      return "and";
    case Connective::kOr:
      return "or";
    case Connective::kNonAnd:
      return "non-and";
    case Connective::kNonOr:
      return "non-or";
    case Connective::kAndExact:
      return "and-exact";
    case Connective::kOrExact:
      return "or-exact";
  }
  return "and";
}

size_t AppelExpr::SubtreeSize() const {
  size_t n = 1;
  for (const AppelExpr& child : children) n += child.SubtreeSize();
  return n;
}

size_t AppelRuleset::ExpressionCount() const {
  size_t n = 0;
  for (const AppelRule& rule : rules) {
    for (const AppelExpr& expr : rule.expressions) n += expr.SubtreeSize();
  }
  return n;
}

Status AppelRuleset::Validate() const {
  if (rules.empty()) {
    return Status::InvalidArgument("ruleset has no rules");
  }
  for (size_t i = 0; i < rules.size(); ++i) {
    if (!BehaviorIndex(rules[i].behavior).has_value()) {
      return Status::InvalidArgument(
          "rule " + std::to_string(i + 1) + " has behavior '" +
          rules[i].behavior + "'; APPEL defines block, limited and request");
    }
    if (rules[i].IsCatchAll() && i + 1 != rules.size()) {
      return Status::InvalidArgument(
          "catch-all rule " + std::to_string(i + 1) +
          " makes later rules unreachable");
    }
  }
  return Status::OK();
}

namespace {

/// True for attributes that steer APPEL itself rather than match evidence.
bool IsAppelControlAttribute(std::string_view name) {
  return name.rfind("appel:", 0) == 0 || name == "connective" ||
         name.rfind("xmlns", 0) == 0;
}

Result<AppelExpr> ExprFromXml(const xml::Element& elem) {
  AppelExpr expr;
  expr.name = std::string(elem.LocalName());
  std::string_view conn = elem.AttrOr("appel:connective", "");
  if (conn.empty()) conn = elem.AttrOr("connective", "");
  if (!conn.empty()) {
    P3PDB_ASSIGN_OR_RETURN(expr.connective, ParseConnective(conn));
  }
  for (const xml::Attribute& attr : elem.attributes()) {
    if (IsAppelControlAttribute(attr.name)) continue;
    expr.attributes.push_back(AppelAttribute{attr.name, attr.value});
  }
  for (const auto& child : elem.children()) {
    P3PDB_ASSIGN_OR_RETURN(AppelExpr sub, ExprFromXml(*child));
    expr.children.push_back(std::move(sub));
  }
  return expr;
}

Result<AppelRule> RuleFromXml(const xml::Element& elem) {
  AppelRule rule;
  std::string_view behavior = elem.AttrOr("behavior", "");
  if (behavior.empty()) behavior = elem.AttrOr("appel:behavior", "");
  if (behavior.empty()) {
    return Status::ParseError("RULE without behavior attribute");
  }
  rule.behavior = std::string(behavior);
  rule.description = std::string(elem.AttrOr("description", ""));
  std::string_view conn = elem.AttrOr("appel:connective", "");
  if (conn.empty()) conn = elem.AttrOr("connective", "");
  if (!conn.empty()) {
    P3PDB_ASSIGN_OR_RETURN(rule.connective, ParseConnective(conn));
  }
  for (const auto& child : elem.children()) {
    if (child->LocalName() == "OTHERWISE") continue;  // catch-all marker
    P3PDB_ASSIGN_OR_RETURN(AppelExpr expr, ExprFromXml(*child));
    rule.expressions.push_back(std::move(expr));
  }
  return rule;
}

}  // namespace

Result<AppelRuleset> RulesetFromXml(const xml::Element& root) {
  if (root.LocalName() != "RULESET") {
    return Status::ParseError("expected appel:RULESET, got '" + root.name() +
                              "'");
  }
  AppelRuleset ruleset;
  for (const auto& child : root.children()) {
    std::string_view name = child->LocalName();
    if (name == "RULE") {
      P3PDB_ASSIGN_OR_RETURN(AppelRule rule, RuleFromXml(*child));
      ruleset.rules.push_back(std::move(rule));
    } else if (name == "OTHERWISE") {
      // A bare OTHERWISE at ruleset level acts as "request everything else".
      AppelRule rule;
      rule.behavior = "request";
      ruleset.rules.push_back(std::move(rule));
    } else {
      return Status::ParseError("unexpected element '" + std::string(name) +
                                "' in RULESET");
    }
  }
  return ruleset;
}

Result<AppelRuleset> RulesetFromText(std::string_view text) {
  P3PDB_ASSIGN_OR_RETURN(xml::Document doc, xml::Parse(text));
  return RulesetFromXml(*doc.root);
}

namespace {

void ExprToXml(const AppelExpr& expr, xml::Element* parent) {
  xml::Element* elem = parent->AddChild(expr.name);
  if (expr.connective != Connective::kAnd) {
    elem->SetAttr("appel:connective", ConnectiveToString(expr.connective));
  }
  for (const AppelAttribute& attr : expr.attributes) {
    elem->SetAttr(attr.name, attr.value);
  }
  for (const AppelExpr& child : expr.children) {
    ExprToXml(child, elem);
  }
}

}  // namespace

std::unique_ptr<xml::Element> RulesetToXml(const AppelRuleset& ruleset) {
  auto root = std::make_unique<xml::Element>("appel:RULESET");
  root->SetAttr("xmlns:appel",
                "http://www.w3.org/2002/04/APPELv1");
  for (const AppelRule& rule : ruleset.rules) {
    xml::Element* r = root->AddChild("appel:RULE");
    r->SetAttr("behavior", rule.behavior);
    if (!rule.description.empty()) {
      r->SetAttr("description", rule.description);
    }
    if (rule.connective != Connective::kAnd) {
      r->SetAttr("appel:connective", ConnectiveToString(rule.connective));
    }
    for (const AppelExpr& expr : rule.expressions) {
      ExprToXml(expr, r);
    }
  }
  return root;
}

std::string RulesetToText(const AppelRuleset& ruleset) {
  return xml::Write(*RulesetToXml(ruleset));
}

}  // namespace p3pdb::appel
