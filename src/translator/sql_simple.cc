#include "translator/sql_simple.h"

#include "common/string_util.h"
#include "p3p/data_schema.h"
#include "shredder/element_spec.h"
#include "translator/applicable_policy.h"

namespace p3pdb::translator {

using appel::AppelExpr;
using appel::AppelRule;
using appel::AppelRuleset;
using appel::Connective;
using shredder::AttributeSpec;
using shredder::ElementSpec;

Result<std::string> CombineConditions(const std::vector<std::string>& terms,
                                      Connective connective) {
  if (terms.empty()) return std::string();
  auto join = [&](const char* op) {
    std::string out;
    for (size_t i = 0; i < terms.size(); ++i) {
      if (i > 0) out += op;
      out += terms[i];
    }
    return out;
  };
  switch (connective) {
    case Connective::kAnd:
      return join(" AND ");
    case Connective::kOr:
      return join(" OR ");
    case Connective::kNonAnd:
      return "NOT (" + join(" AND ") + ")";
    case Connective::kNonOr:
      return "NOT (" + join(" OR ") + ")";
    case Connective::kAndExact:
    case Connective::kOrExact:
      return Status::Unsupported(
          "exact connectives require the value-merged (optimized) schema");
  }
  return Status::Internal("unhandled connective");
}

namespace {

/// Resolves an expression attribute to its column and normalized value.
Result<std::string> AttributePredicate(const ElementSpec& spec,
                                       const std::string& table,
                                       const appel::AppelAttribute& attr) {
  for (const AttributeSpec& a : spec.attributes()) {
    if (a.name == attr.name) {
      std::string value = attr.value;
      if (a.name == "ref") {
        value = std::string(p3p::NormalizeDataRef(value));
      }
      return table + "." + a.column + " = " + SqlQuote(value);
    }
  }
  return Status::Unsupported("attribute '" + attr.name +
                             "' is not stored for element '" +
                             spec.element_name() + "'");
}

/// Figure 11's match(): SELECT * FROM <table> WHERE <parent join> AND
/// <attribute predicates> AND (<subexpressions>).
///
/// `join_condition` ties this table to the enclosing subquery (line 15 of
/// Figure 11); `own_pk` is this table's primary-key column list, which
/// children join against.
Result<std::string> Match(const AppelExpr& expr, const ElementSpec& spec,
                          const std::string& join_condition,
                          const std::vector<std::string>& own_pk) {
  std::string sql =
      "SELECT * FROM " + spec.table_name() + " WHERE " + join_condition;

  // Attribute predicates (lines 16-17).
  for (const appel::AppelAttribute& attr : expr.attributes) {
    P3PDB_ASSIGN_OR_RETURN(std::string pred,
                           AttributePredicate(spec, spec.table_name(), attr));
    sql += " AND " + pred;
  }

  // Recursive subexpressions (lines 18-22).
  if (!expr.children.empty()) {
    std::vector<std::string> child_terms;
    for (const AppelExpr& child : expr.children) {
      const ElementSpec* child_spec = spec.FindChild(child.name);
      if (child_spec == nullptr) {
        return Status::Unsupported("no table for element '" + child.name +
                                   "' under '" + spec.element_name() + "'");
      }
      std::vector<std::string> child_pk;
      child_pk.push_back(child_spec->id_column());
      child_pk.insert(child_pk.end(), own_pk.begin(), own_pk.end());
      std::vector<std::string> join_terms;
      for (const std::string& col : own_pk) {
        join_terms.push_back(child_spec->table_name() + "." + col + " = " +
                             spec.table_name() + "." + col);
      }
      P3PDB_ASSIGN_OR_RETURN(
          std::string sub,
          Match(child, *child_spec, Join(join_terms, " AND "), child_pk));
      child_terms.push_back("EXISTS (" + sub + ")");
    }
    P3PDB_ASSIGN_OR_RETURN(std::string combined,
                           CombineConditions(child_terms, expr.connective));
    sql += " AND (" + combined + ")";
  }
  return sql;
}

}  // namespace

size_t RuleParamCount(const AppelRule& rule, bool parameterized) {
  if (!parameterized || rule.IsCatchAll()) return 0;
  return rule.expressions.size();
}

Result<std::string> SimpleSqlTranslator::TranslateRule(
    const AppelRule& rule) const {
  // main() of Figure 11.
  std::string sql = "SELECT " + SqlQuote(rule.behavior) + " FROM " +
                    kApplicablePolicyTable;
  if (rule.IsCatchAll()) return sql;

  // Parameterized mode replaces the join against the materialized
  // ApplicablePolicy row with a bind parameter, making the query read-only;
  // ApplicablePolicy then serves as a static one-row FROM anchor.
  const std::string join_condition =
      parameterized_ ? std::string("Policy.policy_id = ?")
                     : std::string("Policy.policy_id = ") +
                           kApplicablePolicyTable + ".policy_id";

  std::vector<std::string> terms;
  for (const AppelExpr& expr : rule.expressions) {
    if (expr.name != "POLICY") {
      return Status::Unsupported(
          "top-level APPEL expressions must match POLICY, got '" + expr.name +
          "'");
    }
    P3PDB_ASSIGN_OR_RETURN(
        std::string sub,
        Match(expr, shredder::PolicyElementSpec(), join_condition,
              {"policy_id"}));
    terms.push_back("EXISTS (" + sub + ")");
  }
  P3PDB_ASSIGN_OR_RETURN(std::string combined,
                         CombineConditions(terms, rule.connective));
  sql += " WHERE " + combined;
  return sql;
}

Result<SqlRuleset> SimpleSqlTranslator::TranslateRuleset(
    const AppelRuleset& rs, obs::TraceContext* trace) const {
  SqlRuleset out;
  for (const AppelRule& rule : rs.rules) {
    obs::ScopedSpan span(trace, "translate-rule");
    span.SetAttr("behavior", rule.behavior);
    P3PDB_ASSIGN_OR_RETURN(std::string sql, TranslateRule(rule));
    size_t param_count = RuleParamCount(rule, parameterized_);
    span.AddCount("sql-chars", sql.size());
    span.AddCount("params", param_count);
    out.rule_queries.push_back(std::move(sql));
    out.behaviors.push_back(rule.behavior);
    out.param_counts.push_back(param_count);
  }
  return out;
}

}  // namespace p3pdb::translator
