#include "translator/sql_optimized.h"

#include "common/string_util.h"
#include "p3p/data_schema.h"
#include "translator/applicable_policy.h"

namespace p3pdb::translator {

using appel::AppelAttribute;
using appel::AppelExpr;
using appel::AppelRule;
using appel::AppelRuleset;
using appel::Connective;

namespace {

/// Per-value predicate for a vocabulary child expression, e.g.
/// <contact required="always"/> over table alias T with value column `col`:
/// (T.col = 'contact' AND T.required = 'always').
Result<std::string> ValuePredicate(const AppelExpr& child,
                                   const std::string& table,
                                   const std::string& value_column,
                                   bool allow_required) {
  if (!child.children.empty()) {
    return Status::Unsupported("vocabulary element '" + child.name +
                               "' cannot have subexpressions");
  }
  std::string pred = table + "." + value_column + " = " + SqlQuote(child.name);
  for (const AppelAttribute& attr : child.attributes) {
    if (allow_required && attr.name == "required") {
      pred += " AND " + table + ".required = " + SqlQuote(attr.value);
    } else {
      return Status::Unsupported("attribute '" + attr.name +
                                 "' not stored for '" + child.name + "'");
    }
  }
  return "(" + pred + ")";
}

std::string JoinWith(const std::vector<std::string>& terms, const char* op) {
  std::string out;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += op;
    out += terms[i];
  }
  return out;
}

/// Builds the condition for a value-folded table (Purpose, Recipient,
/// Categories): the Figure 15 merge. `fk` ties the table to the enclosing
/// scope.
Result<std::string> ValueTableCondition(const AppelExpr& expr,
                                        const std::string& table,
                                        const std::string& value_column,
                                        const std::string& fk,
                                        bool allow_required) {
  auto exists_with = [&](const std::string& pred) {
    return "EXISTS (SELECT * FROM " + table + " WHERE " + fk +
           (pred.empty() ? "" : " AND " + pred) + ")";
  };

  if (expr.children.empty()) {
    // Bare <PURPOSE/>: the element exists, i.e. some value row exists.
    return exists_with("");
  }

  std::vector<std::string> preds;
  for (const AppelExpr& child : expr.children) {
    P3PDB_ASSIGN_OR_RETURN(
        std::string pred,
        ValuePredicate(child, table, value_column, allow_required));
    preds.push_back(std::move(pred));
  }
  const std::string any_pred = "(" + JoinWith(preds, " OR ") + ")";

  auto and_form = [&] {
    std::vector<std::string> terms;
    for (const std::string& p : preds) terms.push_back(exists_with(p));
    return JoinWith(terms, " AND ");
  };
  auto closure = [&] {
    // "the policy contains only elements listed in the rule"
    return "NOT EXISTS (SELECT * FROM " + table + " WHERE " + fk +
           " AND NOT " + any_pred + ")";
  };

  switch (expr.connective) {
    case Connective::kOr:
      return exists_with(any_pred);
    case Connective::kAnd:
      return "(" + and_form() + ")";
    case Connective::kNonOr:
      return "NOT " + exists_with(any_pred);
    case Connective::kNonAnd:
      return "NOT (" + and_form() + ")";
    case Connective::kAndExact:
      return "(" + and_form() + " AND " + closure() + ")";
    case Connective::kOrExact:
      return "(" + exists_with(any_pred) + " AND " + closure() + ")";
  }
  return Status::Internal("unhandled connective");
}

/// Single-valued column condition (RETENTION over Statement.retention, or
/// ACCESS over Policy.access): the evidence element holds exactly one value
/// element, so existence is column IS NOT NULL and the exact forms coincide
/// with the plain ones (a single value is "only elements listed" iff it is
/// listed).
Result<std::string> SingleValueCondition(const AppelExpr& expr,
                                         const std::string& column) {
  if (expr.children.empty()) {
    return column + " IS NOT NULL";
  }
  std::vector<std::string> preds;
  for (const AppelExpr& child : expr.children) {
    if (!child.children.empty() || !child.attributes.empty()) {
      return Status::Unsupported("value element '" + child.name +
                                 "' must be empty under single-valued '" +
                                 expr.name + "'");
    }
    preds.push_back(column + " = " + SqlQuote(child.name));
  }
  switch (expr.connective) {
    case Connective::kOr:
    case Connective::kOrExact:
      return "(" + JoinWith(preds, " OR ") + ")";
    case Connective::kAnd:
    case Connective::kAndExact:
      // A single-valued element can satisfy a conjunction only when it has
      // one conjunct.
      if (preds.size() == 1) return preds[0];
      return std::string("(1 = 0)");
    case Connective::kNonOr:
      return "(" + column + " IS NOT NULL AND NOT (" +
             JoinWith(preds, " OR ") + "))";
    case Connective::kNonAnd:
      if (preds.size() == 1) {
        return "(" + column + " IS NOT NULL AND NOT " + preds[0] + ")";
      }
      return column + " IS NOT NULL";  // can't hold all of >=2 values
  }
  return Status::Internal("unhandled connective");
}

constexpr const char* kStatementFk =
    "Statement.policy_id = Policy.policy_id";
constexpr const char* kPurposeFk =
    "Purpose.policy_id = Statement.policy_id AND "
    "Purpose.statement_id = Statement.statement_id";
constexpr const char* kRecipientFk =
    "Recipient.policy_id = Statement.policy_id AND "
    "Recipient.statement_id = Statement.statement_id";
constexpr const char* kDataFk =
    "Data.policy_id = Statement.policy_id AND "
    "Data.statement_id = Statement.statement_id";
constexpr const char* kCategoriesFk =
    "Categories.policy_id = Data.policy_id AND "
    "Categories.statement_id = Data.statement_id AND "
    "Categories.data_id = Data.data_id";

Result<std::string> MatchDataExpr(const AppelExpr& data);

/// DATA-GROUP condition in Statement scope. The optimized schema folds
/// groups into Data, so group-level connectives range over the statement's
/// Data rows (policies are canonicalized to one group per statement before
/// shredding — see server/policy_server.h).
Result<std::string> MatchDataGroup(const AppelExpr& group) {
  std::string base_pred;
  for (const AppelAttribute& attr : group.attributes) {
    if (attr.name == "base") {
      base_pred = " AND Data.base = " + SqlQuote(attr.value);
    } else {
      return Status::Unsupported("attribute '" + attr.name +
                                 "' not stored for DATA-GROUP");
    }
  }
  auto exists_with = [&](const std::string& pred) {
    return "EXISTS (SELECT * FROM Data WHERE " + std::string(kDataFk) +
           base_pred + (pred.empty() ? "" : " AND " + pred) + ")";
  };
  if (group.children.empty()) return exists_with("");

  std::vector<std::string> preds;
  for (const AppelExpr& child : group.children) {
    if (child.name != "DATA") {
      return Status::Unsupported("unexpected element '" + child.name +
                                 "' in DATA-GROUP");
    }
    P3PDB_ASSIGN_OR_RETURN(std::string pred, MatchDataExpr(child));
    preds.push_back(std::move(pred));
  }
  const std::string any_pred = "(" + JoinWith(preds, " OR ") + ")";
  auto and_form = [&] {
    std::vector<std::string> terms;
    for (const std::string& p : preds) terms.push_back(exists_with(p));
    return JoinWith(terms, " AND ");
  };
  auto closure = [&] {
    return "NOT EXISTS (SELECT * FROM Data WHERE " + std::string(kDataFk) +
           base_pred + " AND NOT " + any_pred + ")";
  };
  switch (group.connective) {
    case Connective::kOr:
      return exists_with(any_pred);
    case Connective::kAnd:
      return "(" + and_form() + ")";
    case Connective::kNonOr:
      return "NOT " + exists_with(any_pred);
    case Connective::kNonAnd:
      return "NOT (" + and_form() + ")";
    case Connective::kAndExact:
      return "(" + and_form() + " AND " + closure() + ")";
    case Connective::kOrExact:
      return "(" + exists_with(any_pred) + " AND " + closure() + ")";
  }
  return Status::Internal("unhandled connective");
}

/// Predicate over one Data row for a DATA expression (ref/optional
/// attributes plus an optional CATEGORIES subcondition).
Result<std::string> MatchDataExpr(const AppelExpr& data) {
  std::vector<std::string> terms;
  for (const AppelAttribute& attr : data.attributes) {
    if (attr.name == "ref") {
      terms.push_back("Data.ref = " +
                      SqlQuote(p3p::NormalizeDataRef(attr.value)));
    } else if (attr.name == "optional") {
      terms.push_back("Data.optional = " + SqlQuote(attr.value));
    } else {
      return Status::Unsupported("attribute '" + attr.name +
                                 "' not stored for DATA");
    }
  }
  std::vector<std::string> child_terms;
  for (const AppelExpr& child : data.children) {
    if (child.name != "CATEGORIES") {
      return Status::Unsupported("unexpected element '" + child.name +
                                 "' in DATA");
    }
    P3PDB_ASSIGN_OR_RETURN(
        std::string cond,
        ValueTableCondition(child, "Categories", "category", kCategoriesFk,
                            /*allow_required=*/false));
    child_terms.push_back(std::move(cond));
  }
  if (!child_terms.empty()) {
    P3PDB_ASSIGN_OR_RETURN(std::string combined,
                           CombineConditions(child_terms, data.connective));
    terms.push_back("(" + combined + ")");
  }
  if (terms.empty()) return std::string("(1 = 1)");
  return "(" + JoinWith(terms, " AND ") + ")";
}

/// STATEMENT condition in Policy scope.
Result<std::string> MatchStatement(const AppelExpr& stmt) {
  if (!stmt.attributes.empty()) {
    return Status::Unsupported("STATEMENT attributes are not stored");
  }
  std::vector<std::string> terms;
  for (const AppelExpr& child : stmt.children) {
    if (child.name == "PURPOSE") {
      P3PDB_ASSIGN_OR_RETURN(
          std::string cond,
          ValueTableCondition(child, "Purpose", "purpose", kPurposeFk,
                              /*allow_required=*/true));
      terms.push_back(std::move(cond));
    } else if (child.name == "RECIPIENT") {
      P3PDB_ASSIGN_OR_RETURN(
          std::string cond,
          ValueTableCondition(child, "Recipient", "recipient", kRecipientFk,
                              /*allow_required=*/true));
      terms.push_back(std::move(cond));
    } else if (child.name == "RETENTION") {
      P3PDB_ASSIGN_OR_RETURN(
          std::string cond,
          SingleValueCondition(child, "Statement.retention"));
      terms.push_back(std::move(cond));
    } else if (child.name == "CONSEQUENCE") {
      terms.push_back("Statement.consequence IS NOT NULL");
    } else if (child.name == "NON-IDENTIFIABLE") {
      terms.push_back("Statement.non_identifiable = 1");
    } else if (child.name == "DATA-GROUP") {
      P3PDB_ASSIGN_OR_RETURN(std::string cond, MatchDataGroup(child));
      terms.push_back(std::move(cond));
    } else {
      return Status::Unsupported("unexpected element '" + child.name +
                                 "' in STATEMENT");
    }
  }
  std::string sql = "SELECT * FROM Statement WHERE " +
                    std::string(kStatementFk);
  if (!terms.empty()) {
    P3PDB_ASSIGN_OR_RETURN(std::string combined,
                           CombineConditions(terms, stmt.connective));
    sql += " AND (" + combined + ")";
  }
  return "EXISTS (" + sql + ")";
}

/// POLICY condition in ApplicablePolicy scope. `parameterized` swaps the
/// join to the materialized ApplicablePolicy row for a `?` placeholder.
Result<std::string> MatchPolicy(const AppelExpr& policy, bool parameterized) {
  std::vector<std::string> terms;
  for (const AppelAttribute& attr : policy.attributes) {
    if (attr.name == "name" || attr.name == "discuri" ||
        attr.name == "opturi") {
      terms.push_back("Policy." + attr.name + " = " + SqlQuote(attr.value));
    } else {
      return Status::Unsupported("attribute '" + attr.name +
                                 "' not stored for POLICY");
    }
  }
  std::vector<std::string> child_terms;
  for (const AppelExpr& child : policy.children) {
    if (child.name == "STATEMENT") {
      P3PDB_ASSIGN_OR_RETURN(std::string cond, MatchStatement(child));
      child_terms.push_back(std::move(cond));
    } else if (child.name == "ACCESS") {
      P3PDB_ASSIGN_OR_RETURN(std::string cond,
                             SingleValueCondition(child, "Policy.access"));
      child_terms.push_back(std::move(cond));
    } else {
      return Status::Unsupported("unexpected element '" + child.name +
                                 "' in POLICY");
    }
  }
  if (!child_terms.empty()) {
    P3PDB_ASSIGN_OR_RETURN(std::string combined,
                           CombineConditions(child_terms, policy.connective));
    terms.push_back("(" + combined + ")");
  }

  std::string sql =
      std::string("SELECT * FROM Policy WHERE Policy.policy_id = ") +
      (parameterized ? std::string("?")
                     : std::string(kApplicablePolicyTable) + ".policy_id");
  for (const std::string& term : terms) sql += " AND " + term;
  return "EXISTS (" + sql + ")";
}

}  // namespace

Result<std::string> OptimizedSqlTranslator::TranslateRule(
    const AppelRule& rule) const {
  std::string sql = "SELECT " + SqlQuote(rule.behavior) + " FROM " +
                    kApplicablePolicyTable;
  if (rule.IsCatchAll()) return sql;

  std::vector<std::string> terms;
  for (const AppelExpr& expr : rule.expressions) {
    if (expr.name != "POLICY") {
      return Status::Unsupported(
          "top-level APPEL expressions must match POLICY, got '" + expr.name +
          "'");
    }
    P3PDB_ASSIGN_OR_RETURN(std::string cond,
                           MatchPolicy(expr, parameterized_));
    terms.push_back(std::move(cond));
  }
  P3PDB_ASSIGN_OR_RETURN(std::string combined,
                         CombineConditions(terms, rule.connective));
  sql += " WHERE " + combined;
  return sql;
}

Result<SqlRuleset> OptimizedSqlTranslator::TranslateRuleset(
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
