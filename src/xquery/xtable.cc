#include "xquery/xtable.h"

#include "common/string_util.h"
#include "p3p/data_schema.h"
#include "shredder/element_spec.h"
#include "translator/applicable_policy.h"

namespace p3pdb::xquery {

using shredder::AttributeSpec;
using shredder::ElementSpec;

namespace {

Result<std::string> CondToSql(const Cond& cond, const ElementSpec& spec,
                              const std::vector<std::string>& own_pk);

Result<std::string> StepToSql(const Step& step, const ElementSpec& parent,
                              const std::vector<std::string>& parent_pk) {
  const ElementSpec* spec = parent.FindChild(step.name);
  if (spec == nullptr) {
    return Status::Unsupported("no table for element '" + step.name +
                               "' under '" + parent.element_name() + "'");
  }
  std::vector<std::string> own_pk;
  own_pk.push_back(spec->id_column());
  own_pk.insert(own_pk.end(), parent_pk.begin(), parent_pk.end());

  std::string sql = "SELECT * FROM " + spec->table_name() + " WHERE ";
  std::vector<std::string> join_terms;
  for (const std::string& col : parent_pk) {
    join_terms.push_back(spec->table_name() + "." + col + " = " +
                         parent.table_name() + "." + col);
  }
  sql += Join(join_terms, " AND ");
  for (const Cond& pred : step.predicates) {
    P3PDB_ASSIGN_OR_RETURN(std::string cond_sql,
                           CondToSql(pred, *spec, own_pk));
    sql += " AND (" + cond_sql + ")";
  }
  return "EXISTS (" + sql + ")";
}

Result<std::string> CondToSql(const Cond& cond, const ElementSpec& spec,
                              const std::vector<std::string>& own_pk) {
  switch (cond.kind) {
    case CondKind::kOr:
    case CondKind::kAnd: {
      std::string out;
      for (size_t i = 0; i < cond.children.size(); ++i) {
        if (i > 0) out += cond.kind == CondKind::kOr ? " OR " : " AND ";
        P3PDB_ASSIGN_OR_RETURN(std::string sub,
                               CondToSql(cond.children[i], spec, own_pk));
        out += "(" + sub + ")";
      }
      return out;
    }
    case CondKind::kNot: {
      P3PDB_ASSIGN_OR_RETURN(std::string sub,
                             CondToSql(cond.children[0], spec, own_pk));
      return "NOT (" + sub + ")";
    }
    case CondKind::kAttrEquals: {
      for (const AttributeSpec& a : spec.attributes()) {
        if (a.name == cond.attr_name) {
          std::string value = cond.attr_value;
          if (a.name == "ref") {
            value = std::string(p3p::NormalizeDataRef(value));
          }
          return spec.table_name() + "." + a.column + " = " + SqlQuote(value);
        }
      }
      return Status::Unsupported("attribute '" + cond.attr_name +
                                 "' is not stored for element '" +
                                 spec.element_name() + "'");
    }
    case CondKind::kPathExists:
      return StepToSql(*cond.step, spec, own_pk);
  }
  return Status::Internal("unhandled condition kind");
}

/// A condition evaluated with the *document node* as context (the
/// predicates on document("applicable-policy")): POLICY path tests become
/// EXISTS over the Policy table; or/and/not recurse (rule-level
/// connectives land here); attribute tests on the document node are
/// vacuously false.
Result<std::string> DocCondToSql(const Cond& cond) {
  switch (cond.kind) {
    case CondKind::kPathExists: {
      if (cond.step->name != "POLICY") {
        return Status::Unsupported(
            "document-level path tests must target POLICY, got '" +
            cond.step->name + "'");
      }
      const ElementSpec& policy_spec = shredder::PolicyElementSpec();
      std::vector<std::string> own_pk = {"policy_id"};
      std::string sub = "SELECT * FROM Policy WHERE Policy.policy_id = ?";
      for (const Cond& pred : cond.step->predicates) {
        P3PDB_ASSIGN_OR_RETURN(std::string cond_sql,
                               CondToSql(pred, policy_spec, own_pk));
        sub += " AND (" + cond_sql + ")";
      }
      return "EXISTS (" + sub + ")";
    }
    case CondKind::kOr:
    case CondKind::kAnd: {
      std::string out;
      for (size_t i = 0; i < cond.children.size(); ++i) {
        if (i > 0) out += cond.kind == CondKind::kOr ? " OR " : " AND ";
        P3PDB_ASSIGN_OR_RETURN(std::string sub,
                               DocCondToSql(cond.children[i]));
        out += "(" + sub + ")";
      }
      return out;
    }
    case CondKind::kNot: {
      P3PDB_ASSIGN_OR_RETURN(std::string sub,
                             DocCondToSql(cond.children[0]));
      return "NOT (" + sub + ")";
    }
    case CondKind::kAttrEquals:
      return std::string("(1 = 0)");  // the document node has no attributes
  }
  return Status::Internal("unhandled condition kind");
}

}  // namespace

Result<std::string> XTableTranslator::TranslateQuery(
    const Query& query) const {
  std::string sql = "SELECT " + SqlQuote(query.behavior) + " FROM " +
                    translator::kApplicablePolicyTable;
  if (query.conditions.empty()) return sql;

  std::vector<std::string> terms;
  for (const Cond& cond : query.conditions) {
    P3PDB_ASSIGN_OR_RETURN(std::string term, DocCondToSql(cond));
    terms.push_back("(" + term + ")");
  }
  sql += " WHERE " + Join(terms, " AND ");
  return sql;
}

}  // namespace p3pdb::xquery
