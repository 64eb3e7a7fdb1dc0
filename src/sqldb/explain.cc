#include "sqldb/explain.h"

#include <cmath>

#include "common/string_util.h"
#include "sqldb/table.h"

namespace p3pdb::sqldb {

namespace {

void Indent(int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
}

/// Renders a cost-model row estimate. Estimates are only stamped when a
/// StatsCatalog was supplied at plan time; negative means "not costed" and
/// prints nothing, so rule-only plans render exactly as before.
void AppendEstimate(double est_rows, bool seq_forced, std::string* out) {
  if (est_rows < 0.0) return;
  out->append(" (est rows=" + std::to_string(std::llround(est_rows)));
  if (seq_forced) out->append(", seq-forced");
  out->push_back(')');
}

/// Renders an index-key expression, substituting bound parameter values
/// when available: `?[=3]` reads "placeholder, currently bound to 3".
std::string RenderKeyExpr(const Expr& expr, const ExplainOptions& options) {
  if (expr.kind == ExprKind::kParam) {
    const auto& param = static_cast<const ParamExpr&>(expr);
    if (options.params != nullptr && param.index < options.params->size()) {
      return "?[=" + (*options.params)[param.index].ToString() + "]";
    }
    return "?";
  }
  return expr.ToSql();
}

/// Appends the EXPLAIN ANALYZE actuals for one plan node.
void AppendActuals(const PlanNodeStats* node, const ExplainOptions& options,
                   std::string* out) {
  if (options.profile == nullptr) return;
  if (node == nullptr) {
    out->append(" (never executed)");
    return;
  }
  out->append(" (actual rows=" + std::to_string(node->rows) +
              " loops=" + std::to_string(node->loops) +
              " time=" + FormatDouble(node->elapsed_us, 1) + "us)");
}

void ExplainSelect(const SelectStmt& stmt, int depth,
                   const ExplainOptions& options, std::string* out);

/// Explains every subquery in an expression, outermost first.
void ExplainSubqueries(const Expr& expr, int depth,
                       const ExplainOptions& options, std::string* out) {
  if (expr.kind == ExprKind::kExists) {
    const auto& e = static_cast<const ExistsExpr&>(expr);
    Indent(depth, out);
    out->append(e.negated ? "not-exists-subquery\n" : "exists-subquery\n");
    ExplainSelect(*e.subquery, depth + 1, options, out);
  } else if (expr.kind == ExprKind::kHashJoin) {
    const auto& j = static_cast<const HashJoinExpr&>(expr);
    Indent(depth, out);
    out->append(j.anti ? "hash-anti-join" : "hash-semi-join");
    std::vector<std::string> conds;
    for (size_t i = 0; i < j.build_keys.size(); ++i) {
      conds.push_back(j.build_keys[i]->ToSql() + " = " +
                      RenderKeyExpr(*j.probe_keys[i], options));
    }
    out->append(" on " + Join(conds, ", "));
    AppendEstimate(j.est_build_rows, /*seq_forced=*/false, out);
    if (options.profile != nullptr) {
      AppendActuals(options.profile->FindHashJoin(&j), options, out);
    }
    out->push_back('\n');
    ExplainSelect(*j.build, depth + 1, options, out);
  }
  ForEachChild(expr, [&](const Expr& child) {
    ExplainSubqueries(child, depth, options, out);
  });
}

void ExplainSelect(const SelectStmt& stmt, int depth,
                   const ExplainOptions& options, std::string* out) {
  Indent(depth, out);
  out->append("select");
  if (stmt.distinct) out->append(" distinct");
  if (!stmt.group_by.empty()) out->append(" (hash aggregate)");
  if (!stmt.order_by.empty()) out->append(" (sort)");
  if (stmt.limit.has_value()) {
    out->append(" (limit " + std::to_string(*stmt.limit) + ")");
  }
  if (options.profile != nullptr) {
    AppendActuals(options.profile->FindSelect(&stmt), options, out);
  }
  out->push_back('\n');

  for (size_t slot = 0; slot < stmt.from.size(); ++slot) {
    const TableRef& ref = stmt.from[slot];
    Indent(depth + 1, out);
    out->append("scan ");
    out->append(ref.alias);
    const Table& table = options.tables[ref.table];
    const SlotPlan& sp = stmt.slot_plans[slot];
    if (sp.has_index()) {
      const Index& index = *table.indexes()[sp.index];
      std::vector<std::string> cols;
      const std::vector<size_t>& ordinals = index.column_ordinals();
      for (size_t i = 0; i < ordinals.size(); ++i) {
        cols.push_back(table.schema().columns()[ordinals[i]].name + " = " +
                       RenderKeyExpr(*sp.key_exprs[i], options));
      }
      out->append(" (index " + index.name() + " on " + Join(cols, ", ") +
                  ")");
    } else {
      out->append(" (seq scan)");
    }
    AppendEstimate(sp.est_rows, sp.seq_forced, out);
    if (options.profile != nullptr) {
      AppendActuals(options.profile->FindScan(&stmt, slot), options, out);
    }
    out->push_back('\n');
  }
  // WHERE first, then the other clauses: every subquery the executor runs.
  ForEachClause(stmt, [&](const Expr& e) {
    ExplainSubqueries(e, depth + 1, options, out);
  });
}

}  // namespace

std::string ExplainPlan(const SelectStmt& stmt,
                        const ExplainOptions& options) {
  std::string out;
  ExplainSelect(stmt, 0, options, &out);
  return out;
}

}  // namespace p3pdb::sqldb
