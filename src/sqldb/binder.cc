#include "sqldb/binder.h"

#include <algorithm>
#include <string>

#include "common/string_util.h"
#include "sqldb/table.h"

namespace p3pdb::sqldb {

bool ContainsAggregate(const Expr& expr) {
  // An EXISTS subquery is not a child: aggregation stops at its boundary.
  return expr.kind == ExprKind::kAggregate ||
         AnyChild(expr, ContainsAggregate);
}

Status Binder::BindSelect(SelectStmt* stmt) {
  ScopeStack stack(scratch_);
  stack.reserve(static_cast<size_t>(std::clamp(max_subquery_depth_, 1, 32)));
  return BindSelectImpl(stmt, &stack);
}

Status Binder::BindSelectImpl(SelectStmt* stmt, ScopeStack* stack) {
  if (static_cast<int>(stack->size()) + 1 > max_subquery_depth_) {
    return Status::LimitExceeded(
        "query nesting depth exceeds the configured limit of " +
        std::to_string(max_subquery_depth_));
  }
  // Resolve FROM tables first so column refs can land on them.
  for (TableRef& ref : stmt->from) {
    ref.table = catalog_.LookupSlot(ref.table_name);
    if (ref.table == kNoSlot) {
      return Status::NotFound("table '" + std::string(ref.table_name) +
                              "' does not exist");
    }
    if (ref.alias.empty()) ref.alias = ref.table_name;
    // Duplicate alias check within this FROM list.
    for (const TableRef& other : stmt->from) {
      if (&other != &ref && EqualsIgnoreCase(other.alias, ref.alias) &&
          &other < &ref) {
        return Status::InvalidArgument("duplicate table alias '" +
                                       std::string(ref.alias) + "'");
      }
    }
  }

  stack->push_back(stmt);
  Status st = BindSelectBody(stmt, stack);
  stack->pop_back();
  return st;
}

Status Binder::BindSelectBody(SelectStmt* stmt, ScopeStack* stack) {
  bool aggregate_mode = !stmt->group_by.empty();
  for (const SelectItem& item : stmt->items) {
    if (!item.is_star && ContainsAggregate(*item.expr)) aggregate_mode = true;
  }
  stmt->aggregate_mode = aggregate_mode;

  for (SelectItem& item : stmt->items) {
    if (item.is_star) {
      if (aggregate_mode) {
        return Status::InvalidArgument("'*' not allowed with GROUP BY");
      }
      if (stmt->from.empty()) {
        return Status::InvalidArgument("'*' requires a FROM clause");
      }
      continue;
    }
    P3PDB_RETURN_IF_ERROR(
        BindExpr(item.expr.get(), stack, /*allow_aggregates=*/true));
  }
  if (stmt->where != nullptr) {
    P3PDB_RETURN_IF_ERROR(
        BindExpr(stmt->where.get(), stack, /*allow_aggregates=*/false));
    if (ContainsAggregate(*stmt->where)) {
      return Status::InvalidArgument("aggregates not allowed in WHERE");
    }
  }
  for (ExprPtr& g : stmt->group_by) {
    P3PDB_RETURN_IF_ERROR(
        BindExpr(g.get(), stack, /*allow_aggregates=*/false));
  }
  // In aggregate mode, every non-aggregate select item must match a GROUP BY
  // expression (matched on SQL text, which is canonical after parsing).
  if (aggregate_mode) {
    for (const SelectItem& item : stmt->items) {
      if (ContainsAggregate(*item.expr)) continue;
      bool matched = false;
      for (const ExprPtr& g : stmt->group_by) {
        if (g->ToSql() == item.expr->ToSql()) {
          matched = true;
          break;
        }
      }
      if (!matched) {
        return Status::InvalidArgument(
            "select item '" + item.expr->ToSql() +
            "' must appear in GROUP BY or be an aggregate");
      }
    }
  }
  // The result width: a `*` item spans every column of the FROM tables.
  const TableSlots tables = catalog_.table_slots();
  size_t star_width = 0;
  for (const TableRef& tr : stmt->from) {
    star_width += tables[tr.table].schema().ColumnCount();
  }
  size_t width = 0;
  for (const SelectItem& si : stmt->items) width += si.is_star ? star_width : 1;
  stmt->result_width = static_cast<uint32_t>(width);

  // ORDER BY targets. A result column is named by an integer-literal
  // ordinal or by a select item's alias or exact text; anything else
  // evaluates in row context, which aggregation no longer has. Only the
  // root's rows are sorted: an EXISTS subquery's ORDER BY is bound, but
  // never checked against its result columns.
  const bool sorted = stack->size() == 1;
  for (OrderByItem& item : stmt->order_by) {
    const Expr& e = *item.expr;
    if (e.kind == ExprKind::kLiteral &&
        static_cast<const LiteralExpr&>(e).value.type() ==
            ValueType::kInteger) {
      const int64_t ordinal =
          static_cast<const LiteralExpr&>(e).value.AsInteger();
      if (ordinal >= 1 && ordinal <= static_cast<int64_t>(width)) {
        item.output_column = static_cast<int32_t>(ordinal - 1);
      } else if (sorted) {
        return Status::InvalidArgument("ORDER BY ordinal out of range");
      }
      continue;
    }
    const std::string text = e.ToSql();
    int32_t column = OrderByItem::kEvaluate;
    size_t next = 0;
    for (const SelectItem& si : stmt->items) {
      if (!si.is_star && (si.alias == text || si.expr->ToSql() == text)) {
        column = static_cast<int32_t>(next);
        break;
      }
      next += si.is_star ? star_width : 1;
    }
    item.output_column = column;
    if (column != OrderByItem::kEvaluate) continue;
    P3PDB_RETURN_IF_ERROR(
        BindExpr(item.expr.get(), stack, /*allow_aggregates=*/aggregate_mode));
    if (aggregate_mode && sorted) {
      return Status::InvalidArgument(
          "ORDER BY in an aggregate query must reference a select item");
    }
  }
  return Status::OK();
}

Status Binder::BindExpr(Expr* expr, ScopeStack* stack,
                        bool allow_aggregates) {
  switch (expr->kind) {
    case ExprKind::kColumnRef:
      return BindColumnRef(static_cast<ColumnRefExpr*>(expr), *stack);
    case ExprKind::kExists:
      return BindSelectImpl(SubqueryOf(*expr), stack);
    case ExprKind::kHashJoin:
      // The planner rewrites EXISTS into hash joins only after binding; a
      // hash join reaching the binder means a plan was re-bound, which the
      // cache never does.
      return Status::Internal("hash join encountered during binding");
    case ExprKind::kAggregate:
      if (!allow_aggregates) {
        return Status::InvalidArgument("aggregate not allowed here");
      }
      break;
    default:
      break;  // literals and placeholders bind nothing; operators, children
  }
  // Only an item's top may aggregate: an aggregate under an operator or in
  // another aggregate's argument is rejected.
  Status st;
  AnyChild(*expr, [&](Expr& child) {
    st = BindExpr(&child, stack, /*allow_aggregates=*/false);
    return !st.ok();
  });
  return st;
}

Status Binder::BindColumnRef(ColumnRefExpr* ref, const ScopeStack& stack) {
  const TableSlots tables = catalog_.table_slots();
  // Search scopes innermost-out. level = distance from the innermost scope.
  for (size_t up = 0; up < stack.size(); ++up) {
    const SelectStmt* scope = stack[stack.size() - 1 - up];
    int found_slot = -1;
    size_t found_ordinal = 0;
    for (size_t slot = 0; slot < scope->from.size(); ++slot) {
      const TableRef& tr = scope->from[slot];
      if (!ref->table_name.empty() &&
          !EqualsIgnoreCase(tr.alias, ref->table_name)) {
        continue;
      }
      std::optional<size_t> ord =
          tables[tr.table].schema().ColumnIndex(ref->column_name);
      if (!ord.has_value()) continue;
      if (found_slot >= 0) {
        return Status::InvalidArgument("ambiguous column '" + ref->ToSql() +
                                       "'");
      }
      found_slot = static_cast<int>(slot);
      found_ordinal = *ord;
    }
    if (found_slot >= 0) {
      ref->level = static_cast<int>(up);
      ref->table_slot = static_cast<size_t>(found_slot);
      ref->column_ordinal = found_ordinal;
      return Status::OK();
    }
  }
  return Status::NotFound("column '" + ref->ToSql() + "' not found");
}

}  // namespace p3pdb::sqldb
