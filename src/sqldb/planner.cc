#include "sqldb/planner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <memory_resource>
#include <utility>
#include <vector>

#include "sqldb/stats.h"
#include "sqldb/table.h"

namespace p3pdb::sqldb {
namespace {

/// True when `e` contains a column reference that resolves more than
/// `depth` SELECT levels above where `e` sits.
bool RefsEscape(const Expr& e, int depth) {
  if (e.kind == ExprKind::kColumnRef) {
    return static_cast<const ColumnRefExpr&>(e).level > depth;
  }
  if (AnyChild(e, [depth](const Expr& c) { return RefsEscape(c, depth); })) {
    return true;
  }
  const SelectStmt* sub = SubqueryOf(e);
  return sub != nullptr && AnyClause(*sub, [depth](const Expr& c) {
           return RefsEscape(c, depth + 1);
         });
}

/// True when `e` contains a `?` placeholder, nested subqueries included.
bool ContainsParam(const Expr& e) {
  if (e.kind == ExprKind::kParam) return true;
  if (AnyChild(e, ContainsParam)) return true;
  const SelectStmt* sub = SubqueryOf(e);
  return sub != nullptr && AnyClause(*sub, ContainsParam);
}

using TableList = std::pmr::vector<CatalogSlot>;
using ExprList = std::pmr::vector<ExprPtr>;
using ExprViewList = std::pmr::vector<const Expr*>;

void CollectTablesExpr(const Expr& e, TableList* out);

/// Every table the select reads, FROM lists of nested subqueries included.
void CollectTables(const SelectStmt& s, TableList* out) {
  for (const TableRef& tr : s.from) {
    if (tr.table != kNoSlot) out->push_back(tr.table);
  }
  ForEachClause(s, [out](const Expr& e) { CollectTablesExpr(e, out); });
}

void CollectTablesExpr(const Expr& e, TableList* out) {
  if (const SelectStmt* sub = SubqueryOf(e)) CollectTables(*sub, out);
  ForEachChild(e, [out](const Expr& c) { CollectTablesExpr(c, out); });
}

/// Dismantles a tree of nested ANDs into its conjuncts, preserving
/// left-to-right order.
void FlattenAndOwned(ExprPtr e, ExprList* out) {
  if (e->kind == ExprKind::kLogical) {
    auto* l = static_cast<LogicalExpr*>(e.get());
    if (l->is_and) {
      for (ExprPtr& op : l->operands) FlattenAndOwned(std::move(op), out);
      return;
    }
  }
  out->push_back(std::move(e));
}

/// Read-only view of the same flattening, for the eligibility check.
void FlattenAndView(const Expr* e, ExprViewList* out) {
  if (e->kind == ExprKind::kLogical) {
    const auto* l = static_cast<const LogicalExpr*>(e);
    if (l->is_and) {
      for (const ExprPtr& op : l->operands) FlattenAndView(op.get(), out);
      return;
    }
  }
  out->push_back(e);
}

// ---------------------------------------------------------------------------
// Cardinality estimation (cost model; see stats.h)
// ---------------------------------------------------------------------------
//
// Textbook selectivity formulas over the statistics catalog:
//   col = x        ->  1 / NDV(col)        (uniformity assumption)
//   col <> x       ->  1 - 1/NDV
//   range compare  ->  1/3
//   col IS NULL    ->  null_fraction(col)
//   col IN (n...)  ->  min(1, n / NDV)
//   LIKE           ->  1/4
//   AND            ->  product (independence assumption)
//   OR             ->  1 - prod(1 - s_i)
// Conjuncts containing subqueries, or level-0 references to other FROM
// slots (join predicates), contribute selectivity 1 — estimates stay
// conservative rather than guessing at correlations.

/// A level-0 column reference belonging to FROM slot `slot`, else nullptr.
const ColumnRefExpr* SlotColumn(const Expr& e, size_t slot) {
  if (e.kind != ExprKind::kColumnRef) return nullptr;
  const auto& ref = static_cast<const ColumnRefExpr&>(e);
  if (ref.level != 0 || ref.table_slot != slot) return nullptr;
  return &ref;
}

/// True when `e` can be folded into a selectivity estimate for `slot`: no
/// subqueries anywhere, and every level-0 column reference belongs to the
/// slot (outer references and bind params act as opaque constants).
bool EstimableForSlot(const Expr& e, size_t slot) {
  if (e.kind == ExprKind::kColumnRef) {
    const auto& ref = static_cast<const ColumnRefExpr&>(e);
    return ref.level != 0 || ref.table_slot == slot;
  }
  if (e.kind == ExprKind::kAggregate || SubqueryOf(e) != nullptr) {
    return false;
  }
  return !AnyChild(e, [slot](const Expr& c) {
    return !EstimableForSlot(c, slot);
  });
}

double EqSelectivity(const Table& table, size_t ordinal,
                     const StatsCatalog& catalog) {
  const double ndv = catalog.EstimatedNdv(&table, ordinal);
  if (ndv < 1.0) return 1.0;  // no data observed: assume nothing
  return std::min(1.0, 1.0 / ndv);
}

/// Range selectivity for `col <op> literal` by interpolating the literal
/// against the column's observed [min, max] span under the uniform
/// assumption — (v - lo) / (hi - lo) of the rows fall below v. Clamped to
/// [0.001, 1] so a literal outside the span never zeroes a cardinality
/// product outright. Falls back to the System R 1/3 guess when the literal
/// or the extrema are not integers (or no data has been observed).
double RangeSelectivity(CompareOp op, const Table& table, size_t ordinal,
                        const Value* literal, const StatsCatalog& catalog) {
  constexpr double kDefault = 1.0 / 3.0;
  if (literal == nullptr || literal->type() != ValueType::kInteger) {
    return kDefault;
  }
  const auto minmax = catalog.MinMax(&table, ordinal);
  if (!minmax.has_value() ||
      minmax->first.type() != ValueType::kInteger ||
      minmax->second.type() != ValueType::kInteger) {
    return kDefault;
  }
  const double lo = static_cast<double>(minmax->first.AsInteger());
  const double hi = static_cast<double>(minmax->second.AsInteger());
  const double v = static_cast<double>(literal->AsInteger());
  const double span = hi - lo;
  double below;  // fraction of rows strictly below v (uniform assumption)
  if (span <= 0.0) {
    below = v > lo ? 1.0 : 0.0;  // single-valued column: all or nothing
  } else {
    below = (v - lo) / span;
  }
  double sel;
  switch (op) {
    case CompareOp::kLt:
    case CompareOp::kLe:
      sel = below;
      break;
    case CompareOp::kGt:
    case CompareOp::kGe:
      sel = 1.0 - below;
      break;
    default:
      return kDefault;
  }
  return std::clamp(sel, 0.001, 1.0);
}

/// `5 < col` is `col > 5`: the op as seen from the column side.
CompareOp FlipCompare(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;
  }
}

double ConjSelectivity(const Expr& e, size_t slot, const Table& table,
                       const StatsCatalog& catalog) {
  switch (e.kind) {
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(e);
      const ColumnRefExpr* col = SlotColumn(*c.left, slot);
      const bool col_on_left = col != nullptr;
      if (col == nullptr) col = SlotColumn(*c.right, slot);
      if (col == nullptr) return 1.0;
      switch (c.op) {
        case CompareOp::kEq:
          return EqSelectivity(table, col->column_ordinal, catalog);
        case CompareOp::kNe:
          return 1.0 - EqSelectivity(table, col->column_ordinal, catalog);
        default: {
          const Expr& other = col_on_left ? *c.right : *c.left;
          const Value* literal =
              other.kind == ExprKind::kLiteral
                  ? &static_cast<const LiteralExpr&>(other).value
                  : nullptr;
          const CompareOp op = col_on_left ? c.op : FlipCompare(c.op);
          return RangeSelectivity(op, table, col->column_ordinal, literal,
                                  catalog);
        }
      }
    }
    case ExprKind::kLogical: {
      const auto& l = static_cast<const LogicalExpr&>(e);
      if (l.is_and) {
        double sel = 1.0;
        for (const ExprPtr& op : l.operands) {
          sel *= ConjSelectivity(*op, slot, table, catalog);
        }
        return sel;
      }
      double pass_none = 1.0;
      for (const ExprPtr& op : l.operands) {
        pass_none *= 1.0 - ConjSelectivity(*op, slot, table, catalog);
      }
      return 1.0 - pass_none;
    }
    case ExprKind::kNot:
      return 1.0 - ConjSelectivity(*static_cast<const NotExpr&>(e).operand,
                                   slot, table, catalog);
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      const ColumnRefExpr* col = SlotColumn(*in.operand, slot);
      if (col == nullptr) return 1.0;
      const double sel = std::min(
          1.0, static_cast<double>(in.items.size()) *
                   EqSelectivity(table, col->column_ordinal, catalog));
      return in.negated ? 1.0 - sel : sel;
    }
    case ExprKind::kIsNull: {
      const auto& isn = static_cast<const IsNullExpr&>(e);
      const ColumnRefExpr* col = SlotColumn(*isn.operand, slot);
      if (col == nullptr) return 1.0;
      const double nf = catalog.NullFraction(&table, col->column_ordinal);
      return isn.negated ? 1.0 - nf : nf;
    }
    case ExprKind::kLike:
      return static_cast<const LikeExpr&>(e).negated ? 0.75 : 0.25;
    default:
      return 1.0;
  }
}

/// Estimated rows surviving the WHERE conjuncts local to FROM slot `slot`.
/// `skip_escaping` additionally drops conjuncts referencing enclosing
/// scopes — the build-side estimate, where correlation equalities are
/// stripped before the build executes. Temporaries come from `scratch`.
double EstimateSlotRows(const SelectStmt& s, size_t slot, TableSlots tables,
                        const StatsCatalog& catalog, bool skip_escaping,
                        std::pmr::memory_resource* scratch) {
  if (s.from[slot].table == kNoSlot) return 0.0;
  const Table* table = &tables[s.from[slot].table];
  double rows = catalog.EstimatedRows(table);
  if (s.where == nullptr) return rows;
  ExprViewList conjuncts(scratch);
  FlattenAndView(s.where.get(), &conjuncts);
  double sel = 1.0;
  for (const Expr* c : conjuncts) {
    if (!EstimableForSlot(*c, slot)) continue;
    if (skip_escaping && RefsEscape(*c, 0)) continue;
    sel *= ConjSelectivity(*c, slot, *table, catalog);
  }
  return rows * sel;
}

/// Estimated row combinations a select enumerates (product over FROM).
double EstimateSelectRows(const SelectStmt& s, TableSlots tables,
                          const StatsCatalog& catalog, bool skip_escaping,
                          std::pmr::memory_resource* scratch) {
  if (s.from.empty()) return 0.0;
  double rows = 1.0;
  for (size_t slot = 0; slot < s.from.size(); ++slot) {
    rows *= EstimateSlotRows(s, slot, tables, catalog, skip_escaping, scratch);
  }
  return rows;
}

/// An eligible EXISTS stays correlated when the decorrelated build would
/// enumerate this many times more rows than the outer loop probes it.
constexpr double kCorrelatedBuildFactor = 8.0;

class Planner {
 public:
  Planner(TableSlots tables, StatementArena* arena, ExecStats* stats,
          const StatsCatalog* catalog, std::pmr::memory_resource* scratch)
      : tables_(tables),
        arena_(arena),
        stats_(stats),
        catalog_(catalog),
        scratch_(scratch),
        path_(scratch) {}

  void Plan(SelectStmt* stmt) {
    path_.push_back(stmt);
    if (stmt->where != nullptr) {
      PlanExpr(&stmt->where);
      if (catalog_ != nullptr) CostWhere(stmt);
    }
    path_.pop_back();
  }

  /// Hash joins placed so far (the next join's ordinal).
  uint32_t hash_joins() const { return hash_joins_; }

 private:
  /// How one top-level conjunct of a candidate subquery classifies.
  struct Conjunct {
    bool is_correlation = false;
    bool left_is_inner = false;  // for correlations: which side is level 0
  };

  void PlanExpr(ExprPtr* slot) {
    switch ((*slot)->kind) {
      case ExprKind::kLogical: {
        auto* l = static_cast<LogicalExpr*>(slot->get());
        for (ExprPtr& op : l->operands) PlanExpr(&op);
        return;
      }
      case ExprKind::kNot:
        PlanExpr(&static_cast<NotExpr*>(slot->get())->operand);
        return;
      case ExprKind::kExists: {
        auto* exists = static_cast<ExistsExpr*>(slot->get());
        if (ArenaPtr<HashJoinExpr> join = TryRewrite(exists)) {
          *slot = std::move(join);
          // Nested EXISTS travelled into the build as local conjuncts;
          // give them their own rewrite pass.
          Plan(static_cast<HashJoinExpr*>(slot->get())->build.get());
        } else {
          // Not eligible here; deeper levels may still be.
          Plan(exists->subquery.get());
        }
        return;
      }
      default:
        return;  // no subqueries below other kinds in this dialect
    }
  }

  /// Resolves the schema column type of a bound reference, or nullopt when
  /// the scope chain cannot be resolved (bail out rather than guess).
  std::optional<ColumnType> RefType(const ColumnRefExpr& ref,
                                    const SelectStmt* sub) const {
    const SelectStmt* scope = nullptr;
    if (ref.level == 0) {
      scope = sub;
    } else {
      // level 1 = innermost enclosing select = path_.back().
      if (static_cast<size_t>(ref.level) > path_.size()) return std::nullopt;
      scope = path_[path_.size() - static_cast<size_t>(ref.level)];
    }
    if (ref.table_slot >= scope->from.size()) return std::nullopt;
    const CatalogSlot table = scope->from[ref.table_slot].table;
    if (table == kNoSlot) return std::nullopt;
    const auto& columns = tables_[table].schema().columns();
    if (ref.column_ordinal >= columns.size()) return std::nullopt;
    return columns[ref.column_ordinal].type;
  }

  ArenaPtr<HashJoinExpr> TryRewrite(ExistsExpr* exists) {
    SelectStmt* sub = exists->subquery.get();
    if (sub->from.empty() || sub->where == nullptr) return nullptr;
    if (AnyClause(*sub, ContainsParam)) return nullptr;

    // Phase 1: classify every top-level conjunct without touching the tree.
    ExprViewList view(scratch_);
    FlattenAndView(sub->where.get(), &view);
    std::pmr::vector<Conjunct> classes(view.size(), scratch_);
    size_t correlations = 0;
    for (size_t i = 0; i < view.size(); ++i) {
      const Expr* c = view[i];
      if (!RefsEscape(*c, 0)) continue;  // local conjunct
      // Escaping conjuncts must be `inner_col = outer_col` exactly.
      if (c->kind != ExprKind::kComparison) return nullptr;
      const auto* cmp = static_cast<const ComparisonExpr*>(c);
      if (cmp->op != CompareOp::kEq) return nullptr;
      if (cmp->left->kind != ExprKind::kColumnRef ||
          cmp->right->kind != ExprKind::kColumnRef) {
        return nullptr;
      }
      const auto* l = static_cast<const ColumnRefExpr*>(cmp->left.get());
      const auto* r = static_cast<const ColumnRefExpr*>(cmp->right.get());
      const ColumnRefExpr* inner = nullptr;
      const ColumnRefExpr* outer = nullptr;
      if (l->level == 0 && r->level >= 1) {
        inner = l;
        outer = r;
        classes[i].left_is_inner = true;
      } else if (r->level == 0 && l->level >= 1) {
        inner = r;
        outer = l;
      } else {
        return nullptr;  // e.g. outer_a = outer_b, or deeper-level pairs
      }
      std::optional<ColumnType> inner_type = RefType(*inner, sub);
      std::optional<ColumnType> outer_type = RefType(*outer, sub);
      if (!inner_type.has_value() || !outer_type.has_value() ||
          *inner_type != *outer_type) {
        return nullptr;
      }
      classes[i].is_correlation = true;
      ++correlations;
    }
    if (correlations == 0) return nullptr;

    // Cost gate: an eligible rewrite can still lose. When the build side
    // would enumerate far more rows than the outer loop will ever probe,
    // and the correlated path is an index point-lookup per outer row, the
    // rule rewrite is vetoed and the EXISTS stays correlated.
    if (catalog_ != nullptr && KeepCorrelated(*sub, view, classes)) {
      if (stats_ != nullptr) ++stats_->cost_exists_kept;
      return nullptr;
    }

    // Phase 2: eligible — dismantle the WHERE and assemble the join node.
    // Every arena list is allocated once at its final size.
    ExprList conjuncts(scratch_);
    FlattenAndOwned(std::move(sub->where), &conjuncts);
    ArenaPtr<HashJoinExpr> join = arena_->New<HashJoinExpr>(
        exists->negated, std::move(exists->subquery));
    join->build_keys = arena_->NewArray<ArenaPtr<ColumnRefExpr>>(correlations);
    join->probe_keys = arena_->NewArray<ExprPtr>(correlations);
    ExprList locals(scratch_);
    size_t key = 0;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (!classes[i].is_correlation) {
        locals.push_back(std::move(conjuncts[i]));
        continue;
      }
      auto* cmp = static_cast<ComparisonExpr*>(conjuncts[i].get());
      ExprPtr inner_side = classes[i].left_is_inner ? std::move(cmp->left)
                                                    : std::move(cmp->right);
      ExprPtr outer_side = classes[i].left_is_inner ? std::move(cmp->right)
                                                    : std::move(cmp->left);
      join->build_keys[key] = ArenaPtr<ColumnRefExpr>(
          static_cast<ColumnRefExpr*>(inner_side.release()));
      // The probe expression now evaluates one scope closer to its target.
      static_cast<ColumnRefExpr*>(outer_side.get())->level -= 1;
      join->probe_keys[key] = std::move(outer_side);
      ++key;
    }
    SelectStmt* build = join->build.get();
    if (locals.size() == 1) {
      build->where = std::move(locals[0]);
    } else if (!locals.empty()) {
      build->where = arena_->New<LogicalExpr>(
          /*and_op=*/true, arena_->MoveArray(locals.data(), locals.size()));
    }  // else: no residual predicate; build enumerates the whole table

    TableList deps(scratch_);
    CollectTables(*build, &deps);
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    join->dep_tables = arena_->MoveArray(deps.data(), deps.size());
    join->ordinal = hash_joins_++;

    if (stats_ != nullptr) {
      if (join->anti) {
        ++stats_->anti_join_rewrites;
      } else {
        ++stats_->semi_join_rewrites;
      }
    }
    return join;
  }

  /// The cost model's rewrite veto (see planner.h). `view`/`classes` are
  /// the phase-1 classification of the subquery's conjuncts.
  bool KeepCorrelated(const SelectStmt& sub, const ExprViewList& view,
                      const std::pmr::vector<Conjunct>& classes) const {
    // The correlated plan is only competitive as a point lookup: every
    // correlation column must sit on one build slot with a covering index.
    std::pmr::vector<size_t> ordinals(scratch_);
    size_t inner_slot = 0;
    bool have_slot = false;
    for (size_t i = 0; i < view.size(); ++i) {
      if (!classes[i].is_correlation) continue;
      const auto* cmp = static_cast<const ComparisonExpr*>(view[i]);
      const auto* inner = static_cast<const ColumnRefExpr*>(
          classes[i].left_is_inner ? cmp->left.get() : cmp->right.get());
      if (!have_slot) {
        inner_slot = inner->table_slot;
        have_slot = true;
      } else if (inner->table_slot != inner_slot) {
        return false;
      }
      ordinals.push_back(inner->column_ordinal);
    }
    if (!have_slot || inner_slot >= sub.from.size()) return false;
    const CatalogSlot table = sub.from[inner_slot].table;
    if (table == kNoSlot ||
        tables_[table].FindIndexCovering(ordinals) == nullptr) {
      return false;
    }
    const double build_rows = EstimateSelectRows(
        sub, tables_, *catalog_, /*skip_escaping=*/true, scratch_);
    const double outer_rows =
        path_.empty()
            ? 1.0
            : EstimateSelectRows(*path_.back(), tables_, *catalog_,
                                 /*skip_escaping=*/false, scratch_);
    return build_rows > kCorrelatedBuildFactor * std::max(1.0, outer_rows);
  }

  /// Post-rewrite cost pass over one select's WHERE: stamp every hash join
  /// with its estimated build cardinality, then reorder sibling joins under
  /// the top-level AND cheapest-build-first (scalar conjuncts keep their
  /// positions; the joins' three-valued AND verdict is order-independent).
  void CostWhere(SelectStmt* stmt) {
    StampJoinEstimates(stmt->where.get());
    if (stmt->where->kind != ExprKind::kLogical) return;
    auto* l = static_cast<LogicalExpr*>(stmt->where.get());
    if (!l->is_and) return;
    std::pmr::vector<size_t> join_slots(scratch_);
    for (size_t i = 0; i < l->operands.size(); ++i) {
      if (l->operands[i]->kind == ExprKind::kHashJoin) join_slots.push_back(i);
    }
    if (join_slots.size() < 2) return;
    ExprList joins(scratch_);
    joins.reserve(join_slots.size());
    for (size_t i : join_slots) joins.push_back(std::move(l->operands[i]));
    const auto build_rows = [](const ExprPtr& e) {
      return static_cast<const HashJoinExpr*>(e.get())->est_build_rows;
    };
    bool reordered = false;
    for (size_t i = 1; i < joins.size(); ++i) {
      if (build_rows(joins[i]) < build_rows(joins[i - 1])) reordered = true;
    }
    std::stable_sort(joins.begin(), joins.end(),
                     [&](const ExprPtr& a, const ExprPtr& b) {
                       return build_rows(a) < build_rows(b);
                     });
    for (size_t i = 0; i < join_slots.size(); ++i) {
      l->operands[join_slots[i]] = std::move(joins[i]);
    }
    if (reordered && stats_ != nullptr) ++stats_->cost_join_reorders;
  }

  void StampJoinEstimates(Expr* e) {
    switch (e->kind) {
      case ExprKind::kLogical:
        for (ExprPtr& op : static_cast<LogicalExpr*>(e)->operands) {
          StampJoinEstimates(op.get());
        }
        return;
      case ExprKind::kNot:
        StampJoinEstimates(static_cast<NotExpr*>(e)->operand.get());
        return;
      case ExprKind::kHashJoin: {
        auto* j = static_cast<HashJoinExpr*>(e);
        // Correlations were stripped into the keys, so no escaping
        // conjuncts remain in the build's WHERE.
        j->est_build_rows = EstimateSelectRows(
            *j->build, tables_, *catalog_, /*skip_escaping=*/false, scratch_);
        return;
      }
      default:
        return;
    }
  }

  TableSlots tables_;  // the planning database's
  StatementArena* arena_;  // where rewrite nodes are placed
  ExecStats* stats_;
  const StatsCatalog* catalog_;  // null = pure rule-based planning
  std::pmr::memory_resource* scratch_;  // temporaries
  std::pmr::vector<const SelectStmt*> path_;  // enclosing selects, innermost last
  uint32_t hash_joins_ = 0;
};

}  // namespace

void PlanSelect(SelectStmt* stmt, TableSlots tables, StatementArena* arena,
                ExecStats* stats, const StatsCatalog* catalog,
                std::pmr::memory_resource* scratch) {
  Planner planner(tables, arena, stats, catalog, scratch);
  planner.Plan(stmt);
  stmt->hash_joins = planner.hash_joins();
}

namespace {

/// What AnnotateOne needs besides the statement.
struct Annotation {
  TableSlots tables;      // the planning database's
  StatementArena* arena;  // where slot plans are placed
  const StatsCatalog* catalog;
  ExecStats* stats;
  std::pmr::memory_resource* scratch;  // temporaries
};

void AnnotateExpr(const Expr& e, const Annotation& a);
void AnnotateNested(const SelectStmt& stmt, const Annotation& a);

/// An equality conjunct usable for an index lookup when positioning FROM
/// slot `slot`: a column of that slot equated with an expression whose
/// inputs are already available.
struct IndexableEquality {
  size_t column_ordinal;
  const Expr* key_expr;
};

/// True when every column reference in `e` is available before `slot` is
/// assigned: either an outer-scope reference (level > 0) or an earlier slot
/// of the current FROM list. Subqueries are conservatively unavailable.
bool RefsAvailableForSlot(const Expr& e, size_t slot) {
  if (e.kind == ExprKind::kColumnRef) {
    const auto& ref = static_cast<const ColumnRefExpr&>(e);
    return ref.level > 0 || ref.table_slot < slot;
  }
  // Conservatively, no probe key is taken from IN, LIKE or an aggregate.
  if (e.kind == ExprKind::kInList || e.kind == ExprKind::kLike ||
      e.kind == ExprKind::kAggregate || SubqueryOf(e) != nullptr) {
    return false;
  }
  return !AnyChild(e, [slot](const Expr& c) {
    return !RefsAvailableForSlot(c, slot);
  });
}

/// Appends the indexable equalities for `slot` of a bound WHERE clause to
/// `out` (its temporaries use `out`'s memory resource).
void CollectIndexableEqualities(const Expr* where, size_t slot,
                                std::pmr::vector<IndexableEquality>* out) {
  if (where == nullptr) return;
  ExprViewList conjuncts(out->get_allocator());
  FlattenAndView(where, &conjuncts);
  for (const Expr* c : conjuncts) {
    if (c->kind != ExprKind::kComparison) continue;
    const auto* cmp = static_cast<const ComparisonExpr*>(c);
    if (cmp->op != CompareOp::kEq) continue;
    const Expr* sides[2] = {cmp->left.get(), cmp->right.get()};
    for (int i = 0; i < 2; ++i) {
      const Expr* col_side = sides[i];
      const Expr* val_side = sides[1 - i];
      if (col_side->kind != ExprKind::kColumnRef) continue;
      const auto* ref = static_cast<const ColumnRefExpr*>(col_side);
      if (ref->level != 0 || ref->table_slot != slot) continue;
      if (!RefsAvailableForSlot(*val_side, slot)) continue;
      out->push_back(IndexableEquality{ref->column_ordinal, val_side});
      break;
    }
  }
}

/// `index`'s position in `table`'s index list: what a SlotPlan records.
int32_t IndexOrdinal(const Table& table, const Index* index) {
  const auto& indexes = table.indexes();
  for (size_t i = 0; i < indexes.size(); ++i) {
    if (indexes[i].get() == index) return static_cast<int32_t>(i);
  }
  return SlotPlan::kSeqScan;
}

/// Resolves the access path of every FROM slot of `stmt`: the index
/// FindIndexCovering picks over the slot's indexable equalities, and the
/// probe key for each of its columns. With a catalog, each slot is
/// additionally costed: estimated rows are stamped for EXPLAIN, and a
/// syntactically chosen index whose key is so unselective that the lookup
/// would return most of the table (low-NDV column) is overridden back to a
/// sequential scan.
void AnnotateOne(SelectStmt* stmt, const Annotation& a) {
  stmt->slot_plans = a.arena->NewArray<SlotPlan>(stmt->from.size());
  for (size_t slot = 0; slot < stmt->from.size(); ++slot) {
    SlotPlan& sp = stmt->slot_plans[slot];
    const Table* table = &a.tables[stmt->from[slot].table];
    const Index* index = nullptr;
    std::pmr::vector<IndexableEquality> equalities(a.scratch);
    CollectIndexableEqualities(stmt->where.get(), slot, &equalities);
    if (!equalities.empty()) {
      std::pmr::vector<size_t> available(a.scratch);
      available.reserve(equalities.size());
      for (const IndexableEquality& eq : equalities) {
        available.push_back(eq.column_ordinal);
      }
      index = table->FindIndexCovering(available);
    }
    if (a.catalog != nullptr) {
      const double table_rows = a.catalog->EstimatedRows(table);
      if (index == nullptr) {
        sp.est_rows = table_rows;
      } else {
        double key_sel = 1.0;
        for (size_t ord : index->column_ordinals()) {
          key_sel *= EqSelectivity(*table, ord, *a.catalog);
        }
        // Index vs seq: a lookup expected to return around half the table
        // buys nothing over scanning it (and pays key evaluation plus
        // id-list chasing per loop). The threshold sits below the nominal
        // 1/2 so the HLL's estimate of a two-value column (NDV slightly
        // above 2 => selectivity slightly below 0.5) still trips it. Tiny
        // tables are left alone — either plan touches a handful of rows.
        if (key_sel >= 0.45 && table_rows >= 4.0) {
          index = nullptr;
          sp.seq_forced = true;
          sp.est_rows = table_rows;
          if (a.stats != nullptr) ++a.stats->cost_seq_forced;
        } else {
          sp.est_rows = table_rows * key_sel;
        }
      }
    }
    // Probe keys only for the index that survived the cost check.
    if (index != nullptr) {
      sp.index = IndexOrdinal(*table, index);
      const std::vector<size_t>& ordinals = index->column_ordinals();
      sp.key_exprs = a.arena->NewArray<const Expr*>(ordinals.size());
      for (size_t k = 0; k < ordinals.size(); ++k) {
        for (const IndexableEquality& eq : equalities) {
          if (eq.column_ordinal == ordinals[k]) {
            sp.key_exprs[k] = eq.key_expr;
            break;
          }
        }
      }
    }
  }
  AnnotateNested(*stmt, a);
}

/// Annotates every SELECT nested in `stmt`'s clauses, not `stmt` itself.
void AnnotateNested(const SelectStmt& stmt, const Annotation& a) {
  ForEachClause(stmt, [&a](const Expr& e) { AnnotateExpr(e, a); });
}

void AnnotateExpr(const Expr& e, const Annotation& a) {
  if (SelectStmt* sub = SubqueryOf(e)) AnnotateOne(sub, a);
  ForEachChild(e, [&a](const Expr& c) { AnnotateExpr(c, a); });
}

}  // namespace

void AnnotateSelect(SelectStmt* stmt, TableSlots tables, StatementArena* arena,
                    const StatsCatalog* catalog, ExecStats* stats,
                    std::pmr::memory_resource* scratch) {
  AnnotateOne(stmt, Annotation{tables, arena, catalog, stats, scratch});
}

void AnnotateSubqueries(const SelectStmt& stmt, TableSlots tables,
                        StatementArena* arena, const StatsCatalog* catalog,
                        ExecStats* stats) {
  AnnotateNested(stmt, Annotation{tables, arena, catalog, stats,
                                  std::pmr::get_default_resource()});
}

}  // namespace p3pdb::sqldb
