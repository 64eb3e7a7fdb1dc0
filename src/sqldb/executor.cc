#include "sqldb/executor.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "common/stopwatch.h"
#include "sqldb/binder.h"

namespace p3pdb::sqldb {

PlanRuntime::PlanRuntime(size_t hash_joins, StatementStatsEntry* stats_entry)
    : hash_joins_(hash_joins), stats_entry_(stats_entry) {
  for (size_t i = 0; i < hash_joins_; ++i) {
    ::new (joins() + i) HashJoinRuntime();
  }
}

PlanRuntime::~PlanRuntime() {
  for (size_t i = 0; i < hash_joins_; ++i) joins()[i].~HashJoinRuntime();
}

PlanRuntime* PlanRuntime::New(size_t hash_joins,
                              StatementStatsEntry* stats_entry) {
  return ::new (::operator new(Bytes(hash_joins)))
      PlanRuntime(hash_joins, stats_entry);
}

void PlanRuntime::Delete(PlanRuntime* runtime) {
  runtime->~PlanRuntime();
  ::operator delete(runtime);
}

const PlanNodeStats* PlanProfile::FindSelect(const SelectStmt* stmt) const {
  auto it = selects_.find(stmt);
  return it == selects_.end() ? nullptr : &it->second;
}

const PlanNodeStats* PlanProfile::FindScan(const SelectStmt* stmt,
                                           size_t slot) const {
  auto it = scans_.find({stmt, slot});
  return it == scans_.end() ? nullptr : &it->second;
}

const PlanNodeStats* PlanProfile::FindHashJoin(const Expr* join) const {
  auto it = hash_joins_.find(join);
  return it == hash_joins_.end() ? nullptr : &it->second;
}

namespace {

/// A probe key's values and the non-owning view over them: on the stack up
/// to kInlineKeyCols columns, on the heap past that. Index and key-set
/// probes run once per outer row on the match path, and an owned key would
/// allocate every time.
class ProbeKey {
 public:
  explicit ProbeKey(size_t columns) {
    if (columns > kInlineKeyCols) {
      spill_vals_.resize(columns);
      spill_ptrs_.resize(columns);
      vals_ = spill_vals_.data();
      ptrs_ = spill_ptrs_.data();
    }
  }
  ProbeKey(const ProbeKey&) = delete;
  ProbeKey& operator=(const ProbeKey&) = delete;

  /// Column `i`'s value, which the view then points at.
  Value& operator[](size_t i) {
    ptrs_[i] = &vals_[i];
    return vals_[i];
  }
  /// The view over columns [0, columns).
  IndexKeyView view(size_t columns) const { return {ptrs_, columns}; }

 private:
  static constexpr size_t kInlineKeyCols = 8;
  Value inline_vals_[kInlineKeyCols];
  const Value* inline_ptrs_[kInlineKeyCols];
  std::vector<Value> spill_vals_;
  std::vector<const Value*> spill_ptrs_;
  Value* vals_ = inline_vals_;
  const Value** ptrs_ = inline_ptrs_;
};

Result<Value> ThreeValuedNot(const Value& v) {
  if (v.is_null()) return Value::Null();
  if (v.type() != ValueType::kBoolean) {
    return Status::InvalidArgument("NOT applied to non-boolean");
  }
  return Value::Boolean(!v.AsBoolean());
}

}  // namespace

bool SqlLikeMatch(std::string_view text, std::string_view pattern,
                  char escape_char) {
  // Compile the pattern into tokens so escapes become plain literals, then
  // run the classic two-pointer wildcard match with backtracking on '%'.
  enum class TokKind { kLiteral, kAnyRun, kAnyOne };
  struct Tok {
    TokKind kind;
    char c;
  };
  std::vector<Tok> toks;
  toks.reserve(pattern.size());
  for (size_t i = 0; i < pattern.size(); ++i) {
    char c = pattern[i];
    if (escape_char != '\0' && c == escape_char && i + 1 < pattern.size()) {
      toks.push_back({TokKind::kLiteral, pattern[++i]});
    } else if (c == '%') {
      toks.push_back({TokKind::kAnyRun, c});
    } else if (c == '_') {
      toks.push_back({TokKind::kAnyOne, c});
    } else {
      toks.push_back({TokKind::kLiteral, c});
    }
  }

  size_t ti = 0, pi = 0;
  size_t star_pi = std::string_view::npos, star_ti = 0;
  while (ti < text.size()) {
    if (pi < toks.size() && (toks[pi].kind == TokKind::kAnyOne ||
                             (toks[pi].kind == TokKind::kLiteral &&
                              toks[pi].c == text[ti]))) {
      ++ti;
      ++pi;
    } else if (pi < toks.size() && toks[pi].kind == TokKind::kAnyRun) {
      star_pi = pi++;
      star_ti = ti;
    } else if (star_pi != std::string_view::npos) {
      pi = star_pi + 1;
      ti = ++star_ti;
    } else {
      return false;
    }
  }
  while (pi < toks.size() && toks[pi].kind == TokKind::kAnyRun) ++pi;
  return pi == toks.size();
}

Result<Value> Executor::EvalConstant(const Expr& expr) {
  ScopeStack empty;
  return Eval(expr, empty);
}

Result<bool> Executor::EvalRowPredicate(const SelectStmt& stmt,
                                        RowView row) {
  if (stmt.where == nullptr) return true;
  Scope scope;
  scope.stmt = &stmt;
  scope.Reset(stmt.from.size());
  scope.rows[0] = row.data();
  ScopeStack stack;
  stack.push_back(&scope);
  return EvalFilter(*stmt.where, stack);
}

Result<Value> Executor::EvalRowExpression(const SelectStmt& stmt,
                                          RowView row, const Expr& expr) {
  Scope scope;
  scope.stmt = &stmt;
  scope.Reset(stmt.from.size());
  scope.rows[0] = row.data();
  ScopeStack stack;
  stack.push_back(&scope);
  return Eval(expr, stack);
}

Result<Value> Executor::Eval(const Expr& expr, ScopeStack& stack) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(expr).value.Borrow();
    case ExprKind::kParam: {
      const auto& param = static_cast<const ParamExpr&>(expr);
      if (params_ == nullptr || param.index >= params_->size()) {
        return Status::InvalidArgument(
            "unbound parameter: statement uses '?' placeholder " +
            std::to_string(param.index + 1) + " but " +
            std::to_string(params_ == nullptr ? 0 : params_->size()) +
            " value(s) were supplied");
      }
      return (*params_)[param.index].Borrow();
    }
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      if (ref.level < 0 ||
          static_cast<size_t>(ref.level) >= stack.size()) {
        return Status::Internal("unbound column reference '" + ref.ToSql() +
                                "'");
      }
      const Scope* scope = stack[stack.size() - 1 - ref.level];
      const Value* row = scope->rows[ref.table_slot];
      if (row == nullptr) {
        return Status::Internal("column '" + ref.ToSql() +
                                "' read before its table was positioned");
      }
      return row[ref.column_ordinal].Borrow();
    }
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(expr);
      P3PDB_ASSIGN_OR_RETURN(Value left, Eval(*cmp.left, stack));
      P3PDB_ASSIGN_OR_RETURN(Value right, Eval(*cmp.right, stack));
      ++stats_->comparisons;
      switch (cmp.op) {
        case CompareOp::kEq:
          return Value::CompareEq(left, right);
        case CompareOp::kNe: {
          P3PDB_ASSIGN_OR_RETURN(Value eq, Value::CompareEq(left, right));
          return ThreeValuedNot(eq);
        }
        case CompareOp::kLt:
          return Value::CompareLt(left, right);
        case CompareOp::kGt:
          return Value::CompareLt(right, left);
        case CompareOp::kLe: {
          P3PDB_ASSIGN_OR_RETURN(Value gt, Value::CompareLt(right, left));
          return ThreeValuedNot(gt);
        }
        case CompareOp::kGe: {
          P3PDB_ASSIGN_OR_RETURN(Value lt, Value::CompareLt(left, right));
          return ThreeValuedNot(lt);
        }
      }
      return Status::Internal("bad comparison op");
    }
    case ExprKind::kLogical: {
      const auto& l = static_cast<const LogicalExpr&>(expr);
      bool saw_null = false;
      for (const ExprPtr& op : l.operands) {
        P3PDB_ASSIGN_OR_RETURN(Value v, Eval(*op, stack));
        if (v.is_null()) {
          saw_null = true;
          continue;
        }
        if (v.type() != ValueType::kBoolean) {
          return Status::InvalidArgument(
              "logical operand is not a boolean: " + op->ToSql());
        }
        if (l.is_and && !v.AsBoolean()) return Value::Boolean(false);
        if (!l.is_and && v.AsBoolean()) return Value::Boolean(true);
      }
      if (saw_null) return Value::Null();
      return Value::Boolean(l.is_and);
    }
    case ExprKind::kNot: {
      const auto& n = static_cast<const NotExpr&>(expr);
      P3PDB_ASSIGN_OR_RETURN(Value v, Eval(*n.operand, stack));
      return ThreeValuedNot(v);
    }
    case ExprKind::kExists: {
      const auto& e = static_cast<const ExistsExpr&>(expr);
      P3PDB_ASSIGN_OR_RETURN(bool found, ExistsAnyRow(*e.subquery, stack));
      return Value::Boolean(e.negated ? !found : found);
    }
    case ExprKind::kHashJoin:
      return EvalHashJoin(static_cast<const HashJoinExpr&>(expr), stack);
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      P3PDB_ASSIGN_OR_RETURN(Value v, Eval(*in.operand, stack));
      bool saw_null = false;
      bool found = false;
      for (const ExprPtr& item : in.items) {
        P3PDB_ASSIGN_OR_RETURN(Value iv, Eval(*item, stack));
        P3PDB_ASSIGN_OR_RETURN(Value eq, Value::CompareEq(v, iv));
        ++stats_->comparisons;
        if (eq.is_null()) {
          saw_null = true;
        } else if (eq.AsBoolean()) {
          found = true;
          break;
        }
      }
      Value result = found           ? Value::Boolean(true)
                     : saw_null      ? Value::Null()
                                     : Value::Boolean(false);
      if (in.negated) return ThreeValuedNot(result);
      return result;
    }
    case ExprKind::kIsNull: {
      const auto& isn = static_cast<const IsNullExpr&>(expr);
      P3PDB_ASSIGN_OR_RETURN(Value v, Eval(*isn.operand, stack));
      bool is_null = v.is_null();
      return Value::Boolean(isn.negated ? !is_null : is_null);
    }
    case ExprKind::kLike: {
      const auto& lk = static_cast<const LikeExpr&>(expr);
      P3PDB_ASSIGN_OR_RETURN(Value text, Eval(*lk.operand, stack));
      P3PDB_ASSIGN_OR_RETURN(Value pattern, Eval(*lk.pattern, stack));
      if (text.is_null() || pattern.is_null()) return Value::Null();
      if (text.type() != ValueType::kText ||
          pattern.type() != ValueType::kText) {
        return Status::InvalidArgument("LIKE requires text operands");
      }
      ++stats_->comparisons;
      bool matched =
          SqlLikeMatch(text.AsText(), pattern.AsText(), lk.escape_char);
      return Value::Boolean(lk.negated ? !matched : matched);
    }
    case ExprKind::kAggregate:
      return Status::Internal(
          "aggregate evaluated outside aggregation context");
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> Executor::EvalFilter(const Expr& expr, ScopeStack& stack) {
  P3PDB_ASSIGN_OR_RETURN(Value v, Eval(expr, stack));
  if (v.is_null()) return false;
  if (v.type() != ValueType::kBoolean) {
    return Status::InvalidArgument("WHERE clause is not a boolean");
  }
  return v.AsBoolean();
}

Result<bool> Executor::ExistsAnyRow(const SelectStmt& sub, ScopeStack& stack) {
  ++stats_->subquery_evals;
  PlanNodeStats* node = nullptr;
  std::chrono::steady_clock::time_point profile_start{};
  if (profile_ != nullptr) {
    node = profile_->Select(&sub);
    ++node->loops;
    profile_start = std::chrono::steady_clock::now();
  }
  Scope scope;
  scope.stmt = &sub;
  scope.Reset(sub.from.size());
  stack.push_back(&scope);
  bool found = false;
  bool stopped = false;
  Status st = EnumerateRows(
      sub, stack, scope, 0,
      [&]() -> Result<bool> {
        found = true;
        return true;  // stop at first row
      },
      &stopped);
  stack.pop_back();
  if (node != nullptr) {
    node->elapsed_us += std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - profile_start)
                            .count();
    if (found) ++node->rows;
  }
  if (!st.ok()) return st;
  return found;
}

Result<Value> Executor::EvalHashJoin(const HashJoinExpr& join,
                                     ScopeStack& stack) {
  PlanNodeStats* node = nullptr;
  std::chrono::steady_clock::time_point profile_start{};
  if (profile_ != nullptr) {
    node = profile_->HashJoin(&join);
    ++node->loops;  // loops = probes
    profile_start = std::chrono::steady_clock::now();
  }
  // Evaluate the probe key in the enclosing scope first: a NULL component
  // can never equal anything, so the subquery's correlation equality is
  // UNKNOWN for every inner row — EXISTS is false, NOT EXISTS is true —
  // without needing the key set at all.
  ProbeKey key(join.probe_keys.size());
  size_t nk = 0;
  bool null_key = false;
  for (const ExprPtr& pk : join.probe_keys) {
    P3PDB_ASSIGN_OR_RETURN(key[nk], Eval(*pk, stack));
    if (key[nk].is_null()) {
      null_key = true;
      break;
    }
    ++nk;
  }
  bool found = false;
  if (!null_key) {
    P3PDB_ASSIGN_OR_RETURN(const HashJoinRuntime::KeySet* keys,
                           MemoKeySet(join));
    found = keys->find(key.view(nk)) != keys->end();
  }
  ++stats_->hash_join_probes;
  if (node != nullptr) {
    node->elapsed_us += std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - profile_start)
                            .count();
    if (found) ++node->rows;  // rows = probe hits
  }
  return Value::Boolean(join.anti ? !found : found);
}

Result<std::shared_ptr<const HashJoinRuntime::KeySet>> Executor::HashJoinKeySet(
    const HashJoinExpr& join) {
  uint64_t version = 0;
  for (CatalogSlot t : join.dep_tables) version += tables_[t].version();
  HashJoinRuntime& rt = runtime_->join(join.ordinal);
  std::lock_guard<std::mutex> lock(rt.mu);
  if (rt.keys != nullptr && rt.built_at_version == version) {
    return std::shared_ptr<const HashJoinRuntime::KeySet>(rt.keys);
  }

  // (Re)build. The planner guarantees the build side references nothing
  // outside itself, so it enumerates under a fresh scope stack — which also
  // means the resulting set is independent of the probing context and safe
  // to cache. Building under the runtime mutex serializes concurrent
  // first-probers; all later executions take the cached branch above.
  const SelectStmt& build = *join.build;
  PlanNodeStats* node = nullptr;
  if (profile_ != nullptr) {
    node = profile_->Select(&build);
    ++node->loops;
  }
  Stopwatch sw;
  auto keys = std::make_shared<HashJoinRuntime::KeySet>();
  Scope scope;
  scope.stmt = &build;
  scope.Reset(build.from.size());
  ScopeStack build_stack;
  build_stack.push_back(&scope);
  uint64_t build_rows = 0;
  bool stopped = false;
  Status st = EnumerateRows(
      build, build_stack, scope, 0,
      [&]() -> Result<bool> {
        ++build_rows;
        IndexKey k;
        k.values.reserve(join.build_keys.size());
        bool has_null = false;
        for (const auto& bk : join.build_keys) {
          P3PDB_ASSIGN_OR_RETURN(Value v, Eval(*bk, build_stack));
          if (v.is_null()) {
            has_null = true;  // NULL keys can never match a probe
            break;
          }
          k.values.push_back(std::move(v));
        }
        if (!has_null) keys->insert(std::move(k));
        return false;  // enumerate every row
      },
      &stopped);
  if (node != nullptr) {
    node->elapsed_us += sw.ElapsedMicros();
    node->rows += build_rows;
  }
  P3PDB_RETURN_IF_ERROR(st);
  ++stats_->hash_join_builds;
  stats_->hash_join_build_rows += build_rows;
  rt.keys = keys;
  rt.built_at_version = version;
  return std::shared_ptr<const HashJoinRuntime::KeySet>(std::move(keys));
}

Result<const HashJoinRuntime::KeySet*> Executor::MemoKeySet(
    const HashJoinExpr& join) {
  for (const KeySetMemoEntry& e : keyset_memo_) {
    if (e.join == &join) return e.keys.get();
  }
  P3PDB_ASSIGN_OR_RETURN(std::shared_ptr<const HashJoinRuntime::KeySet> keys,
                         HashJoinKeySet(join));
  KeySetMemoEntry& slot = keyset_memo_[keyset_memo_next_];
  keyset_memo_next_ = (keyset_memo_next_ + 1) % kKeySetMemoSlots;
  slot.join = &join;
  slot.keys = std::move(keys);
  return slot.keys.get();
}

Status Executor::ScanSlot(const SelectStmt& stmt, ScopeStack& stack,
                          Scope& scope, size_t slot, const RowCallback& on_row,
                          bool* stopped, PlanNodeStats* node) {
  const Table* table = &tables_[stmt.from[slot].table];
  const SlotPlan& sp = stmt.slot_plans[slot];

  // Row at a time. The WHERE is applied once the innermost slot is
  // positioned (EnumerateRows' terminal case), so an EXISTS consumer stops
  // on its first qualifying row.
  auto visit = [&](size_t row_id) -> Status {
    if (!table->IsLive(row_id)) return Status::OK();
    ++stats_->rows_scanned;
    if (node != nullptr) ++node->rows;
    scope.rows[slot] = table->RowAt(row_id).data();
    return EnumerateRows(stmt, stack, scope, slot + 1, on_row, stopped);
  };

  // Access path from the plan annotation.
  if (sp.has_index()) {
    const Index& index = *table->indexes()[sp.index];
    ++stats_->index_lookups;
    const size_t nk = sp.key_exprs.size();
    ProbeKey key(nk);
    for (size_t i = 0; i < nk; ++i) {
      P3PDB_ASSIGN_OR_RETURN(key[i], Eval(*sp.key_exprs[i], stack));
    }
    for (size_t row_id : index.Lookup(key.view(nk))) {
      P3PDB_RETURN_IF_ERROR(visit(row_id));
      if (*stopped) break;
    }
  } else {
    ++stats_->full_scans;
    for (size_t row_id = 0; row_id < table->SlotCount(); ++row_id) {
      P3PDB_RETURN_IF_ERROR(visit(row_id));
      if (*stopped) break;
    }
  }
  scope.rows[slot] = nullptr;
  return Status::OK();
}

Status Executor::EnumerateRows(
    const SelectStmt& stmt, ScopeStack& stack, Scope& scope, size_t slot,
    const RowCallback& on_row, bool* stopped) {
  if (*stopped) return Status::OK();
  if (slot == stmt.from.size()) {
    if (stmt.where != nullptr) {
      P3PDB_ASSIGN_OR_RETURN(bool pass, EvalFilter(*stmt.where, stack));
      if (!pass) return Status::OK();
    }
    P3PDB_ASSIGN_OR_RETURN(bool stop, on_row());
    if (stop) *stopped = true;
    return Status::OK();
  }
  if (profile_ == nullptr) {
    return ScanSlot(stmt, stack, scope, slot, on_row, stopped, nullptr);
  }
  PlanNodeStats* node = profile_->Scan(&stmt, slot);
  ++node->loops;
  Stopwatch sw;
  Status st = ScanSlot(stmt, stack, scope, slot, on_row, stopped, node);
  node->elapsed_us += sw.ElapsedMicros();
  return st;
}

Result<QueryResult> Executor::RunSelect(const SelectStmt& stmt) {
  ScopeStack stack;
  if (profile_ == nullptr) {
    if (stmt.aggregate_mode) return RunAggregateSelect(stmt, stack);
    return RunPlainSelect(stmt, stack);
  }
  PlanNodeStats* node = profile_->Select(&stmt);
  ++node->loops;
  Stopwatch sw;
  auto result = stmt.aggregate_mode ? RunAggregateSelect(stmt, stack)
                                    : RunPlainSelect(stmt, stack);
  node->elapsed_us += sw.ElapsedMicros();
  if (result.ok()) node->rows += result.value().rows.size();
  return result;
}

namespace {

/// Column header for a select item.
std::string ItemColumnName(const SelectItem& item) {
  if (!item.alias.empty()) return std::string(item.alias);
  if (item.expr->kind == ExprKind::kColumnRef) {
    return std::string(
        static_cast<const ColumnRefExpr*>(item.expr.get())->column_name);
  }
  return item.expr->ToSql();
}

std::string RowKey(const Row& row) {
  std::string key;
  for (const Value& v : row) {
    key += v.ToString();
    key.push_back('\x1f');
  }
  return key;
}

}  // namespace

Status Executor::ApplyDistinctOrderLimit(const SelectStmt& stmt,
                                         QueryResult* result,
                                         const std::vector<Row>& order_keys) {
  if (stmt.distinct) {
    std::set<std::string> seen;
    std::vector<Row> rows;
    std::vector<Row> keys;
    for (size_t i = 0; i < result->rows.size(); ++i) {
      std::string key = RowKey(result->rows[i]);
      if (seen.insert(std::move(key)).second) {
        rows.push_back(std::move(result->rows[i]));
        if (!order_keys.empty()) keys.push_back(order_keys[i]);
      }
    }
    result->rows = std::move(rows);
    if (!stmt.order_by.empty()) {
      return SortAndLimit(stmt, result, keys);
    }
  } else if (!stmt.order_by.empty()) {
    return SortAndLimit(stmt, result, order_keys);
  }
  if (stmt.limit.has_value() &&
      result->rows.size() > static_cast<size_t>(*stmt.limit)) {
    result->rows.resize(static_cast<size_t>(*stmt.limit));
  }
  return Status::OK();
}

Result<QueryResult> Executor::RunPlainSelect(const SelectStmt& stmt,
                                             ScopeStack& stack) {
  ++stats_->statements_executed;
  QueryResult result;
  result.columns.Borrow(*stmt.column_headers);

  Scope scope;
  scope.stmt = &stmt;
  scope.Reset(stmt.from.size());
  stack.push_back(&scope);

  std::vector<Row> order_keys;
  bool stopped = false;
  Status st = EnumerateRows(
      stmt, stack, scope, 0,
      [&]() -> Result<bool> {
        Row out;
        for (const SelectItem& item : stmt.items) {
          if (item.is_star) {
            for (size_t slot = 0; slot < stmt.from.size(); ++slot) {
              const Value* row = scope.rows[slot];
              out.insert(out.end(), row,
                         row + tables_[stmt.from[slot].table]
                                   .schema()
                                   .ColumnCount());
            }
          } else {
            P3PDB_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, stack));
            v.Own();  // the result outlives the rows it was read from
            out.push_back(std::move(v));
          }
        }
        if (!stmt.order_by.empty()) {
          Row keys;
          for (const OrderByItem& ob : stmt.order_by) {
            if (ob.output_column != OrderByItem::kEvaluate) {
              keys.push_back(out[static_cast<size_t>(ob.output_column)]);
              continue;
            }
            P3PDB_ASSIGN_OR_RETURN(Value v, Eval(*ob.expr, stack));
            keys.push_back(std::move(v));
          }
          order_keys.push_back(std::move(keys));
        }
        result.rows.push_back(std::move(out));
        return false;
      },
      &stopped);
  stack.pop_back();
  P3PDB_RETURN_IF_ERROR(st);

  P3PDB_RETURN_IF_ERROR(ApplyDistinctOrderLimit(stmt, &result, order_keys));
  return result;
}

namespace {

struct AggState {
  int64_t count = 0;
  int64_t sum = 0;
  bool sum_valid = false;
  Value min = Value::Null();
  Value max = Value::Null();
};

}  // namespace

Result<QueryResult> Executor::RunAggregateSelect(const SelectStmt& stmt,
                                                 ScopeStack& stack) {
  ++stats_->statements_executed;
  QueryResult result;
  result.columns.Borrow(*stmt.column_headers);

  // Classify select items: each must be either exactly an aggregate call or
  // aggregate-free (the binder verified the latter match GROUP BY).
  std::vector<const AggregateExpr*> agg_exprs;
  for (const SelectItem& item : stmt.items) {
    if (item.expr->kind == ExprKind::kAggregate) {
      agg_exprs.push_back(static_cast<const AggregateExpr*>(item.expr.get()));
    } else if (ContainsAggregate(*item.expr)) {
      return Status::Unsupported(
          "select items must be plain aggregates or grouping columns");
    } else {
      agg_exprs.push_back(nullptr);
    }
  }

  Scope scope;
  scope.stmt = &stmt;
  scope.Reset(stmt.from.size());
  stack.push_back(&scope);

  struct Group {
    Row group_values;          // values of GROUP BY expressions
    Row item_values;           // grouping-item values aligned with items
    std::vector<AggState> aggs;  // one per select item (unused for grouping)
  };
  std::map<std::string, Group> groups;

  bool stopped = false;
  Status st = EnumerateRows(
      stmt, stack, scope, 0,
      [&]() -> Result<bool> {
        Row group_values;
        for (const ExprPtr& g : stmt.group_by) {
          P3PDB_ASSIGN_OR_RETURN(Value v, Eval(*g, stack));
          group_values.push_back(std::move(v));
        }
        std::string key = RowKey(group_values);
        auto [it, inserted] = groups.try_emplace(std::move(key));
        Group& group = it->second;
        if (inserted) {
          group.group_values = std::move(group_values);
          group.aggs.resize(stmt.items.size());
          group.item_values.resize(stmt.items.size());
          for (size_t i = 0; i < stmt.items.size(); ++i) {
            if (agg_exprs[i] == nullptr) {
              P3PDB_ASSIGN_OR_RETURN(Value v,
                                     Eval(*stmt.items[i].expr, stack));
              group.item_values[i] = std::move(v);
            }
          }
        }
        for (size_t i = 0; i < stmt.items.size(); ++i) {
          const AggregateExpr* agg = agg_exprs[i];
          if (agg == nullptr) continue;
          AggState& state = group.aggs[i];
          if (agg->func == AggFunc::kCountStar) {
            ++state.count;
            continue;
          }
          P3PDB_ASSIGN_OR_RETURN(Value v, Eval(*agg->arg, stack));
          if (v.is_null()) continue;
          ++state.count;
          switch (agg->func) {
            case AggFunc::kSum:
              if (v.type() != ValueType::kInteger) {
                return Status::InvalidArgument("SUM requires integers");
              }
              state.sum += v.AsInteger();
              state.sum_valid = true;
              break;
            case AggFunc::kMin:
              if (state.min.is_null() ||
                  Value::OrderCompare(v, state.min) < 0) {
                state.min = v;
              }
              break;
            case AggFunc::kMax:
              if (state.max.is_null() ||
                  Value::OrderCompare(v, state.max) > 0) {
                state.max = v;
              }
              break;
            default:
              break;
          }
        }
        return false;
      },
      &stopped);
  stack.pop_back();
  P3PDB_RETURN_IF_ERROR(st);

  // With no GROUP BY, aggregates over an empty input still produce one row.
  if (groups.empty() && stmt.group_by.empty()) {
    Group empty_group;
    empty_group.aggs.resize(stmt.items.size());
    empty_group.item_values.resize(stmt.items.size());
    groups.emplace("", std::move(empty_group));
  }

  std::vector<Row> order_keys;
  for (auto& [key, group] : groups) {
    Row out;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const AggregateExpr* agg = agg_exprs[i];
      if (agg == nullptr) {
        out.push_back(group.item_values[i]);
        continue;
      }
      switch (agg->func) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
          out.push_back(Value::Integer(group.aggs[i].count));
          break;
        case AggFunc::kSum:
          out.push_back(group.aggs[i].sum_valid
                            ? Value::Integer(group.aggs[i].sum)
                            : Value::Null());
          break;
        case AggFunc::kMin:
          out.push_back(group.aggs[i].min);
          break;
        case AggFunc::kMax:
          out.push_back(group.aggs[i].max);
          break;
      }
    }
    // Order keys: the binder resolved every item to a result column (row
    // context is gone by aggregation time).
    if (!stmt.order_by.empty()) {
      Row keys;
      for (const OrderByItem& ob : stmt.order_by) {
        keys.push_back(out[static_cast<size_t>(ob.output_column)]);
      }
      order_keys.push_back(std::move(keys));
    }
    result.rows.push_back(std::move(out));
  }

  P3PDB_RETURN_IF_ERROR(ApplyDistinctOrderLimit(stmt, &result, order_keys));
  return result;
}

Status Executor::SortAndLimit(const SelectStmt& stmt, QueryResult* result,
                              const std::vector<Row>& order_keys) {
  std::vector<size_t> order(result->rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Row& ka = order_keys[a];
    const Row& kb = order_keys[b];
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      int c = Value::OrderCompare(ka[i], kb[i]);
      if (c != 0) return stmt.order_by[i].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  std::vector<Row> sorted;
  sorted.reserve(result->rows.size());
  for (size_t i : order) sorted.push_back(std::move(result->rows[i]));
  result->rows = std::move(sorted);
  if (stmt.limit.has_value() &&
      result->rows.size() > static_cast<size_t>(*stmt.limit)) {
    result->rows.resize(static_cast<size_t>(*stmt.limit));
  }
  return Status::OK();
}

void PrecomputeExecHints(SelectStmt* stmt, TableSlots tables,
                         StatementArena* arena) {
  // Both select paths borrow these; the binder rejects `*` in aggregate
  // mode, so star expansion only ever applies to plain selects.
  auto headers = std::make_shared<std::vector<std::string>>();
  headers->reserve(stmt->result_width);
  for (const SelectItem& item : stmt->items) {
    if (item.is_star) {
      for (const TableRef& tr : stmt->from) {
        for (const ColumnDef& col : tables[tr.table].schema().columns()) {
          headers->push_back(col.name);
        }
      }
    } else {
      headers->push_back(ItemColumnName(item));
    }
  }
  stmt->column_headers = arena->NewFinalized<ColumnHeaders>(std::move(headers));
}

}  // namespace p3pdb::sqldb
