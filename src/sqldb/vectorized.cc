// Executor::ScanSlot and the vectorized batch executor's chunked filter.
//
// Every scan takes its access path from the plan annotation
// (SelectStmt::slot_plans, see planner.cc:AnnotateSelect) and probes an
// index with a non-owning IndexKeyView. Outer FROM slots position one row
// at a time — that preserves the EXISTS early-out contract exactly — and so
// does every slot when ExecConfig::vectorized is off. With it on, the
// innermost slot with a WHERE clause gathers live rows into chunks of row
// pointers and evaluates the predicate with per-operator kernels over a
// selection vector, so the interpreter recursion, Result<Value> plumbing,
// and Value copies of the row loop are amortized over whole chunks:
//
//   - comparisons, IN lists, LIKE, and IS NULL run as tight loops over
//     operand "slices" (a broadcast scalar, a column of the chunk, or a
//     per-row fallback arena);
//   - AND/OR narrow the selection vector instead of short-circuiting per
//     row, evaluating exactly the operand set the scalar path would have
//     (rows drop out on FALSE for AND / TRUE for OR; NULL taints the
//     verdict but keeps the row active);
//   - hash semi/anti-join probes fetch the shared key set once per chunk
//     and probe with non-owning IndexKeyView keys (no per-probe allocation
//     or lock);
//   - anything else (correlated EXISTS, bare column predicates) falls back
//     to the scalar evaluator row by row, tallied in
//     vectorized_fallback_rows.
//
// Three-valued logic is tracked as a tri-state verdict per chunk row; only
// kTriTrue emits the row, matching EvalFilter. Chunks ramp from a small
// size up to ExecConfig::chunk_size so an early-stopping consumer (EXISTS
// over a filtered subquery) wastes little gather work.
//
// Scratch memory comes from a thread-local pool of cap-sized blocks handed
// out LIFO, so steady-state execution allocates nothing per chunk.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sqldb/executor.h"

namespace p3pdb::sqldb {

namespace {

// Tri-state predicate verdict for one chunk row.
constexpr uint8_t kTriFalse = 0;
constexpr uint8_t kTriTrue = 1;
constexpr uint8_t kTriNull = 2;

// First-chunk gather size; quadruples per chunk up to ExecConfig::chunk_size
// to bound wasted gathering when the consumer stops early.
constexpr size_t kRampStart = 32;

Status IncompatibleTypes(const Value& a, const Value& b) {
  return Status::InvalidArgument(std::string("cannot compare ") +
                                 ValueTypeName(a.type()) + " with " +
                                 ValueTypeName(b.type()));
}

}  // namespace

/// Reusable chunk-evaluation arenas. All blocks are `cap` elements long and
/// handed out LIFO via Save/Restore marks, so nested kernel evaluations
/// (AND of IN of comparisons) stack their temporaries without allocating
/// after warm-up.
struct VecScratch {
  size_t cap = 0;
  std::vector<const Row*> rows;  // the current chunk, indexed by chunk row

  std::vector<std::unique_ptr<uint32_t[]>> u32_blocks;
  std::vector<std::unique_ptr<uint8_t[]>> u8_blocks;
  std::vector<std::unique_ptr<Value[]>> value_blocks;
  size_t u32_used = 0;
  size_t u8_used = 0;
  size_t value_used = 0;

  void Reset(size_t capacity) {
    if (capacity > cap) {
      u32_blocks.clear();
      u8_blocks.clear();
      value_blocks.clear();
      cap = capacity;
    }
    if (rows.size() < cap) rows.resize(cap);
    FreeAll();
  }

  void FreeAll() { u32_used = u8_used = value_used = 0; }

  uint32_t* AllocU32() {
    if (u32_used == u32_blocks.size()) {
      u32_blocks.push_back(std::make_unique<uint32_t[]>(cap));
    }
    return u32_blocks[u32_used++].get();
  }
  uint8_t* AllocU8() {
    if (u8_used == u8_blocks.size()) {
      u8_blocks.push_back(std::make_unique<uint8_t[]>(cap));
    }
    return u8_blocks[u8_used++].get();
  }
  Value* AllocValues() {
    if (value_used == value_blocks.size()) {
      value_blocks.push_back(std::make_unique<Value[]>(cap));
    }
    return value_blocks[value_used++].get();
  }

  struct Mark {
    size_t u32;
    size_t u8;
    size_t value;
  };
  Mark Save() const { return {u32_used, u8_used, value_used}; }
  void Restore(const Mark& m) {
    u32_used = m.u32;
    u8_used = m.u8;
    value_used = m.value;
  }
};

namespace {

// Thread-local LIFO pool of scratch arenas. Nested vectorized scans (a
// correlated-EXISTS fallback re-entering the batch path) each lease their
// own arena; depth is bounded by the subquery-depth limit.
thread_local std::vector<std::unique_ptr<VecScratch>> tls_scratch_pool;

class VecScratchLease {
 public:
  explicit VecScratchLease(size_t cap) {
    if (tls_scratch_pool.empty()) {
      scratch_ = std::make_unique<VecScratch>();
    } else {
      scratch_ = std::move(tls_scratch_pool.back());
      tls_scratch_pool.pop_back();
    }
    scratch_->Reset(cap);
  }
  ~VecScratchLease() { tls_scratch_pool.push_back(std::move(scratch_)); }
  VecScratchLease(const VecScratchLease&) = delete;
  VecScratchLease& operator=(const VecScratchLease&) = delete;

  VecScratch& operator*() { return *scratch_; }

 private:
  std::unique_ptr<VecScratch> scratch_;
};

/// One operand of a chunk kernel. Either a single Value broadcast across
/// the chunk (literal, bind parameter, or a column of an already-positioned
/// outer slot), a column ordinal of the chunk's own table (read zero-copy
/// from the row pointers), or a per-row arena filled by the scalar
/// evaluator (arbitrary nested expressions).
struct OperandSlice {
  enum class Kind { kBroadcast, kColumn, kRowValues };

  Kind kind = Kind::kBroadcast;
  const Value* broadcast = nullptr;
  size_t ordinal = 0;
  const Value* arena = nullptr;  // indexed by chunk row

  const Value& At(const VecScratch& s, uint32_t row) const {
    switch (kind) {
      case Kind::kColumn:
        return (*s.rows[row])[ordinal];
      case Kind::kRowValues:
        return arena[row];
      default:
        return *broadcast;
    }
  }
};

}  // namespace

Status Executor::EvalPredicateChunk(const Expr& expr, size_t slot,
                                    ScopeStack& stack, Scope& scope,
                                    const uint32_t* active, size_t n_active,
                                    uint8_t* out, const char* nonbool_error,
                                    VecScratch& scratch) {
  // Binds one operand expression as a slice over `rows`/`n` (a subset of
  // this call's active set). Error cases reproduce the scalar evaluator's
  // messages exactly.
  auto bind = [&](const Expr& e, const uint32_t* rows, size_t n,
                  OperandSlice* s) -> Status {
    switch (e.kind) {
      case ExprKind::kLiteral:
        s->kind = OperandSlice::Kind::kBroadcast;
        s->broadcast = &static_cast<const LiteralExpr&>(e).value;
        return Status::OK();
      case ExprKind::kParam: {
        const auto& param = static_cast<const ParamExpr&>(e);
        if (params_ == nullptr || param.index >= params_->size()) {
          return Status::InvalidArgument(
              "unbound parameter: statement uses '?' placeholder " +
              std::to_string(param.index + 1) + " but " +
              std::to_string(params_ == nullptr ? 0 : params_->size()) +
              " value(s) were supplied");
        }
        s->kind = OperandSlice::Kind::kBroadcast;
        s->broadcast = &(*params_)[param.index];
        return Status::OK();
      }
      case ExprKind::kColumnRef: {
        const auto& ref = static_cast<const ColumnRefExpr&>(e);
        if (ref.level == 0 && ref.table_slot == slot) {
          s->kind = OperandSlice::Kind::kColumn;
          s->ordinal = ref.column_ordinal;
          return Status::OK();
        }
        if (ref.level < 0 || static_cast<size_t>(ref.level) >= stack.size()) {
          return Status::Internal("unbound column reference '" + ref.ToSql() +
                                  "'");
        }
        const Scope* sc = stack[stack.size() - 1 - ref.level];
        const Row* row = sc->rows[ref.table_slot];
        if (row == nullptr) {
          return Status::Internal("column '" + ref.ToSql() +
                                  "' read before its table was positioned");
        }
        s->kind = OperandSlice::Kind::kBroadcast;
        s->broadcast = &(*row)[ref.column_ordinal];
        return Status::OK();
      }
      default: {
        // Arbitrary nested expression: evaluate per row with the scalar
        // evaluator into an arena indexed by chunk row.
        s->kind = OperandSlice::Kind::kRowValues;
        Value* arena = scratch.AllocValues();
        stats_->vectorized_fallback_rows += n;
        for (size_t p = 0; p < n; ++p) {
          uint32_t r = rows[p];
          scope.rows[slot] = scratch.rows[r];
          P3PDB_ASSIGN_OR_RETURN(Value v, Eval(e, stack));
          arena[r] = std::move(v);
        }
        s->arena = arena;
        return Status::OK();
      }
    }
  };

  switch (expr.kind) {
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(expr);
      VecScratch::Mark m = scratch.Save();
      OperandSlice ls, rs;
      P3PDB_RETURN_IF_ERROR(bind(*cmp.left, active, n_active, &ls));
      P3PDB_RETURN_IF_ERROR(bind(*cmp.right, active, n_active, &rs));
      stats_->comparisons += n_active;
      const CompareOp op = cmp.op;
      if (op == CompareOp::kEq || op == CompareOp::kNe) {
        const bool want = op == CompareOp::kEq;
        for (size_t p = 0; p < n_active; ++p) {
          uint32_t r = active[p];
          const Value& a = ls.At(scratch, r);
          const Value& b = rs.At(scratch, r);
          if (a.is_null() || b.is_null()) {
            out[r] = kTriNull;
            continue;
          }
          if (a.type() != b.type()) return IncompatibleTypes(a, b);
          bool eq;
          switch (a.type()) {
            case ValueType::kInteger:
              eq = a.AsInteger() == b.AsInteger();
              break;
            case ValueType::kText:
              eq = a.AsText() == b.AsText();
              break;
            case ValueType::kBoolean:
              eq = a.AsBoolean() == b.AsBoolean();
              break;
            default:
              return IncompatibleTypes(a, b);
          }
          out[r] = (eq == want) ? kTriTrue : kTriFalse;
        }
      } else {
        // kLt/kGe order the pair (left, right); kGt/kLe probe (right, left),
        // mirroring the scalar path so mixed-type errors name the same
        // operand first.
        const bool left_first = op == CompareOp::kLt || op == CompareOp::kGe;
        const bool want_lt = op == CompareOp::kLt || op == CompareOp::kGt;
        for (size_t p = 0; p < n_active; ++p) {
          uint32_t r = active[p];
          const Value& a = ls.At(scratch, r);
          const Value& b = rs.At(scratch, r);
          if (a.is_null() || b.is_null()) {
            out[r] = kTriNull;
            continue;
          }
          const Value& x = left_first ? a : b;
          const Value& y = left_first ? b : a;
          if (x.type() != y.type()) return IncompatibleTypes(x, y);
          bool lt;
          switch (x.type()) {
            case ValueType::kInteger:
              lt = x.AsInteger() < y.AsInteger();
              break;
            case ValueType::kText:
              lt = x.AsText() < y.AsText();
              break;
            default:
              return IncompatibleTypes(x, y);
          }
          out[r] = (lt == want_lt) ? kTriTrue : kTriFalse;
        }
      }
      scratch.Restore(m);
      return Status::OK();
    }

    case ExprKind::kLogical: {
      const auto& l = static_cast<const LogicalExpr&>(expr);
      VecScratch::Mark m = scratch.Save();
      uint32_t* cur = scratch.AllocU32();
      std::copy(active, active + n_active, cur);
      size_t n_cur = n_active;
      const uint8_t identity = l.is_and ? kTriTrue : kTriFalse;
      for (size_t p = 0; p < n_active; ++p) out[active[p]] = identity;
      uint8_t* tmp = scratch.AllocU8();
      for (const ExprPtr& op : l.operands) {
        if (n_cur == 0) break;
        P3PDB_RETURN_IF_ERROR(EvalPredicateChunk(
            *op, slot, stack, scope, cur, n_cur, tmp, nullptr, scratch));
        // Narrow: a decided row (FALSE under AND, TRUE under OR) leaves the
        // selection — the scalar path would have short-circuited it — and
        // NULL taints the verdict but keeps the row active, exactly like
        // the scalar saw_null flag.
        size_t w = 0;
        if (l.is_and) {
          for (size_t p = 0; p < n_cur; ++p) {
            uint32_t r = cur[p];
            uint8_t v = tmp[r];
            if (v == kTriFalse) {
              out[r] = kTriFalse;
              continue;
            }
            if (v == kTriNull) out[r] = kTriNull;
            cur[w++] = r;
          }
        } else {
          for (size_t p = 0; p < n_cur; ++p) {
            uint32_t r = cur[p];
            uint8_t v = tmp[r];
            if (v == kTriTrue) {
              out[r] = kTriTrue;
              continue;
            }
            if (v == kTriNull) out[r] = kTriNull;
            cur[w++] = r;
          }
        }
        n_cur = w;
      }
      scratch.Restore(m);
      return Status::OK();
    }

    case ExprKind::kNot: {
      const auto& n = static_cast<const NotExpr&>(expr);
      VecScratch::Mark m = scratch.Save();
      uint8_t* tmp = scratch.AllocU8();
      P3PDB_RETURN_IF_ERROR(EvalPredicateChunk(*n.operand, slot, stack, scope,
                                               active, n_active, tmp,
                                               "NOT applied to non-boolean",
                                               scratch));
      for (size_t p = 0; p < n_active; ++p) {
        uint32_t r = active[p];
        uint8_t v = tmp[r];
        out[r] = v == kTriNull ? kTriNull
                               : (v == kTriTrue ? kTriFalse : kTriTrue);
      }
      scratch.Restore(m);
      return Status::OK();
    }

    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      VecScratch::Mark m = scratch.Save();
      OperandSlice needle;
      P3PDB_RETURN_IF_ERROR(bind(*in.operand, active, n_active, &needle));
      uint8_t* saw_null = scratch.AllocU8();
      uint32_t* cur = scratch.AllocU32();
      std::copy(active, active + n_active, cur);
      size_t n_cur = n_active;
      for (size_t p = 0; p < n_active; ++p) {
        out[active[p]] = kTriFalse;
        saw_null[active[p]] = 0;
      }
      // Item-major search: rows leave the selection once matched (the
      // scalar path breaks out of the item loop), NULL-compare rows stay
      // in with their flag set (the scalar path keeps scanning items).
      for (const ExprPtr& item : in.items) {
        if (n_cur == 0) break;
        VecScratch::Mark mi = scratch.Save();
        OperandSlice is;
        P3PDB_RETURN_IF_ERROR(bind(*item, cur, n_cur, &is));
        stats_->comparisons += n_cur;
        size_t w = 0;
        for (size_t p = 0; p < n_cur; ++p) {
          uint32_t r = cur[p];
          const Value& nv = needle.At(scratch, r);
          const Value& iv = is.At(scratch, r);
          if (nv.is_null() || iv.is_null()) {
            saw_null[r] = 1;
            cur[w++] = r;
            continue;
          }
          if (nv.type() != iv.type()) return IncompatibleTypes(nv, iv);
          bool eq;
          switch (nv.type()) {
            case ValueType::kInteger:
              eq = nv.AsInteger() == iv.AsInteger();
              break;
            case ValueType::kText:
              eq = nv.AsText() == iv.AsText();
              break;
            case ValueType::kBoolean:
              eq = nv.AsBoolean() == iv.AsBoolean();
              break;
            default:
              return IncompatibleTypes(nv, iv);
          }
          if (eq) {
            out[r] = kTriTrue;
          } else {
            cur[w++] = r;
          }
        }
        n_cur = w;
        scratch.Restore(mi);
      }
      for (size_t p = 0; p < n_cur; ++p) {
        uint32_t r = cur[p];
        if (saw_null[r]) out[r] = kTriNull;
      }
      if (in.negated) {
        for (size_t p = 0; p < n_active; ++p) {
          uint32_t r = active[p];
          uint8_t v = out[r];
          out[r] = v == kTriNull ? kTriNull
                                 : (v == kTriTrue ? kTriFalse : kTriTrue);
        }
      }
      scratch.Restore(m);
      return Status::OK();
    }

    case ExprKind::kIsNull: {
      const auto& isn = static_cast<const IsNullExpr&>(expr);
      VecScratch::Mark m = scratch.Save();
      OperandSlice s;
      P3PDB_RETURN_IF_ERROR(bind(*isn.operand, active, n_active, &s));
      for (size_t p = 0; p < n_active; ++p) {
        uint32_t r = active[p];
        bool is_null = s.At(scratch, r).is_null();
        out[r] = (isn.negated ? !is_null : is_null) ? kTriTrue : kTriFalse;
      }
      scratch.Restore(m);
      return Status::OK();
    }

    case ExprKind::kLike: {
      const auto& lk = static_cast<const LikeExpr&>(expr);
      VecScratch::Mark m = scratch.Save();
      OperandSlice text, pattern;
      P3PDB_RETURN_IF_ERROR(bind(*lk.operand, active, n_active, &text));
      P3PDB_RETURN_IF_ERROR(bind(*lk.pattern, active, n_active, &pattern));
      for (size_t p = 0; p < n_active; ++p) {
        uint32_t r = active[p];
        const Value& t = text.At(scratch, r);
        const Value& pat = pattern.At(scratch, r);
        if (t.is_null() || pat.is_null()) {
          out[r] = kTriNull;
          continue;
        }
        if (t.type() != ValueType::kText || pat.type() != ValueType::kText) {
          return Status::InvalidArgument("LIKE requires text operands");
        }
        ++stats_->comparisons;
        bool matched = SqlLikeMatch(t.AsText(), pat.AsText(), lk.escape_char);
        out[r] = (lk.negated ? !matched : matched) ? kTriTrue : kTriFalse;
      }
      scratch.Restore(m);
      return Status::OK();
    }

    case ExprKind::kHashJoin: {
      const auto& join = static_cast<const HashJoinExpr&>(expr);
      PlanNodeStats* node = nullptr;
      std::chrono::steady_clock::time_point profile_start{};
      if (profile_ != nullptr) {
        node = profile_->HashJoin(&join);
        node->loops += n_active;  // loops = probes
        profile_start = std::chrono::steady_clock::now();
      }
      VecScratch::Mark m = scratch.Save();
      const size_t nk = join.probe_keys.size();
      std::vector<OperandSlice> key_slices(nk);
      for (size_t k = 0; k < nk; ++k) {
        P3PDB_RETURN_IF_ERROR(
            bind(*join.probe_keys[k], active, n_active, &key_slices[k]));
      }
      // One key-set fetch (one memo hit, no mutex after the first) per chunk
      // instead of per probe; lazy so an all-NULL-key chunk never builds the
      // set, like the scalar path.
      const HashJoinRuntime::KeySet* keys = nullptr;
      std::vector<const Value*> kv(nk);
      for (size_t p = 0; p < n_active; ++p) {
        uint32_t r = active[p];
        bool null_key = false;
        for (size_t k = 0; k < nk; ++k) {
          const Value& v = key_slices[k].At(scratch, r);
          if (v.is_null()) {
            null_key = true;
            break;
          }
          kv[k] = &v;
        }
        bool found = false;
        if (!null_key) {
          if (keys == nullptr) {
            P3PDB_ASSIGN_OR_RETURN(keys, MemoKeySet(join));
          }
          found = keys->find(IndexKeyView{kv.data(), nk}) != keys->end();
        }
        ++stats_->hash_join_probes;
        if (node != nullptr && found) ++node->rows;  // rows = probe hits
        out[r] = (join.anti ? !found : found) ? kTriTrue : kTriFalse;
      }
      if (node != nullptr) {
        node->elapsed_us +=
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - profile_start)
                .count();
      }
      scratch.Restore(m);
      return Status::OK();
    }

    default: {
      // Correlated EXISTS and non-predicate kinds: scalar evaluation per
      // active row, with the boolean conversion of the enclosing context.
      stats_->vectorized_fallback_rows += n_active;
      for (size_t p = 0; p < n_active; ++p) {
        uint32_t r = active[p];
        scope.rows[slot] = scratch.rows[r];
        P3PDB_ASSIGN_OR_RETURN(Value v, Eval(expr, stack));
        if (v.is_null()) {
          out[r] = kTriNull;
          continue;
        }
        if (v.type() != ValueType::kBoolean) {
          if (nonbool_error != nullptr) {
            return Status::InvalidArgument(nonbool_error);
          }
          return Status::InvalidArgument("logical operand is not a boolean: " +
                                         expr.ToSql());
        }
        out[r] = v.AsBoolean() ? kTriTrue : kTriFalse;
      }
      return Status::OK();
    }
  }
}

Status Executor::ScanSlot(const SelectStmt& stmt, ScopeStack& stack,
                          Scope& scope, size_t slot, const RowCallback& on_row,
                          bool* stopped, PlanNodeStats* node) {
  const Table* table = &tables_[stmt.from[slot].table];
  const SlotPlan& sp = stmt.slot_plans[slot];

  // Access path from the plan annotation.
  const std::vector<size_t>* row_ids = nullptr;
  if (sp.has_index()) {
    const Index& index = *table->indexes()[sp.index];
    ++stats_->index_lookups;
    // Probe with a non-owning view over stack values: the per-match rule
    // queries do one of these per execution, and the owned-IndexKey vector
    // allocation was visible in their profile.
    constexpr size_t kInlineKeyCols = 8;
    Value key_vals[kInlineKeyCols];
    const Value* key_ptrs[kInlineKeyCols];
    if (sp.key_exprs.size() <= kInlineKeyCols) {
      for (size_t i = 0; i < sp.key_exprs.size(); ++i) {
        P3PDB_ASSIGN_OR_RETURN(key_vals[i], Eval(*sp.key_exprs[i], stack));
        key_ptrs[i] = &key_vals[i];
      }
      row_ids = index.Lookup(IndexKeyView{key_ptrs, sp.key_exprs.size()});
    } else {
      IndexKey key;
      key.values.reserve(sp.key_exprs.size());
      for (const Expr* key_expr : sp.key_exprs) {
        P3PDB_ASSIGN_OR_RETURN(Value v, Eval(*key_expr, stack));
        key.values.push_back(std::move(v));
      }
      row_ids = index.Lookup(key);
    }
    if (row_ids == nullptr) return Status::OK();
  } else {
    ++stats_->full_scans;
  }

  const size_t candidates =
      row_ids != nullptr ? row_ids->size() : table->SlotCount();
  if (!config_.vectorized || !sp.vector_filter) {
    // Row at a time: every slot with the batch executor off, else outer
    // slots and slots without a WHERE (per-row early-out stays exact). The
    // WHERE is applied once the innermost slot is positioned
    // (EnumerateRows' terminal case).
    for (size_t i = 0; i < candidates; ++i) {
      const size_t row_id = row_ids != nullptr ? (*row_ids)[i] : i;
      if (!table->IsLive(row_id)) continue;
      ++stats_->rows_scanned;
      if (node != nullptr) ++node->rows;
      scope.rows[slot] = &table->RowAt(row_id);
      P3PDB_RETURN_IF_ERROR(
          EnumerateRows(stmt, stack, scope, slot + 1, on_row, stopped));
      if (*stopped) break;
    }
    scope.rows[slot] = nullptr;
    return Status::OK();
  }

  // Tiny row sources skip the chunk machinery entirely: the match path's
  // per-policy point lookups position one or two rows, where scratch
  // leasing and kernel dispatch cost more than they amortize. The row loop
  // filters then emits, which also keeps the per-row early-out exact for
  // EXISTS consumers of small scans.
  constexpr size_t kSmallScan = 16;
  if (candidates <= kSmallScan) {
    for (size_t i = 0; i < candidates && !*stopped; ++i) {
      const size_t row_id = row_ids != nullptr ? (*row_ids)[i] : i;
      if (!table->IsLive(row_id)) continue;
      ++stats_->rows_scanned;
      if (node != nullptr) ++node->rows;
      scope.rows[slot] = &table->RowAt(row_id);
      P3PDB_ASSIGN_OR_RETURN(bool pass, EvalFilter(*stmt.where, stack));
      if (!pass) continue;
      P3PDB_ASSIGN_OR_RETURN(bool stop, on_row());
      if (stop) *stopped = true;
    }
    scope.rows[slot] = nullptr;
    return Status::OK();
  }

  // Innermost filtered slot: gather → chunk-filter → emit. The WHERE has
  // not been applied yet for these rows (this slot bypasses the filter in
  // EnumerateRows' terminal case by emitting directly), so the chunk
  // verdict is the only filter — exactly EvalFilter's TRUE-only rule.
  const size_t cap = std::max<uint32_t>(1, config_.chunk_size);
  VecScratchLease lease(cap);
  VecScratch& scratch = *lease;
  const Expr& where = *stmt.where;
  size_t cursor = 0;  // next table slot (seq scan) or id-list position
  size_t target = std::min<size_t>(kRampStart, cap);
  Status st = Status::OK();
  while (!*stopped) {
    size_t n = 0;
    if (row_ids != nullptr) {
      const std::vector<size_t>& ids = *row_ids;
      while (cursor < ids.size() && n < target) {
        size_t id = ids[cursor++];
        if (table->IsLive(id)) scratch.rows[n++] = &table->RowAt(id);
      }
    } else {
      n = table->FetchChunk(&cursor, target, scratch.rows.data());
    }
    if (n == 0) break;
    stats_->rows_scanned += n;
    if (node != nullptr) node->rows += n;

    // Candidate lists can be dominated by dead row slots (version churn in
    // the policy tables), so the candidate-count cutoff above may still let
    // a ~1-live-row scan through. When the gathered chunk is itself tiny
    // and the source is exhausted, the kernel setup costs more than it
    // saves — filter the gathered rows one at a time instead.
    const bool exhausted = row_ids != nullptr ? cursor >= row_ids->size()
                                              : cursor >= table->SlotCount();
    if (n <= kSmallScan && exhausted) {
      for (size_t i = 0; i < n; ++i) {
        scope.rows[slot] = scratch.rows[i];
        Result<bool> pass_or = EvalFilter(where, stack);
        if (!pass_or.ok()) {
          st = pass_or.status();
          break;
        }
        if (!pass_or.value()) continue;
        Result<bool> stop_or = on_row();
        if (!stop_or.ok()) {
          st = stop_or.status();
          break;
        }
        if (stop_or.value()) {
          *stopped = true;
          break;
        }
      }
      break;
    }

    ++stats_->batches;
    stats_->batch_rows += n;
    ++stats_->vectorized_filters;
    if (node != nullptr) {
      ++node->batches;
      node->batch_rows_in += n;
    }

    scratch.FreeAll();
    uint32_t* active = scratch.AllocU32();
    for (size_t i = 0; i < n; ++i) active[i] = static_cast<uint32_t>(i);
    uint8_t* verdict = scratch.AllocU8();
    st = EvalPredicateChunk(where, slot, stack, scope, active, n, verdict,
                            "WHERE clause is not a boolean", scratch);
    if (!st.ok()) break;

    size_t passed = 0;
    for (size_t i = 0; i < n; ++i) {
      if (verdict[i] == kTriTrue) ++passed;
    }
    if (node != nullptr) node->batch_rows_out += passed;

    for (size_t i = 0; i < n; ++i) {
      if (verdict[i] != kTriTrue) continue;
      scope.rows[slot] = scratch.rows[i];
      Result<bool> stop_or = on_row();
      if (!stop_or.ok()) {
        st = stop_or.status();
        break;
      }
      if (stop_or.value()) {
        *stopped = true;
        break;
      }
    }
    if (!st.ok() || *stopped) break;
    target = std::min<size_t>(target * 4, cap);
  }
  scope.rows[slot] = nullptr;
  return st;
}

}  // namespace p3pdb::sqldb
