#include "sqldb/ast.h"

#include <algorithm>
#include <cstring>

namespace p3pdb::sqldb {

namespace {

// First-block sizing: a fixed part (the root, its slot plans, the shared
// control block and finalizer records) plus arena bytes per byte of SQL
// text (nodes and lists), calibrated on the translators' rule queries after
// planning so that none of them outgrows its first block (see DESIGN.md
// "Statement memory"); a statement that does takes further blocks from the
// heap, each half again the size of the last. The cap keeps text that is
// mostly a long literal or comment from reserving several times its size.
constexpr size_t kArenaFixedBytes = 640;
constexpr size_t kArenaBytesPerSqlByte = 6;
constexpr size_t kMinFirstBlock = 256;
constexpr size_t kMaxFirstBlock = 64 << 10;

}  // namespace

std::unique_ptr<StatementArena> StatementArena::ForText(std::string_view text) {
  const size_t first_block =
      std::clamp(kArenaFixedBytes + text.size() * kArenaBytesPerSqlByte,
                 kMinFirstBlock, kMaxFirstBlock);
  return std::unique_ptr<StatementArena>(
      new (FirstBlock{first_block + text.size()})
          StatementArena(first_block, text));
}

// Layout of the one allocation: the object, the first block, the text.
StatementArena::StatementArena(size_t first_block, std::string_view text)
    : reserved_(first_block),
      text_(reinterpret_cast<const char*>(this) + sizeof(StatementArena) +
            first_block),
      text_size_(text.size()),
      resource_(reinterpret_cast<std::byte*>(this) + sizeof(StatementArena),
                first_block, this) {
  if (!text.empty()) {
    std::memcpy(const_cast<char*>(text_), text.data(), text.size());
  }
}

StatementArena::~StatementArena() {
  // Newest first: the arena-placed records are all newer than the inline
  // ones.
  for (Finalizer* f = finalizers_; f != nullptr; f = f->next) {
    f->destroy(f->object);
  }
  for (size_t i = inline_finalizers_; i > 0; --i) {
    inline_finalizer_[i - 1].destroy(inline_finalizer_[i - 1].object);
  }
  // Return the grown blocks while this object is still whole: release()
  // calls back into do_deallocate.
  resource_.release();
}

void* StatementArena::do_allocate(size_t bytes, size_t alignment) {
  reserved_ += bytes;
  if (alignment <= __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
    return ::operator new(bytes);
  }
  return ::operator new(bytes, std::align_val_t(alignment));
}

void StatementArena::do_deallocate(void* p, size_t bytes, size_t alignment) {
  if (alignment <= __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
    ::operator delete(p, bytes);
  } else {
    ::operator delete(p, bytes, std::align_val_t(alignment));
  }
}

void Statement::operator delete(Statement* stmt, std::destroying_delete_t) {
  delete stmt->arena;
}

/// Allocator for a shared root's control block: the block comes from the
/// root's arena, and deallocating it (the last reference gone; nothing
/// touches the block afterwards) deletes the arena.
template <typename T>
struct ControlBlockAllocator {
  using value_type = T;

  explicit ControlBlockAllocator(StatementArena* a) : arena(a) {}
  template <typename U>
  ControlBlockAllocator(const ControlBlockAllocator<U>& other)  // NOLINT
      : arena(other.arena) {}

  T* allocate(size_t n) {
    return static_cast<T*>(arena->ControlBlock(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* /*block*/, size_t /*n*/) { delete arena; }

  template <typename U>
  bool operator==(const ControlBlockAllocator<U>& other) const {
    return arena == other.arena;
  }

  StatementArena* arena;
};

std::shared_ptr<Statement> ShareStatement(std::unique_ptr<Statement> root) {
  // The root dies with its arena, when the control block is released, so
  // the deleter does nothing. `root` keeps ownership until the shared_ptr
  // exists (its constructor may throw).
  std::shared_ptr<Statement> shared(
      root.get(), [](Statement* /*root*/) {},
      ControlBlockAllocator<Statement>(root->arena));
  root.release();
  return shared;
}

ArenaPtr<LiteralExpr> LiteralExpr::MakeText(StatementArena* arena,
                                            std::string_view text) {
  const size_t bytes = Value::StoredTextBytes(text.size());
  if (bytes == 0) return Make(arena, Value::Text(text));
  return ArenaPtr<LiteralExpr>(arena->Place<LiteralExpr>(
      Value::StoreText(text, arena->Allocate(bytes, alignof(uint64_t)))));
}

ArenaPtr<LiteralExpr> LiteralExpr::Make(StatementArena* arena, Value v) {
  // Nothing outside the arena to release: skipping the destructor is safe.
  return ArenaPtr<LiteralExpr>(arena->Place<LiteralExpr>(std::move(v)));
}

std::string ColumnRefExpr::ToSql() const {
  std::string out;
  if (!table_name.empty()) {
    out.append(table_name);
    out += '.';
  }
  out.append(column_name);
  return out;
}

const char* CompareOpSql(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* AggFuncSql(AggFunc f) {
  switch (f) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kSum:
      return "SUM";
  }
  return "?";
}

std::string LogicalExpr::ToSql() const {
  std::string out = "(";
  for (size_t i = 0; i < operands.size(); ++i) {
    if (i > 0) out += is_and ? " AND " : " OR ";
    out += operands[i]->ToSql();
  }
  out += ")";
  return out;
}

ExistsExpr::ExistsExpr(bool neg, ArenaPtr<SelectStmt> sub)
    : Expr(ExprKind::kExists), negated(neg), subquery(std::move(sub)) {}

std::string ExistsExpr::ToSql() const {
  return std::string(negated ? "NOT EXISTS (" : "EXISTS (") +
         subquery->ToSql() + ")";
}

HashJoinExpr::HashJoinExpr(bool anti_join, ArenaPtr<SelectStmt> build_select)
    : Expr(ExprKind::kHashJoin),
      anti(anti_join),
      build(std::move(build_select)) {}

std::string HashJoinExpr::ToSql() const {
  // Rendered back as the EXISTS it was rewritten from, with the join
  // condition re-attached, so debug output stays valid SQL.
  std::string cond;
  for (size_t i = 0; i < build_keys.size(); ++i) {
    if (i > 0) cond += " AND ";
    cond += build_keys[i]->ToSql() + " = " + probe_keys[i]->ToSql();
  }
  std::string sub = build->ToSql();
  if (build->where != nullptr) {
    // Splice the join condition in front of the existing WHERE.
    size_t pos = sub.find(" WHERE ");
    sub = sub.substr(0, pos + 7) + cond + " AND (" + sub.substr(pos + 7) + ")";
  } else {
    sub += " WHERE " + cond;
  }
  return std::string(anti ? "NOT EXISTS (" : "EXISTS (") + sub + ")";
}

std::string InListExpr::ToSql() const {
  std::string out = operand->ToSql();
  out += negated ? " NOT IN (" : " IN (";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i]->ToSql();
  }
  out += ")";
  return out;
}

std::string SelectStmt::ToSql() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    if (items[i].is_star) {
      out += "*";
    } else {
      out += items[i].expr->ToSql();
      if (!items[i].alias.empty()) {
        out += " AS ";
        out += items[i].alias;
      }
    }
  }
  if (!from.empty()) {
    out += " FROM ";
    for (size_t i = 0; i < from.size(); ++i) {
      if (i > 0) out += ", ";
      out += from[i].table_name;
      if (!from[i].alias.empty() && from[i].alias != from[i].table_name) {
        out += ' ';
        out += from[i].alias;
      }
    }
  }
  if (where != nullptr) out += " WHERE " + where->ToSql();
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i]->ToSql();
    }
  }
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += order_by[i].expr->ToSql();
      if (!order_by[i].ascending) out += " DESC";
    }
  }
  if (limit.has_value()) out += " LIMIT " + std::to_string(*limit);
  return out;
}

}  // namespace p3pdb::sqldb
