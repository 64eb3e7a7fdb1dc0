// Abstract syntax tree for the sqldb SQL dialect.
//
// The dialect covers what the APPEL translators generate plus enough general
// SQL to be usable on its own: SELECT with correlated EXISTS subqueries,
// IN lists, LIKE, IS NULL, aggregates with GROUP BY, DISTINCT, ORDER BY and
// LIMIT; INSERT ... VALUES; DELETE; CREATE/DROP TABLE; CREATE INDEX.
//
// The binder annotates the tree in place (column refs get scope coordinates,
// table refs get catalog slots); see binder.h.
//
// Which children each expression kind has is stated once, in AnyChild at
// the end of this file; the binder, the planner and EXPLAIN walk the tree
// through it (see "Tree walks").
//
// A bound plan names no object of the database that planned it: tables by
// catalog slot (their position in the database's creation-order table
// array), indexes by ordinal within their table, and a hash join's mutable
// state (its cached key set) by the join's ordinal into a runtime block the
// executing database owns (PlanRuntime, executor.h). So one plan can run on
// any database whose schema identity matches the planner's (see
// plan_cache.h): every database sharing a PlanCache resolves the plan's
// slots through its own tables.
//
// Statement memory: a parsed statement is a handful of blocks. The root,
// every node below it (each Expr, every nested SelectStmt, and the
// HashJoinExpr / residual LogicalExpr nodes the planner adds), every list
// those nodes own (ArenaVector: operands, select items, FROM lists, slot
// plans, join keys) and a copy of the statement's SQL text live in one
// StatementArena. Names (table, column, alias) are views into that text
// copy, which is also the plan cache's key. Lists are built once at their
// final size: the parser and planner collect into scratch buffers and copy
// the finished list into the arena, so no list grows (and strands its old
// buffer) inside the monotonic arena. Nodes are trivially destructible and
// nothing runs per node when a statement dies: deleting the root (a
// destroying delete), or releasing the last shared_ptr to it (whose control
// block sits in the arena object, see ShareStatement), deletes its arena,
// which runs the finalizers the few heap-owning members registered and then
// releases its blocks. Those
// members are the rendered column headers (shared with every QueryResult,
// so they outlive the plan), the planning database's PlanRuntime block and
// a cached plan's SharedPlan (plan_cache.h), and the non-SELECT roots' own
// strings and vectors. A text literal keeps its bytes in the arena too
// (LiteralExpr::MakeText). Nothing allocates from an arena once parse,
// bind and plan finish: executions only read the tree. Bind and plan take their
// temporary vectors from a stack buffer (Database::BindAndPlan), not from
// the arena or the heap.

#ifndef P3PDB_SQLDB_AST_H_
#define P3PDB_SQLDB_AST_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sqldb/schema.h"
#include "sqldb/value.h"

namespace p3pdb::sqldb {

struct SelectStmt;

// ---------------------------------------------------------------------------
// Statement memory
// ---------------------------------------------------------------------------

/// Pointer to a node in its statement's arena. It owns nothing (the arena
/// releases nodes in whole blocks) but keeps unique_ptr's move semantics, so
/// a node moved into a rewrite leaves a null behind. Trivially destructible.
template <typename T>
class ArenaPtr {
 public:
  ArenaPtr() = default;
  ArenaPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  explicit ArenaPtr(T* node) : node_(node) {}
  ArenaPtr(ArenaPtr&& other) noexcept : node_(other.release()) {}
  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  ArenaPtr(ArenaPtr<U>&& other)  // NOLINT(google-explicit-constructor)
      : node_(other.release()) {}
  ArenaPtr& operator=(ArenaPtr&& other) noexcept {
    node_ = other.release();
    return *this;
  }
  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  ArenaPtr& operator=(ArenaPtr<U>&& other) {
    node_ = other.release();
    return *this;
  }
  ArenaPtr(const ArenaPtr&) = delete;
  ArenaPtr& operator=(const ArenaPtr&) = delete;

  T* get() const { return node_; }
  T* release() {
    T* node = node_;
    node_ = nullptr;
    return node;
  }
  T& operator*() const { return *node_; }
  T* operator->() const { return node_; }
  explicit operator bool() const { return node_ != nullptr; }
  friend bool operator==(const ArenaPtr& p, std::nullptr_t) {
    return p.node_ == nullptr;
  }

 private:
  T* node_ = nullptr;
};

/// A fixed-size list in its statement's arena: a pointer and a size, built
/// once at its final length (StatementArena::NewArray / MoveArray). Copies
/// are views of the same elements. Trivially destructible; so must its
/// elements be.
template <typename T>
class ArenaVector {
 public:
  static_assert(std::is_trivially_destructible_v<T>,
                "arena lists are released without destroying elements");

  ArenaVector() = default;
  ArenaVector(T* data, size_t size) : data_(data), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

struct LiteralExpr;
template <typename T>
struct ControlBlockAllocator;

/// The arena one parsed statement lives in: a
/// std::pmr::monotonic_buffer_resource whose first block is sized from the
/// statement's SQL text and allocated together with the arena object and a
/// copy of that text, so a statement costs one heap allocation until it
/// outgrows that block. Destroying the arena runs its finalizers (newest
/// first) and then releases its blocks; no node destructor runs.
/// Single-threaded: only the parser and planner place objects.
class alignas(std::max_align_t) StatementArena final
    : private std::pmr::memory_resource {
 public:
  /// An arena holding a copy of `text`, the statement's SQL text.
  static std::unique_ptr<StatementArena> ForText(std::string_view text);
  ~StatementArena() override;

  StatementArena(const StatementArena&) = delete;
  StatementArena& operator=(const StatementArena&) = delete;

  /// The arena's copy of the statement text; names in the tree view it.
  std::string_view text() const { return {text_, text_size_}; }

  /// Constructs a trivially destructible T in the arena.
  template <typename T, typename... Args>
  ArenaPtr<T> New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "a node that owns memory outside the arena needs "
                  "NewFinalized");
    return ArenaPtr<T>(Place<T>(std::forward<Args>(args)...));
  }

  /// Constructs a T whose destructor runs as a finalizer when the arena is
  /// destroyed: for the few objects that own memory outside the arena.
  template <typename T, typename... Args>
  T* NewFinalized(Args&&... args) {
    T* object = Place<T>(std::forward<Args>(args)...);
    AddFinalizer(object);
    return object;
  }

  /// NewFinalized for a T that constructs elements in storage trailing
  /// itself: `bytes` (at least sizeof(T)) are reserved for the object and
  /// its tail.
  template <typename T, typename... Args>
  T* NewFinalizedWithTail(size_t bytes, Args&&... args) {
    T* object = ::new (Allocate(bytes, alignof(T)))
        T(std::forward<Args>(args)...);
    AddFinalizer(object);
    return object;
  }

  /// A list of `size` value-initialized elements.
  template <typename T>
  ArenaVector<T> NewArray(size_t size) {
    if (size == 0) return {};
    T* data = static_cast<T*>(Allocate(sizeof(T) * size, alignof(T)));
    for (size_t i = 0; i < size; ++i) ::new (data + i) T();
    return ArenaVector<T>(data, size);
  }

  /// A list holding `items`, moved out of a scratch buffer.
  template <typename T>
  ArenaVector<T> MoveArray(T* items, size_t size) {
    if (size == 0) return {};
    T* data = static_cast<T*>(Allocate(sizeof(T) * size, alignof(T)));
    for (size_t i = 0; i < size; ++i) ::new (data + i) T(std::move(items[i]));
    return ArenaVector<T>(data, size);
  }

  /// Bytes placed so far (nodes, lists and finalizer records; dead objects
  /// included: a monotonic arena never reuses memory). The text copy is
  /// not counted.
  size_t used_bytes() const { return used_; }
  /// Bytes of blocks the arena holds: the first block plus any it grew.
  /// The text copy is not counted.
  size_t reserved_bytes() const { return reserved_; }

  static void operator delete(void* p) { ::operator delete(p); }

 private:
  friend struct LiteralExpr;
  template <typename T>
  friend struct ControlBlockAllocator;

  // The object, its first block and the text copy are one allocation (see
  // ForText).
  struct FirstBlock {
    size_t bytes;
  };
  static void* operator new(size_t size, FirstBlock first) {
    return ::operator new(size + first.bytes);
  }
  static void operator delete(void* p, FirstBlock /*first*/) {
    ::operator delete(p);
  }
  StatementArena(size_t first_block, std::string_view text);

  /// One registered destructor call. The first few sit in the arena
  /// object; later ones are placed in the arena, linked newest first.
  struct Finalizer {
    void (*destroy)(void*);
    void* object;
    Finalizer* next = nullptr;
  };
  static constexpr size_t kInlineFinalizers = 4;
  // Room for a shared root's shared_ptr control block (ShareStatement).
  static constexpr size_t kControlBlockBytes = 64;

  void* Allocate(size_t bytes, size_t alignment) {
    used_ += bytes;
    return resource_.allocate(bytes, alignment);
  }
  template <typename T, typename... Args>
  T* Place(Args&&... args) {
    return ::new (Allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }
  template <typename T>
  void AddFinalizer(T* object) {
    const Finalizer f{[](void* p) { static_cast<T*>(p)->~T(); }, object,
                      finalizers_};
    if (inline_finalizers_ < kInlineFinalizers) {
      inline_finalizer_[inline_finalizers_++] = f;
    } else {
      finalizers_ = Place<Finalizer>(f);
    }
  }
  /// Storage for the shared_ptr control block of this arena's root: in the
  /// object itself when it fits, else in the arena.
  void* ControlBlock(size_t bytes, size_t alignment) {
    if (bytes <= kControlBlockBytes &&
        alignment <= alignof(std::max_align_t) && !control_block_taken_) {
      control_block_taken_ = true;
      return control_block_;
    }
    return Allocate(bytes, alignment);
  }

  // Upstream for the blocks after the first, counted into reserved_.
  void* do_allocate(size_t bytes, size_t alignment) override;
  void do_deallocate(void* p, size_t bytes, size_t alignment) override;
  bool do_is_equal(const std::pmr::memory_resource& other) const
      noexcept override {
    return this == &other;
  }

  // Destroying a cold plan reads little beyond these members, which share
  // a few adjacent cache lines with the control block.
  size_t used_ = 0;
  size_t reserved_;
  const char* text_;
  size_t text_size_;
  size_t inline_finalizers_ = 0;
  Finalizer inline_finalizer_[kInlineFinalizers];
  Finalizer* finalizers_ = nullptr;  // the rest, newest first
  bool control_block_taken_ = false;
  alignas(std::max_align_t) std::byte control_block_[kControlBlockBytes];
  std::pmr::monotonic_buffer_resource resource_;
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kLiteral,
  kParam,
  kColumnRef,
  kComparison,
  kLogical,
  kNot,
  kExists,
  kInList,
  kIsNull,
  kLike,
  kAggregate,
  kHashJoin,
};

/// Expression nodes live in their statement's arena and are never
/// destroyed one by one: the destructor is trivial, not virtual.
struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  /// Renders the expression back to SQL text (debugging / EXPLAIN).
  virtual std::string ToSql() const = 0;

  const ExprKind kind;

 protected:
  ~Expr() = default;
};

using ExprPtr = ArenaPtr<Expr>;

/// A constant. Text too long for a Value's inline bytes lives in the arena
/// (MakeText), so a literal owns no heap memory and needs no finalizer.
struct LiteralExpr : Expr {
  explicit LiteralExpr(Value v) : Expr(ExprKind::kLiteral), value(std::move(v)) {}
  std::string ToSql() const override { return value.ToString(); }

  /// A NULL, integer or boolean literal.
  static ArenaPtr<LiteralExpr> Make(StatementArena* arena, Value v);
  static ArenaPtr<LiteralExpr> MakeText(StatementArena* arena,
                                        std::string_view text);

  Value value;
};

/// A `?` bind-parameter placeholder. Parameters are numbered left to right
/// across the whole statement (the root SelectStmt records the total in
/// `param_count`); values are supplied per execution, so one bound statement
/// serves concurrent executions with different inputs.
struct ParamExpr : Expr {
  explicit ParamExpr(size_t i) : Expr(ExprKind::kParam), index(i) {}
  std::string ToSql() const override { return "?"; }

  size_t index;
};

/// `column` or `table.column`. The binder fills the scope coordinates:
/// `level` counts enclosing SELECTs (0 = the SELECT containing this ref),
/// `table_slot` indexes that SELECT's FROM list, `column_ordinal` indexes the
/// table's columns.
struct ColumnRefExpr : Expr {
  ColumnRefExpr(std::string_view table, std::string_view column)
      : Expr(ExprKind::kColumnRef), table_name(table), column_name(column) {}
  std::string ToSql() const override;

  // Views into the statement's text copy (StatementArena::text).
  std::string_view table_name;  // may be empty (unqualified)
  std::string_view column_name;

  // Binder output.
  int level = -1;
  size_t table_slot = 0;
  size_t column_ordinal = 0;
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpSql(CompareOp op);

struct ComparisonExpr : Expr {
  ComparisonExpr(CompareOp o, ExprPtr l, ExprPtr r)
      : Expr(ExprKind::kComparison),
        op(o),
        left(std::move(l)),
        right(std::move(r)) {}
  std::string ToSql() const override {
    return left->ToSql() + " " + CompareOpSql(op) + " " + right->ToSql();
  }

  CompareOp op;
  ExprPtr left;
  ExprPtr right;
};

/// N-ary AND / OR.
struct LogicalExpr : Expr {
  LogicalExpr(bool and_op, ArenaVector<ExprPtr> ops)
      : Expr(ExprKind::kLogical), is_and(and_op), operands(ops) {}
  std::string ToSql() const override;

  bool is_and;
  ArenaVector<ExprPtr> operands;
};

struct NotExpr : Expr {
  explicit NotExpr(ExprPtr e) : Expr(ExprKind::kNot), operand(std::move(e)) {}
  std::string ToSql() const override { return "NOT (" + operand->ToSql() + ")"; }

  ExprPtr operand;
};

struct ExistsExpr : Expr {
  ExistsExpr(bool neg, ArenaPtr<SelectStmt> sub);
  std::string ToSql() const override;

  bool negated;
  ArenaPtr<SelectStmt> subquery;
};

/// Planner output (never produced by the parser): a decorrelated
/// `[NOT] EXISTS` rewritten as a hash semi-/anti-join. The build side is the
/// former subquery with its correlation equalities stripped (local predicates
/// stay pushed below the build); `build_keys[i] = probe_keys[i]` are the
/// stripped equalities, with probe-side column-ref levels rebased by -1 so
/// they evaluate in the scope where this expression now sits. Evaluation
/// builds the key set over the build side once and then answers each outer
/// row with one hash probe. The key set is runtime state, not plan: it
/// lives in the executing database's PlanRuntime block at `ordinal`, is
/// cached there across executions, and is rebuilt when any table in
/// `dep_tables` changes on that database. Keys containing NULL never
/// match on either side: a NULL build key is excluded from the set and a NULL
/// probe key yields false for EXISTS / true for NOT EXISTS, matching the
/// three-valued-logic result of the correlated path.
struct HashJoinExpr : Expr {
  HashJoinExpr(bool anti_join, ArenaPtr<SelectStmt> build_select);
  std::string ToSql() const override;

  bool anti;  // true = NOT EXISTS (anti-join), false = EXISTS (semi-join)
  ArenaPtr<SelectStmt> build;
  ArenaVector<ArenaPtr<ColumnRefExpr>> build_keys;  // level-0 in build
  ArenaVector<ExprPtr> probe_keys;  // evaluated in the enclosing scope
  /// Catalog slot of every table the build side reads (transitively,
  /// nested subqueries included), ascending; the cached key set is stale
  /// once any of their versions move.
  ArenaVector<CatalogSlot> dep_tables;
  /// This join's index into a PlanRuntime's hash-join states: joins are
  /// numbered 0.. in planning order across the whole statement (the root
  /// SelectStmt records the count in `hash_joins`).
  uint32_t ordinal = 0;
  /// Cost-model output: estimated rows the build side enumerates (drives
  /// cheapest-build-first ordering of sibling joins). Negative = not costed.
  double est_build_rows = -1.0;
};

struct InListExpr : Expr {
  InListExpr(ExprPtr op, ArenaVector<ExprPtr> list, bool neg)
      : Expr(ExprKind::kInList),
        operand(std::move(op)),
        items(list),
        negated(neg) {}
  std::string ToSql() const override;

  ExprPtr operand;
  ArenaVector<ExprPtr> items;
  bool negated;
};

struct IsNullExpr : Expr {
  IsNullExpr(ExprPtr op, bool neg)
      : Expr(ExprKind::kIsNull), operand(std::move(op)), negated(neg) {}
  std::string ToSql() const override {
    return operand->ToSql() + (negated ? " IS NOT NULL" : " IS NULL");
  }

  ExprPtr operand;
  bool negated;
};

/// `expr [NOT] LIKE pattern [ESCAPE 'c']` with SQL wildcards % and _.
struct LikeExpr : Expr {
  LikeExpr(ExprPtr op, ExprPtr pat, bool neg, char esc = '\0')
      : Expr(ExprKind::kLike),
        operand(std::move(op)),
        pattern(std::move(pat)),
        negated(neg),
        escape_char(esc) {}
  std::string ToSql() const override {
    std::string out = operand->ToSql() + (negated ? " NOT LIKE " : " LIKE ") +
                      pattern->ToSql();
    if (escape_char != '\0') {
      out += " ESCAPE '";
      if (escape_char == '\'') out += "'";
      out += escape_char;
      out += "'";
    }
    return out;
  }

  ExprPtr operand;
  ExprPtr pattern;
  bool negated;
  char escape_char;  // '\0' = no ESCAPE clause
};

enum class AggFunc { kCountStar, kCount, kMin, kMax, kSum };

const char* AggFuncSql(AggFunc f);

struct AggregateExpr : Expr {
  AggregateExpr(AggFunc f, ExprPtr a)
      : Expr(ExprKind::kAggregate), func(f), arg(std::move(a)) {}
  std::string ToSql() const override {
    if (func == AggFunc::kCountStar) return "COUNT(*)";
    return std::string(AggFuncSql(func)) + "(" + arg->ToSql() + ")";
  }

  AggFunc func;
  ExprPtr arg;  // null for COUNT(*)
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StatementKind {
  kSelect,
  kInsert,
  kUpdate,
  kDelete,
  kCreateTable,
  kCreateIndex,
  kDropTable,
  kExplain,
};

/// Statements have no virtual destructor: a root is deleted through
/// `std::unique_ptr<Statement>` by a destroying operator delete that deletes
/// the root's arena, in which the root itself lives. SELECTs are trivially
/// destructible; the other roots register their destructor as a finalizer.
struct Statement {
  explicit Statement(StatementKind k) : kind(k) {}
  Statement(const Statement&) = delete;
  Statement& operator=(const Statement&) = delete;

  /// Deletes a root statement: deletes its arena (finalizers, then blocks).
  static void operator delete(Statement* stmt, std::destroying_delete_t);

  const StatementKind kind;
  /// The arena holding this statement and every node below it. Set on a
  /// root statement only (the one ParseStatement/ParseScript return), which
  /// owns it; null on nested SELECTs, which live in their root's arena.
  StatementArena* arena = nullptr;
};

/// Shared ownership of a parsed root statement (a cached plan, a
/// PreparedStatement). The shared_ptr's control block is placed in the
/// root's own arena, so sharing costs no heap block, and releasing the last
/// reference deletes the arena, root included.
std::shared_ptr<Statement> ShareStatement(std::unique_ptr<Statement> root);

/// `table [alias]` in a FROM list. Names view the statement's text copy.
struct TableRef {
  std::string_view table_name;
  std::string_view alias;  // defaults to table_name

  /// Binder output: the table's catalog slot. Executions resolve it through
  /// the executing database's TableSlots, so the plan stays valid on every
  /// database with the planner's schema identity.
  CatalogSlot table = kNoSlot;
};

struct SelectItem {
  bool is_star = false;    // bare `*`
  ExprPtr expr;            // null when is_star
  std::string_view alias;  // optional `AS alias`
};

/// Planner output (AnnotateSelect): the resolved access path for one FROM
/// slot, computed once at plan time so the executor does not re-derive it on
/// every scan. `index` is an ordinal into the slot's table's index list
/// (Table::indexes(); indexes are only ever appended, and the schema
/// identity covers their creation order), and `key_exprs` are aligned with
/// that index's column ordinals.
struct SlotPlan {
  static constexpr int32_t kSeqScan = -1;
  int32_t index = kSeqScan;              // kSeqScan = sequential scan
  ArenaVector<const Expr*> key_exprs;    // probe keys, index column order
  bool has_index() const { return index != kSeqScan; }
  /// Cost-model output: estimated rows this scan produces per loop, after
  /// the WHERE conjuncts local to the slot. Negative = not costed (cost
  /// model off or no statistics); EXPLAIN prints it only when present.
  double est_rows = -1.0;
  /// True when the cost model overrode the syntactic index choice with a
  /// sequential scan (the index's estimated selectivity was too poor).
  bool seq_forced = false;
};

/// Result column names, shared between a bound SELECT and its results.
using ColumnHeaders = std::shared_ptr<const std::vector<std::string>>;

/// Binder output: `output_column` is the result column the item sorts by
/// (a 1-based integer-literal ordinal, or a select item named by its alias
/// or exact text), or kEvaluate to evaluate `expr` in row context. The
/// binder rejects, on the root SELECT only (an EXISTS subquery's rows are
/// never sorted), out-of-range ordinals and, in aggregate mode, every item
/// that names no result column.
struct OrderByItem {
  static constexpr int32_t kEvaluate = -1;
  ExprPtr expr;
  bool ascending = true;
  int32_t output_column = kEvaluate;
};

struct SelectStmt : Statement {
  SelectStmt() : Statement(StatementKind::kSelect) {}
  std::string ToSql() const;

  bool distinct = false;
  ArenaVector<SelectItem> items;
  ArenaVector<TableRef> from;
  ExprPtr where;  // may be null
  ArenaVector<ExprPtr> group_by;
  ArenaVector<OrderByItem> order_by;
  std::optional<int64_t> limit;
  /// Number of `?` placeholders in the whole statement (subqueries
  /// included). Only meaningful on the root SELECT; executions must supply
  /// exactly this many values.
  size_t param_count = 0;
  /// Number of HashJoinExprs the planner placed anywhere in the statement
  /// (the size of a PlanRuntime block for it). Root SELECT only.
  uint32_t hash_joins = 0;

  /// Per-FROM-slot access paths, one per FROM entry, filled by
  /// AnnotateSelect on every bound statement that scans (all but the DML
  /// helpers' probe SELECTs, whose subqueries are annotated). The executor
  /// and EXPLAIN read only these.
  ArenaVector<SlotPlan> slot_plans;

  /// Binder output: GROUP BY or an aggregate select item.
  bool aggregate_mode = false;
  /// Binder output: the number of result columns, `*` items expanded.
  uint32_t result_width = 0;
  /// The rendered result column headers (PrecomputeExecHints, called from
  /// Database::BindAndPlan on the root SELECT), shared with every
  /// QueryResult this statement produces, so they live on the heap behind a
  /// finalized shared_ptr in the arena.
  const ColumnHeaders* column_headers = nullptr;
};

struct InsertStmt : Statement {
  InsertStmt() : Statement(StatementKind::kInsert) {}

  std::string table_name;
  std::vector<std::string> columns;  // empty = positional
  std::vector<std::vector<ExprPtr>> rows;
};

struct DeleteStmt : Statement {
  DeleteStmt() : Statement(StatementKind::kDelete) {}

  std::string table_name;
  ExprPtr where;  // may be null (delete all)
};

/// `UPDATE t SET col = expr [, ...] [WHERE ...]`. Assignment expressions
/// may reference the row's current column values.
struct UpdateStmt : Statement {
  UpdateStmt() : Statement(StatementKind::kUpdate) {}

  struct Assignment {
    std::string column;
    ExprPtr value;
  };

  std::string table_name;
  std::vector<Assignment> assignments;
  ExprPtr where;  // may be null (update all)
};

struct CreateTableStmt : Statement {
  CreateTableStmt() : Statement(StatementKind::kCreateTable) {}

  TableSchema schema;
  bool if_not_exists = false;
};

struct CreateIndexStmt : Statement {
  CreateIndexStmt() : Statement(StatementKind::kCreateIndex) {}

  std::string index_name;
  std::string table_name;
  std::vector<std::string> columns;
  bool unique = false;
};

struct DropTableStmt : Statement {
  DropTableStmt() : Statement(StatementKind::kDropTable) {}

  std::string table_name;
  bool if_exists = false;
};

/// `EXPLAIN [ANALYZE] SELECT ...`: renders the access-path plan instead of
/// rows. With ANALYZE the statement is also executed and every plan node is
/// annotated with its actual row count, loop count, and elapsed time.
struct ExplainStmt : Statement {
  ExplainStmt() : Statement(StatementKind::kExplain) {}

  ArenaPtr<SelectStmt> select;
  bool analyze = false;
};

// ---------------------------------------------------------------------------
// Tree walks
// ---------------------------------------------------------------------------
//
// Which children each expression kind has, stated once. The binder, the
// planner's structural predicates (parameter, escape and table collection,
// slot estimability and availability, annotation) and EXPLAIN walk the
// tree through these and keep only their per-kind decisions. Code
// that computes a different result for each kind (Executor::Eval,
// selectivity estimation, ToSql) and the rewrites that act only at
// AND/OR/NOT positions keep their own switches.

/// Calls `pred` on each direct child expression of `e`, left to right,
/// until it returns true; returns whether it did. `E` is `Expr` or
/// `const Expr`, and the child is passed as an `E&`. The children are:
/// comparison left, right; AND/OR operands; NOT and IS NULL operand; IN
/// operand, then items; LIKE operand, pattern; an aggregate's argument
/// (none for COUNT(*)); a hash join's probe keys. A subquery is not a child
/// expression: see SubqueryOf. Nothing here allocates.
template <typename E, typename Pred>
bool AnyChild(E& e, Pred&& pred) {
  static_assert(std::is_same_v<std::remove_const_t<E>, Expr>);
  const auto any_of = [&pred](const ArenaVector<ExprPtr>& list) {
    for (const ExprPtr& child : list) {
      if (pred(static_cast<E&>(*child))) return true;
    }
    return false;
  };
  switch (e.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kParam:
    case ExprKind::kColumnRef:
    case ExprKind::kExists:  // its subquery: SubqueryOf
      return false;
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(e);
      return pred(static_cast<E&>(*c.left)) || pred(static_cast<E&>(*c.right));
    }
    case ExprKind::kLogical:
      return any_of(static_cast<const LogicalExpr&>(e).operands);
    case ExprKind::kNot:
      return pred(static_cast<E&>(*static_cast<const NotExpr&>(e).operand));
    case ExprKind::kIsNull:
      return pred(static_cast<E&>(*static_cast<const IsNullExpr&>(e).operand));
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      return pred(static_cast<E&>(*in.operand)) || any_of(in.items);
    }
    case ExprKind::kLike: {
      const auto& lk = static_cast<const LikeExpr&>(e);
      return pred(static_cast<E&>(*lk.operand)) ||
             pred(static_cast<E&>(*lk.pattern));
    }
    case ExprKind::kAggregate: {
      const auto& agg = static_cast<const AggregateExpr&>(e);
      return agg.arg != nullptr && pred(static_cast<E&>(*agg.arg));
    }
    case ExprKind::kHashJoin:  // its build side: SubqueryOf
      return any_of(static_cast<const HashJoinExpr&>(e).probe_keys);
  }
  return false;
}

/// Calls `f` on each direct child expression of `e`, in AnyChild's order.
template <typename E, typename F>
void ForEachChild(E& e, F&& f) {
  AnyChild(e, [&f](E& child) {
    f(child);
    return false;
  });
}

/// The SELECT nested directly in `e`: an EXISTS subquery or a hash join's
/// build side; null for every other kind. Like ArenaPtr, shallow-const.
inline SelectStmt* SubqueryOf(const Expr& e) {
  if (e.kind == ExprKind::kExists) {
    return static_cast<const ExistsExpr&>(e).subquery.get();
  }
  if (e.kind == ExprKind::kHashJoin) {
    return static_cast<const HashJoinExpr&>(e).build.get();
  }
  return nullptr;
}

/// Calls `pred` on each clause expression of `s` until it returns true, and
/// returns whether it did: WHERE first, then the non-star select items,
/// GROUP BY and ORDER BY. The FROM list and nested SELECTs are the caller's.
template <typename Pred>
bool AnyClause(const SelectStmt& s, Pred&& pred) {
  if (s.where != nullptr && pred(*s.where)) return true;
  for (const SelectItem& item : s.items) {
    if (!item.is_star && pred(*item.expr)) return true;
  }
  for (const ExprPtr& g : s.group_by) {
    if (pred(*g)) return true;
  }
  for (const OrderByItem& ob : s.order_by) {
    if (pred(*ob.expr)) return true;
  }
  return false;
}

/// Calls `f` on each clause expression of `s`, in AnyClause's order.
template <typename F>
void ForEachClause(const SelectStmt& s, F&& f) {
  AnyClause(s, [&f](const Expr& e) {
    f(e);
    return false;
  });
}

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_AST_H_
