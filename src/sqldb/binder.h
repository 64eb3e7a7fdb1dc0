// Semantic analysis: resolves table and column references, validates
// aggregate usage, and enforces the query-complexity limit.
//
// Binding is done in place on the AST: each ColumnRefExpr receives its scope
// coordinates (level, table slot, column ordinal) and each TableRef its
// catalog slot. Correlated references — a subquery referring to a table of
// an enclosing SELECT — resolve to level >= 1, which is what the generated
// APPEL queries rely on for the parent-child joins of Figure 13.

#ifndef P3PDB_SQLDB_BINDER_H_
#define P3PDB_SQLDB_BINDER_H_

#include <memory_resource>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "sqldb/ast.h"
#include "sqldb/table.h"

namespace p3pdb::sqldb {

/// Table-name resolution interface implemented by Database.
class CatalogView {
 public:
  virtual ~CatalogView() = default;
  /// Case-insensitive lookup of a table's catalog slot; kNoSlot when
  /// absent.
  virtual CatalogSlot LookupSlot(std::string_view name) const = 0;
  /// Every table, by slot.
  virtual TableSlots table_slots() const = 0;
};

class Binder {
 public:
  /// `max_subquery_depth` bounds SELECT nesting (outer query = depth 1).
  /// Exceeding it fails with LimitExceeded — this models the fixed statement
  /// complexity budget of the paper's DB2 setup (the XQuery-generated SQL
  /// for the Medium preference exceeded it; see Figure 21). Binding's
  /// temporary vectors come from `scratch`.
  Binder(const CatalogView& catalog, int max_subquery_depth,
         std::pmr::memory_resource* scratch = std::pmr::get_default_resource())
      : catalog_(catalog),
        max_subquery_depth_(max_subquery_depth),
        scratch_(scratch) {}

  /// Binds a SELECT (and, recursively, its subqueries).
  Status BindSelect(SelectStmt* stmt);

 private:
  using ScopeStack = std::pmr::vector<SelectStmt*>;
  Status BindSelectImpl(SelectStmt* stmt, ScopeStack* stack);
  /// Binds the clauses of `stmt`, already the innermost scope on `stack`.
  Status BindSelectBody(SelectStmt* stmt, ScopeStack* stack);
  Status BindExpr(Expr* expr, ScopeStack* stack, bool allow_aggregates);
  Status BindColumnRef(ColumnRefExpr* ref, const ScopeStack& stack);

  const CatalogView& catalog_;
  int max_subquery_depth_;
  std::pmr::memory_resource* scratch_;
};

/// True if the expression tree contains an AggregateExpr outside of
/// subqueries.
bool ContainsAggregate(const Expr& expr);

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_BINDER_H_
