// Rule-based query planner: EXISTS decorrelation.
//
// The translators emit one predicate shape for nesting — `[NOT] EXISTS
// (SELECT * FROM child WHERE child.fk = outer.pk AND <locals>)` — which the
// executor evaluates as a correlated nested loop (re-run per outer row).
// This is exactly the shape a cost-based optimizer like DB2's (the engine
// the paper measured against) decorrelates: the planner rewrites it into a
// hash semi-join (EXISTS) or anti-join (NOT EXISTS) that builds the
// subquery's key set once and answers every outer row with one O(1) probe,
// with the remaining local predicates pushed below the build.
//
// Rewrite preconditions (anything else falls back to the correlated path):
//   - every top-level AND conjunct of the subquery's WHERE is either
//       (a) a correlation equality `inner_col = outer_col` — one side a
//           column of the subquery's own FROM (level 0), the other a plain
//           column reference from an enclosing scope (level >= 1) of the
//           same column type (the executor's `=` errors on mixed types
//           while hash equality would not, so mixed types are not
//           rewritten), or
//       (b) a local conjunct referencing nothing outside the subquery at
//           any nesting depth;
//   - at least one correlation equality exists;
//   - the subquery contains no `?` bind parameters (a cached key set must
//     not depend on per-execution values).
//
// NULL join keys (the classic decorrelation bug) keep their three-valued
// semantics: a NULL build key never enters the set and a NULL probe key
// matches nothing, so EXISTS yields false and NOT EXISTS yields true —
// identical to the correlated path, where `col = NULL` rejects every row.
//
// The rewrite recurses into the build side, so the translators' EXISTS
// chains (Policy -> Statement -> Purpose/Recipient/Retention/Data) become
// nested hash joins whose builds amortize across outer rows, and into
// non-rewritten subqueries, so deeper eligible levels are still planned.

#ifndef P3PDB_SQLDB_PLANNER_H_
#define P3PDB_SQLDB_PLANNER_H_

#include <memory_resource>

#include "sqldb/ast.h"
#include "sqldb/query_result.h"
#include "sqldb/table.h"

namespace p3pdb::sqldb {

class StatsCatalog;

/// Rewrites eligible [NOT] EXISTS predicates of a *bound* SELECT into
/// HashJoinExpr nodes, in place. Idempotent-safe to skip: an unplanned
/// statement executes identically (modulo speed) on the correlated path.
/// Only a WHERE clause's AND/OR/NOT positions are rewritten (there an
/// EXISTS answers a filter); an EXISTS anywhere else stays correlated.
///
/// With a non-null `catalog`, the rule rewrites are moderated by the cost
/// model (see stats.h):
///   - an eligible EXISTS stays correlated when its estimated build
///     cardinality dwarfs the estimated outer loop count AND the build
///     table indexes the correlation columns — the point-lookup-per-outer-
///     row plan beats materializing a huge key set for a handful of probes;
///   - sibling hash joins under one AND are reordered cheapest-build-first
///     (scalar conjuncts keep their positions), so when a cheap join
///     rejects an outer row the expensive builds are never forced. Result-
///     identical: AND over the joins' three-valued verdicts is order-
///     independent.
/// Every surviving HashJoinExpr is stamped with its estimated build rows
/// for EXPLAIN. Rewrites and cost decisions are tallied into `stats` (the
/// semi/anti-join rewrite and cost_* counters) when it is non-null.
///
/// `tables` are the planning database's: the planner reads their schemas,
/// indexes and statistics, and records catalog slots (a join's
/// dependencies) in the plan. Each HashJoinExpr gets the next ordinal, and
/// `stmt->hash_joins` the count, so a PlanRuntime block can hold the joins'
/// key sets.
///
/// The nodes and lists a rewrite creates (the HashJoinExpr and its key and
/// dependency lists, the residual AND of the build's local conjuncts) are
/// placed in `arena`, the arena of the root statement `stmt` belongs to,
/// each list once at its final size; temporary vectors come from `scratch`.
void PlanSelect(SelectStmt* stmt, TableSlots tables, StatementArena* arena,
                ExecStats* stats = nullptr,
                const StatsCatalog* catalog = nullptr,
                std::pmr::memory_resource* scratch =
                    std::pmr::get_default_resource());

/// Fills `slot_plans` on `stmt` and every nested SELECT (EXISTS subqueries,
/// hash-join build sides, in any clause and under any operator: the tree
/// walks of ast.h): the access path of each FROM slot (index choice + probe
/// key expressions). This is the only place access paths are decided:
/// the executor and EXPLAIN read them. Runs on every bound SELECT
/// (Database::BindAndPlan), after PlanSelect when that runs (rewrites
/// change the tree).
///
/// With a non-null `catalog` each slot plan additionally carries estimated
/// rows, and the cost model may override the syntactic index choice with a
/// sequential scan when the index's estimated selectivity is so poor (low
/// NDV key) that the lookup would return most of the table anyway; each
/// override ticks `stats->cost_seq_forced` when `stats` is non-null.
///
/// A slot plan names its index by ordinal in the slot's table (of
/// `tables`, the planning database's). The slot plans and their key lists
/// are placed in `arena` (the root statement's); temporary vectors come
/// from `scratch`.
void AnnotateSelect(SelectStmt* stmt, TableSlots tables, StatementArena* arena,
                    const StatsCatalog* catalog = nullptr,
                    ExecStats* stats = nullptr,
                    std::pmr::memory_resource* scratch =
                        std::pmr::get_default_resource());

/// AnnotateSelect for the SELECTs nested in `stmt`'s clauses only. For the
/// probe an UPDATE or DELETE wraps its WHERE in: DML visits its own table
/// by row id, so the probe's FROM slot gets no access path (and is never
/// costed), while its subqueries scan like any other.
void AnnotateSubqueries(const SelectStmt& stmt, TableSlots tables,
                        StatementArena* arena,
                        const StatsCatalog* catalog = nullptr,
                        ExecStats* stats = nullptr);

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_PLANNER_H_
