// APPEL -> SQL translation for the simple (Figure 8) schema — the
// algorithm of the paper's Figure 11.
//
// main() emits `SELECT '<behavior>' FROM ApplicablePolicy WHERE ...`; every
// expression becomes an EXISTS subquery over the table named after its
// element, joined to the parent subquery's table on the parent's primary
// key, with attribute equality predicates and recursively translated
// subexpressions. Beyond the paper's pseudocode (which shows only "and" and
// "or"), the negated connectives non-and / non-or are supported via NOT(...)
// — the full tech-report algorithm the paper cites as [2]. The *-exact
// connectives are not expressible over this schema without value merging
// and report Unsupported; the optimized translator handles them.

#ifndef P3PDB_TRANSLATOR_SQL_SIMPLE_H_
#define P3PDB_TRANSLATOR_SQL_SIMPLE_H_

#include <string>
#include <vector>

#include "appel/model.h"
#include "common/result.h"
#include "obs/trace.h"

namespace p3pdb::translator {

/// A ruleset compiled to SQL: one query per rule, to be executed in order
/// against a database holding the shredded policies; the first query that
/// returns a row decides the behavior.
struct SqlRuleset {
  std::vector<std::string> rule_queries;   // aligned with behaviors
  std::vector<std::string> behaviors;
  /// `?` placeholders per rule query, aligned with rule_queries (all bound
  /// to the applicable policy_id). All zeros for the paper-text
  /// (unparameterized) queries.
  std::vector<size_t> param_counts;
};

class SimpleSqlTranslator {
 public:
  /// `parameterized` selects the read-only query shape: the policy-id join
  /// against the materialized ApplicablePolicy row becomes a `?` bind
  /// parameter, so matching needs no per-match table write. The default
  /// stays the paper's Figure 11/13 text (pinned by the goldens).
  explicit SimpleSqlTranslator(bool parameterized = false)
      : parameterized_(parameterized) {}

  /// Translates one rule (Figure 11's main()). A catch-all rule (empty
  /// body) becomes `SELECT '<behavior>' FROM ApplicablePolicy`.
  Result<std::string> TranslateRule(const appel::AppelRule& rule) const;

  /// Translates every rule of the preference. A non-null `trace` records
  /// one `translate-rule` span per rule (behavior attribute; generated-SQL
  /// size and placeholder count as counters).
  Result<SqlRuleset> TranslateRuleset(const appel::AppelRuleset& rs,
                                      obs::TraceContext* trace = nullptr) const;

 private:
  bool parameterized_;
};

/// Placeholders a rule's translation takes: one per top-level POLICY
/// expression in parameterized mode, zero otherwise (catch-alls included).
size_t RuleParamCount(const appel::AppelRule& rule, bool parameterized);

/// Combines per-expression SQL conditions under an APPEL connective:
/// and -> conjunction, or -> disjunction, non-and/non-or -> NOT(...).
/// *-exact are rejected here (callers with value-merged tables handle them).
Result<std::string> CombineConditions(const std::vector<std::string>& terms,
                                      appel::Connective connective);

}  // namespace p3pdb::translator

#endif  // P3PDB_TRANSLATOR_SQL_SIMPLE_H_
