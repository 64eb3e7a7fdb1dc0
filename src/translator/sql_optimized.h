// APPEL -> SQL translation for the optimized (Figure 14) schema — the
// production translator of the paper's §5.4 / Figure 15.
//
// Compared with the Figure 11 translator, this one is structure-aware: it
// knows PURPOSE/RECIPIENT/RETENTION/CATEGORIES values were folded into
// value columns, so the per-value subqueries of Figure 13 merge into single
// subqueries with disjunctive value predicates (Figure 15), and RETENTION /
// CONSEQUENCE / NON-IDENTIFIABLE become plain column predicates on the
// enclosing Statement row.
//
// All six APPEL connectives are supported. The *-exact connectives compile
// to an existence part plus a closure part — NOT EXISTS of a row matching
// none of the listed patterns — which is precisely APPEL's "the policy
// contains only elements listed in the rule".

#ifndef P3PDB_TRANSLATOR_SQL_OPTIMIZED_H_
#define P3PDB_TRANSLATOR_SQL_OPTIMIZED_H_

#include <string>
#include <vector>

#include "appel/model.h"
#include "common/result.h"
#include "translator/sql_simple.h"  // SqlRuleset

namespace p3pdb::translator {

class OptimizedSqlTranslator {
 public:
  /// `parameterized` emits `Policy.policy_id = ?` instead of a join to the
  /// materialized ApplicablePolicy row — the read-only query shape that
  /// matches can execute concurrently. The default stays the paper's
  /// Figure 15 text (pinned by the goldens).
  explicit OptimizedSqlTranslator(bool parameterized = false)
      : parameterized_(parameterized) {}

  /// Translates one rule into a query against the Figure 14 tables (plus
  /// the ApplicablePolicy anchor row).
  Result<std::string> TranslateRule(const appel::AppelRule& rule) const;

  /// Translates every rule of the preference. A non-null `trace` records
  /// one `translate-rule` span per rule (behavior attribute; generated-SQL
  /// size and placeholder count as counters).
  Result<SqlRuleset> TranslateRuleset(const appel::AppelRuleset& rs,
                                      obs::TraceContext* trace = nullptr) const;

 private:
  bool parameterized_;
};

}  // namespace p3pdb::translator

#endif  // P3PDB_TRANSLATOR_SQL_OPTIMIZED_H_
