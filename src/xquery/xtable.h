// XTABLE-style XQuery -> SQL translation (the paper's §4 variation 2 and
// the "XQuery" column of Figures 20-21).
//
// XTABLE (a.k.a. XPERANTO) accepted an XQuery over an XML view of
// relational data and generated SQL against the underlying tables. Here the
// underlying tables are the simple (Figure 8) schema — the uniform
// one-table-per-element decomposition a generic view-definition tool would
// produce — and the generated SQL carries one EXISTS subquery per XPath
// step and per vocabulary element, without the value-merging optimization
// the hand-written Figure 15 translator applies. This is what makes the
// XQuery path slower than the direct SQL path (the "untapped optimizations"
// the paper observes), and, with a bounded statement complexity budget,
// what makes the deeply nested Medium preference untranslatable (the empty
// Figure 21 cell).

#ifndef P3PDB_XQUERY_XTABLE_H_
#define P3PDB_XQUERY_XTABLE_H_

#include <string>

#include "common/result.h"
#include "xquery/ast.h"

namespace p3pdb::xquery {

class XTableTranslator {
 public:
  /// Translates one rule's XQuery into SQL against the simple schema. Each
  /// document("applicable-policy") POLICY test becomes an EXISTS over
  /// Policy with `Policy.policy_id = ?`: every `?` binds the applicable
  /// policy id, and the outer query selects FROM the one-row
  /// ApplicablePolicy anchor so a rule without conditions returns a row.
  Result<std::string> TranslateQuery(const Query& query) const;
};

}  // namespace p3pdb::xquery

#endif  // P3PDB_XQUERY_XTABLE_H_
