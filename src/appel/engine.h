// Native APPEL matching engine — the client-centric baseline of the paper.
//
// This reimplements the evaluator of the only public APPEL engine of the
// time (JRC): rules are tried in order, each rule's pattern is matched
// recursively against the policy's XML tree with the six APPEL connectives,
// and — crucially for the performance story — the engine first augments
// every DATA element of the policy with the categories the P3P base data
// schema assigns to it, on a fresh working copy, on *every* match. The
// paper's profiling found this augmentation to account for most of the
// 15-30x gap to the SQL implementation (§6.3.2). The augmentation placement
// is a knob here so the A2 ablation can quantify that claim.

#ifndef P3PDB_APPEL_ENGINE_H_
#define P3PDB_APPEL_ENGINE_H_

#include <cstdint>
#include <string>

#include "appel/model.h"
#include "common/result.h"
#include "obs/trace.h"
#include "p3p/data_schema.h"
#include "xml/node.h"

namespace p3pdb::appel {

/// Outcome of evaluating a ruleset against one policy.
struct MatchOutcome {
  std::string behavior;       // behavior of the rule that fired
  int fired_rule_index = -1;  // 0-based; -1 when no rule fired
  bool fired() const { return fired_rule_index >= 0; }
};

/// When no rule fires APPEL prescribes fail-safe blocking.
inline constexpr const char* kDefaultBehavior = "block";

class NativeEngine {
 public:
  struct Options {
    /// Re-augment the policy with base-schema categories on every
    /// Evaluate() call, as the JRC engine did. Turning this off models an
    /// engine evaluating pre-augmented policies (the A2 ablation).
    bool augment_per_match = true;
  };

  NativeEngine() : NativeEngine(Options{}) {}
  explicit NativeEngine(Options options)
      : options_(options), schema_(&p3p::DataSchema::Base()) {}

  /// Evaluates `ruleset` against the POLICY element `policy_root`.
  /// Rules fire in order; a rule with an empty body always fires. When no
  /// rule fires, returns kDefaultBehavior with fired_rule_index = -1.
  ///
  /// A non-null `trace` records a `category-augmentation` span (with a
  /// deterministic `work` counter — elements scanned in the base schema
  /// plus elements of the augmented working copy) and a `connective-eval`
  /// span (`work` = pattern-match step count), reproducing the paper's
  /// §6.3.2 cost breakdown per match.
  Result<MatchOutcome> Evaluate(const AppelRuleset& ruleset,
                                const xml::Element& policy_root,
                                obs::TraceContext* trace = nullptr) const;

  /// Whether one expression matches one evidence element (exposed for
  /// testing the connective semantics in isolation).
  static bool ExprMatches(const AppelExpr& expr, const xml::Element& evidence);

 private:
  /// The recursive matcher behind ExprMatches; `steps` (when non-null)
  /// counts invocations — the connective-eval work measure.
  static bool MatchExpr(const AppelExpr& expr, const xml::Element& evidence,
                        uint64_t* steps);

  Options options_;
  const p3p::DataSchema* schema_;
};

}  // namespace p3pdb::appel

#endif  // P3PDB_APPEL_ENGINE_H_
