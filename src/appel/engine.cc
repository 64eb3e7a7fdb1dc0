#include "appel/engine.h"

#include "p3p/augment.h"
#include "p3p/vocab.h"

namespace p3pdb::appel {

namespace {

/// Default attribute values the policy vocabulary defines; an absent
/// attribute on the evidence matches these values (this is what makes
/// `<contact required="always"/>` in Jane's rule match a policy that writes
/// no required attribute at all).
std::string_view DefaultAttributeValue(std::string_view attr_name) {
  if (attr_name == "required") return p3p::kRequiredDefault;
  if (attr_name == "optional") return "no";
  return {};
}

bool AttributesMatch(const AppelExpr& expr, const xml::Element& evidence) {
  for (const AppelAttribute& attr : expr.attributes) {
    std::optional<std::string_view> actual = evidence.Attr(attr.name);
    std::string_view value =
        actual.has_value() ? *actual : DefaultAttributeValue(attr.name);
    if (attr.name == "ref") {
      // Data references compare in normalized form ("#user.name" and
      // "user.name" denote the same element), matching the shredders'
      // stored form.
      if (p3p::NormalizeDataRef(value) !=
          p3p::NormalizeDataRef(attr.value)) {
        return false;
      }
      continue;
    }
    if (value != attr.value) return false;
  }
  return true;
}

/// Elements in an XML subtree, the augmentation work measure: the naive
/// augmenter deep-copies and re-visits every element of the policy copy.
uint64_t CountElements(const xml::Element& element) {
  uint64_t count = 1;
  for (const auto& child : element.children()) {
    count += CountElements(*child);
  }
  return count;
}

}  // namespace

bool NativeEngine::ExprMatches(const AppelExpr& expr,
                               const xml::Element& evidence) {
  return MatchExpr(expr, evidence, nullptr);
}

bool NativeEngine::MatchExpr(const AppelExpr& expr,
                             const xml::Element& evidence, uint64_t* steps) {
  if (steps != nullptr) ++*steps;
  if (expr.name != evidence.LocalName()) return false;
  if (!AttributesMatch(expr, evidence)) return false;
  if (expr.children.empty()) return true;

  // For each contained expression: is it found among the evidence children?
  size_t found_count = 0;
  bool found_any = false;
  for (const AppelExpr& child_expr : expr.children) {
    bool found = false;
    for (const auto& child_evidence : evidence.children()) {
      if (MatchExpr(child_expr, *child_evidence, steps)) {
        found = true;
        break;
      }
    }
    if (found) {
      ++found_count;
      found_any = true;
    }
  }
  const bool found_all = found_count == expr.children.size();

  switch (expr.connective) {
    case Connective::kAnd:
      return found_all;
    case Connective::kOr:
      return found_any;
    case Connective::kNonAnd:
      // "not all of the contained expressions can be found"
      return !found_all;
    case Connective::kNonOr:
      // "none of the contained expressions can be found"
      return !found_any;
    case Connective::kAndExact:
    case Connective::kOrExact: {
      const bool base = expr.connective == Connective::kAndExact ? found_all
                                                                 : found_any;
      if (!base) return false;
      // Part (b): the evidence may contain only elements listed in the rule.
      for (const auto& child_evidence : evidence.children()) {
        bool covered = false;
        for (const AppelExpr& child_expr : expr.children) {
          if (MatchExpr(child_expr, *child_evidence, steps)) {
            covered = true;
            break;
          }
        }
        if (!covered) return false;
      }
      return true;
    }
  }
  return false;
}

Result<MatchOutcome> NativeEngine::Evaluate(const AppelRuleset& ruleset,
                                            const xml::Element& policy_root,
                                            obs::TraceContext* trace) const {
  if (policy_root.LocalName() != "POLICY") {
    return Status::InvalidArgument("evidence root must be a POLICY element");
  }

  // The client engine's working copy. A stateless matcher holds the base
  // data schema only as the document it downloaded, so every evaluation
  // re-processes that document and resolves each DATA ref by scanning it —
  // the augmentation cost the paper's profiling found to dominate the JRC
  // engine's 2.63 s per match (§6.3.2).
  std::unique_ptr<xml::Element> augmented;
  const xml::Element* evidence = &policy_root;
  if (options_.augment_per_match) {
    obs::ScopedSpan aug_span(trace, "category-augmentation");
    auto schema = p3p::DataSchemaFromXml(p3p::BaseDataSchemaXmlText());
    if (!schema.ok()) return schema.status();
    augmented = p3p::AugmentPolicyXmlNaive(policy_root, schema.value());
    evidence = augmented.get();
    if (aug_span.active()) {
      // Work = base-schema elements re-processed + working-copy elements
      // visited. Deterministic, unlike the wall clock.
      uint64_t schema_elements = schema.value().ElementCount();
      aug_span.AddCount("schema-elements", schema_elements);
      aug_span.AddCount("work", schema_elements + CountElements(*augmented));
    }
  }

  obs::ScopedSpan eval_span(trace, "connective-eval");
  uint64_t steps = 0;
  uint64_t* steps_ptr = trace == nullptr ? nullptr : &steps;
  MatchOutcome outcome;
  outcome.behavior = kDefaultBehavior;
  outcome.fired_rule_index = -1;
  for (size_t i = 0; i < ruleset.rules.size(); ++i) {
    const AppelRule& rule = ruleset.rules[i];
    bool fires;
    if (rule.IsCatchAll()) {
      fires = true;
    } else {
      size_t matched = 0;
      for (const AppelExpr& expr : rule.expressions) {
        if (MatchExpr(expr, *evidence, steps_ptr)) ++matched;
      }
      switch (rule.connective) {
        case Connective::kAnd:
          fires = matched == rule.expressions.size();
          break;
        case Connective::kOr:
          fires = matched > 0;
          break;
        case Connective::kNonAnd:
          fires = matched != rule.expressions.size();
          break;
        case Connective::kNonOr:
          fires = matched == 0;
          break;
        default:
          return Status::Unsupported(
              "exact connectives are not defined at rule level");
      }
    }
    if (fires) {
      outcome.behavior = rule.behavior;
      outcome.fired_rule_index = static_cast<int>(i);
      break;
    }
  }
  if (eval_span.active()) {
    eval_span.AddCount("work", steps);
    eval_span.SetAttr("behavior", outcome.behavior);
    if (outcome.fired())
      eval_span.SetAttr("rule", std::to_string(outcome.fired_rule_index));
  }
  return outcome;
}

}  // namespace p3pdb::appel
