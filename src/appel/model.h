// Object model for APPEL preferences (A P3P Preference Exchange Language
// 1.0, W3C Working Draft, Feb 2001; paper §2.2).
//
// A preference is an ordered RULESET of RULEs. Each rule has one of the
// three behaviors APPEL 1.0 defines (block / limited / request) and a
// body: a pattern of expressions mirroring the P3P policy structure,
// combined with one of six connectives (and, or, non-and, non-or,
// and-exact, or-exact; default and). A rule with an empty body always
// fires — that is how the catch-all final rule of the paper's Figure 2
// works. The bare appel:OTHERWISE element some preference files carry is
// accepted and treated as that same catch-all marker.

#ifndef P3PDB_APPEL_MODEL_H_
#define P3PDB_APPEL_MODEL_H_

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "xml/node.h"

namespace p3pdb::appel {

enum class Connective { kAnd, kOr, kNonAnd, kNonOr, kAndExact, kOrExact };

/// Parses "or", "and-exact", ... Fails on unknown text.
Result<Connective> ParseConnective(std::string_view text);
std::string_view ConnectiveToString(Connective c);

/// The behaviors APPEL 1.0 defines, in byte order (the order
/// PolicyServer::ConflictReport lists them in).
inline constexpr std::array<std::string_view, 3> kBehaviors = {
    "block", "limited", "request"};

/// Position of `behavior` in kBehaviors; nullopt for any other text.
/// Inline: every counted match calls it.
constexpr std::optional<size_t> BehaviorIndex(std::string_view behavior) {
  for (size_t i = 0; i < kBehaviors.size(); ++i) {
    if (behavior == kBehaviors[i]) return i;
  }
  return std::nullopt;
}

/// An attribute the expression requires on the evidence element.
struct AppelAttribute {
  std::string name;
  std::string value;
};

/// One pattern expression: matches a policy element with the same local
/// name whose attributes and children satisfy the expression.
struct AppelExpr {
  std::string name;  // local element name, e.g. "PURPOSE" or "contact"
  Connective connective = Connective::kAnd;
  std::vector<AppelAttribute> attributes;
  std::vector<AppelExpr> children;

  /// Number of expressions in this subtree (including this one).
  size_t SubtreeSize() const;
};

/// One RULE element.
struct AppelRule {
  std::string behavior;     // one of kBehaviors
  std::string description;  // optional appel:description attribute
  Connective connective = Connective::kAnd;  // across top-level expressions
  std::vector<AppelExpr> expressions;  // typically one POLICY pattern

  bool IsCatchAll() const { return expressions.empty(); }
};

/// A full APPEL preference.
struct AppelRuleset {
  std::vector<AppelRule> rules;

  size_t RuleCount() const { return rules.size(); }
  size_t ExpressionCount() const;

  /// Vocabulary-level sanity checks: every behavior one of kBehaviors
  /// (InvalidArgument otherwise), known connectives are guaranteed by
  /// construction, at most one catch-all and only in final position (rules
  /// after it are unreachable).
  Status Validate() const;
};

Result<AppelRuleset> RulesetFromXml(const xml::Element& root);
Result<AppelRuleset> RulesetFromText(std::string_view text);
std::unique_ptr<xml::Element> RulesetToXml(const AppelRuleset& ruleset);
std::string RulesetToText(const AppelRuleset& ruleset);

}  // namespace p3pdb::appel

#endif  // P3PDB_APPEL_MODEL_H_
