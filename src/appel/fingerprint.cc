#include "appel/fingerprint.h"

#include <string_view>

namespace p3pdb::appel {

namespace {

constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a 64-bit over a sequence of fields. Every string is prefixed with
/// its length and every list with its size, so two different field
/// sequences never feed the hash the same bytes.
class FieldHasher {
 public:
  void Count(uint64_t n) {
    for (int i = 0; i < 8; ++i) Mix(static_cast<unsigned char>(n >> (8 * i)));
  }
  void Text(std::string_view s) {
    Count(s.size());
    for (unsigned char c : s) Mix(c);
  }
  void Connective(Connective c) { Count(static_cast<uint64_t>(c)); }
  uint64_t value() const { return hash_ == 0 ? 1 : hash_; }

 private:
  void Mix(unsigned char c) {
    hash_ ^= c;
    hash_ *= kFnvPrime;
  }

  uint64_t hash_ = kFnvOffsetBasis;
};

void HashExpr(const AppelExpr& expr, FieldHasher* h) {
  h->Text(expr.name);
  h->Connective(expr.connective);
  h->Count(expr.attributes.size());
  for (const AppelAttribute& attr : expr.attributes) {
    h->Text(attr.name);
    h->Text(attr.value);
  }
  h->Count(expr.children.size());
  for (const AppelExpr& child : expr.children) HashExpr(child, h);
}

}  // namespace

uint64_t RulesetFingerprint(const AppelRuleset& ruleset) {
  FieldHasher h;
  h.Count(ruleset.rules.size());
  for (const AppelRule& rule : ruleset.rules) {
    h.Text(rule.behavior);
    h.Text(rule.description);
    h.Connective(rule.connective);
    h.Count(rule.expressions.size());
    for (const AppelExpr& expr : rule.expressions) HashExpr(expr, &h);
  }
  return h.value();
}

}  // namespace p3pdb::appel
