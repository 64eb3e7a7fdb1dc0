// Canonical APPEL-ruleset fingerprint.
//
// The match outcome is a pure function of (compiled preference, applicable
// policy version, engine), so repeated checks by millions of users against a
// site's handful of policies are an ideal memoization target (paper §4,
// Figure 6). The memo key needs a stable identity for a preference that is
// cheap to compare and independent of which server compiled it: a 64-bit
// FNV-1a hash over every field of the validated ruleset, in order — each
// rule's behavior, description and connective, then each expression's
// name, connective, attributes and children — with every string
// length-prefixed and every list size-prefixed. Equal rulesets always hash
// identically; rulesets that differ in any field (a repeated attribute
// included, which an XML serialization would collapse) collide only with
// probability ~2^-64.

#ifndef P3PDB_APPEL_FINGERPRINT_H_
#define P3PDB_APPEL_FINGERPRINT_H_

#include <cstdint>

#include "appel/model.h"

namespace p3pdb::appel {

/// Fingerprint of a ruleset, hashed field by field (no serialization is
/// built). Stable across processes and runs. Never returns 0 (0 is reserved
/// as the "no fingerprint" sentinel, so a default-constructed
/// CompiledPreference can never alias a real one in the match cache).
uint64_t RulesetFingerprint(const AppelRuleset& ruleset);

}  // namespace p3pdb::appel

#endif  // P3PDB_APPEL_FINGERPRINT_H_
