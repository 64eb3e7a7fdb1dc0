// The applicablePolicy() function of the paper's Figure 11: a query over
// the reference-file tables (Figure 16) returning the id of the policy
// governing a requested URI.
//
// The paper materializes its result as the one-row temporary table
// "ApplicablePolicy" that the generated rule queries select FROM and join
// on policy_id (Figure 13's preamble). The server instead binds the id to
// a `?` in each rule query and keeps ApplicablePolicy as a static one-row
// FROM anchor that matches never write (server/policy_server.cc).

#ifndef P3PDB_TRANSLATOR_APPLICABLE_POLICY_H_
#define P3PDB_TRANSLATOR_APPLICABLE_POLICY_H_

#include <string>
#include <string_view>

namespace p3pdb::translator {

/// Name of the one-row table the rule queries select FROM.
inline constexpr const char* kApplicablePolicyTable = "ApplicablePolicy";

/// Builds the SQL locating the applicable policy for `local_path` per spec
/// §2.4.1: the first POLICY-REF (document order) with a matching INCLUDE
/// and no matching EXCLUDE. Patterns were converted to LIKE at shred time.
/// That ref decides even when it names no installed policy: its row's
/// policy_id is then NULL, which means no policy.
std::string ApplicablePolicyQuery(std::string_view local_path,
                                  bool for_cookie = false);

/// DDL for the ApplicablePolicy table.
std::string ApplicablePolicyDdl();

}  // namespace p3pdb::translator

#endif  // P3PDB_TRANSLATOR_APPLICABLE_POLICY_H_
