#include "translator/applicable_policy.h"

#include "common/string_util.h"

namespace p3pdb::translator {

std::string ApplicablePolicyQuery(std::string_view local_path,
                                  bool for_cookie) {
  const char* include_table = for_cookie ? "CookieInclude" : "Include";
  const char* exclude_table = for_cookie ? "CookieExclude" : "Exclude";
  std::string path_literal = SqlQuote(local_path);
  std::string sql = "SELECT Policyref.policy_id FROM Policyref WHERE ";
  sql += "EXISTS (SELECT * FROM ";
  sql += include_table;
  sql += " WHERE ";
  sql += include_table;
  sql += ".policyref_id = Policyref.policyref_id AND ";
  sql += path_literal;
  sql += " LIKE ";
  sql += include_table;
  sql += ".pattern ESCAPE '\\') AND NOT EXISTS (SELECT * FROM ";
  sql += exclude_table;
  sql += " WHERE ";
  sql += exclude_table;
  sql += ".policyref_id = Policyref.policyref_id AND ";
  sql += path_literal;
  sql += " LIKE ";
  sql += exclude_table;
  sql += ".pattern ESCAPE '\\') ORDER BY Policyref.policyref_id LIMIT 1";
  return sql;
}

std::string ApplicablePolicyDdl() {
  return std::string("CREATE TABLE ") + kApplicablePolicyTable +
         " (policy_id INTEGER NOT NULL)";
}

}  // namespace p3pdb::translator
