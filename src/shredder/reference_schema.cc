#include "shredder/reference_schema.h"

namespace p3pdb::shredder {

namespace {

using sqldb::Value;

constexpr const char* kReferenceDdl = R"sql(
CREATE TABLE Meta (
  meta_id INTEGER NOT NULL,
  PRIMARY KEY (meta_id)
);
CREATE TABLE Policyref (
  policyref_id INTEGER NOT NULL,
  meta_id INTEGER NOT NULL,
  about VARCHAR(255) NOT NULL,
  policy_id INTEGER,
  PRIMARY KEY (policyref_id),
  FOREIGN KEY (meta_id) REFERENCES Meta (meta_id),
  FOREIGN KEY (policy_id) REFERENCES Policy (policy_id)
);
CREATE TABLE Include (
  include_id INTEGER NOT NULL,
  policyref_id INTEGER NOT NULL,
  pattern VARCHAR(255) NOT NULL,
  PRIMARY KEY (include_id),
  FOREIGN KEY (policyref_id) REFERENCES Policyref (policyref_id)
);
CREATE TABLE Exclude (
  exclude_id INTEGER NOT NULL,
  policyref_id INTEGER NOT NULL,
  pattern VARCHAR(255) NOT NULL,
  PRIMARY KEY (exclude_id),
  FOREIGN KEY (policyref_id) REFERENCES Policyref (policyref_id)
);
CREATE TABLE CookieInclude (
  cookieinclude_id INTEGER NOT NULL,
  policyref_id INTEGER NOT NULL,
  pattern VARCHAR(255) NOT NULL,
  PRIMARY KEY (cookieinclude_id),
  FOREIGN KEY (policyref_id) REFERENCES Policyref (policyref_id)
);
CREATE TABLE CookieExclude (
  cookieexclude_id INTEGER NOT NULL,
  policyref_id INTEGER NOT NULL,
  pattern VARCHAR(255) NOT NULL,
  PRIMARY KEY (cookieexclude_id),
  FOREIGN KEY (policyref_id) REFERENCES Policyref (policyref_id)
);
CREATE INDEX idx_include_ref ON Include (policyref_id);
CREATE INDEX idx_exclude_ref ON Exclude (policyref_id);
CREATE INDEX idx_cookieinclude_ref ON CookieInclude (policyref_id);
CREATE INDEX idx_cookieexclude_ref ON CookieExclude (policyref_id);
)sql";

}  // namespace

Status InstallReferenceSchema(sqldb::Database* db) {
  if (db->LookupTable("Policy") == nullptr) {
    return Status::InvalidArgument(
        "install a policy schema before the reference schema (Policyref "
        "references Policy)");
  }
  return db->ExecuteScript(kReferenceDdl);
}

std::string UriPatternToLike(std::string_view pattern) {
  std::string out;
  out.reserve(pattern.size());
  for (char c : pattern) {
    switch (c) {
      case '*':
        out.push_back('%');
        break;
      case '%':
      case '_':
      case '\\':
        out.push_back('\\');
        out.push_back(c);
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

Result<int64_t> ReferenceShredder::ShredReferenceFile(
    const p3p::ReferenceFile& rf,
    const std::map<std::string, int64_t>& policy_ids) {
  const int64_t meta_id = next_id_++;
  P3PDB_RETURN_IF_ERROR(db_->InsertRow("Meta", {Value::Integer(meta_id)}));

  for (const p3p::PolicyRef& ref : rf.refs()) {
    const int64_t policyref_id = next_id_++;
    auto it = policy_ids.find(ref.about);
    Value policy_id =
        it == policy_ids.end() ? Value::Null() : Value::Integer(it->second);
    P3PDB_RETURN_IF_ERROR(db_->InsertRow(
        "Policyref", {Value::Integer(policyref_id), Value::Integer(meta_id),
                      Value::Text(ref.about), std::move(policy_id)}));

    auto insert_patterns = [&](const char* table,
                               const std::vector<std::string>& patterns)
        -> Status {
      for (const std::string& pattern : patterns) {
        P3PDB_RETURN_IF_ERROR(db_->InsertRow(
            table, {Value::Integer(next_id_++), Value::Integer(policyref_id),
                    Value::Text(UriPatternToLike(pattern))}));
      }
      return Status::OK();
    };
    P3PDB_RETURN_IF_ERROR(insert_patterns("Include", ref.includes));
    P3PDB_RETURN_IF_ERROR(insert_patterns("Exclude", ref.excludes));
    P3PDB_RETURN_IF_ERROR(
        insert_patterns("CookieInclude", ref.cookie_includes));
    P3PDB_RETURN_IF_ERROR(
        insert_patterns("CookieExclude", ref.cookie_excludes));
  }
  return meta_id;
}

void ReferenceShredder::ResumeIds() {
  // One sequence across all six reference tables; the id is always the
  // first column.
  int64_t max_id = 0;
  for (const char* name : {"Meta", "Policyref", "Include", "Exclude",
                           "CookieInclude", "CookieExclude"}) {
    const sqldb::Table* table = db_->LookupTable(name);
    if (table == nullptr) continue;
    for (size_t slot = 0; slot < table->SlotCount(); ++slot) {
      if (!table->IsLive(slot)) continue;
      const Value& id = table->RowAt(slot)[0];
      if (!id.is_null() && id.AsInteger() > max_id) max_id = id.AsInteger();
    }
  }
  next_id_ = max_id + 1;
}

}  // namespace p3pdb::shredder
