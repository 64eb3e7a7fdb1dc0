#include "shredder/policy_catalog.h"

#include "p3p/policy_xml.h"

namespace p3pdb::shredder {

using sqldb::Value;

namespace {

constexpr const char* kCatalogDdl = R"sql(
CREATE TABLE PolicyCatalog (
  policy_id INTEGER NOT NULL,
  name VARCHAR(255) NOT NULL,
  version INTEGER NOT NULL,
  xml TEXT,
  PRIMARY KEY (policy_id)
);
CREATE INDEX idx_catalog_name ON PolicyCatalog (name);
CREATE TABLE RefFileCatalog (
  ref_id INTEGER NOT NULL,
  xml TEXT,
  PRIMARY KEY (ref_id)
);
)sql";

}  // namespace

bool PolicyCatalog::Present() const {
  return db_->LookupTable("PolicyCatalog") != nullptr;
}

Status PolicyCatalog::CreateTables() { return db_->ExecuteScript(kCatalogDdl); }

Status PolicyCatalog::Scan(
    const std::function<Status(const Row&)>& on_row) const {
  const sqldb::Table* catalog = db_->LookupTable("PolicyCatalog");
  if (catalog == nullptr) return Status::Internal("PolicyCatalog missing");
  // Inserts append, so slots are in install order: ids ascend, and a name's
  // last row is its latest version.
  for (size_t slot = 0; slot < catalog->SlotCount(); ++slot) {
    if (!catalog->IsLive(slot)) continue;
    const sqldb::RowView row = catalog->RowAt(slot);
    P3PDB_RETURN_IF_ERROR(on_row({row[0].AsInteger(),
                                  std::string(row[1].AsText()),
                                  row[2].AsInteger(),
                                  std::string(row[3].AsText())}));
  }
  return Status::OK();
}

Status PolicyCatalog::Restore(
    const std::function<Status(const Row&)>& on_row) {
  return Scan([&](const Row& row) {
    auto it = latest_.find(row.name);
    if (it == latest_.end()) it = latest_.emplace(row.name, Latest{}).first;
    it->second = {row.id, row.version};
    ++rows_;
    return on_row(row);
  });
}

Result<int64_t> PolicyCatalog::Append(int64_t id, const p3p::Policy& policy) {
  std::string name =
      policy.name.empty() ? "policy-" + std::to_string(id) : policy.name;
  const int64_t version = LatestVersion(name) + 1;
  P3PDB_RETURN_IF_ERROR(db_->InsertRow(
      "PolicyCatalog", {Value::Integer(id), Value::Text(name),
                        Value::Integer(version),
                        Value::Text(p3p::PolicyToText(policy))}));
  latest_[std::move(name)] = {id, version};
  ++rows_;
  return version;
}

Status PolicyCatalog::PutReferenceFile(const p3p::ReferenceFile& rf) {
  P3PDB_RETURN_IF_ERROR(db_->Execute("DELETE FROM RefFileCatalog").status());
  return db_->InsertRow(
      "RefFileCatalog",
      {Value::Integer(0), Value::Text(p3p::ReferenceFileToText(rf))});
}

std::optional<int64_t> PolicyCatalog::LatestId(std::string_view name) const {
  auto it = latest_.find(name);
  if (it == latest_.end()) return std::nullopt;
  return it->second.id;
}

int64_t PolicyCatalog::LatestVersion(std::string_view name) const {
  auto it = latest_.find(name);
  return it == latest_.end() ? 0 : it->second.version;
}

Result<std::string> PolicyCatalog::PolicyXml(std::string_view name,
                                             int64_t version) const {
  P3PDB_ASSIGN_OR_RETURN(
      sqldb::QueryResult result,
      db_->Execute(
          "SELECT xml FROM PolicyCatalog WHERE name = ? AND version = ?",
          {Value::Text(name), Value::Integer(version)}));
  if (result.rows.empty()) {
    return Status::NotFound("no version " + std::to_string(version) +
                            " of policy '" + std::string(name) + "'");
  }
  return std::string(result.rows[0][0].AsText());
}

Result<std::optional<p3p::ReferenceFile>> PolicyCatalog::ReferenceFile()
    const {
  std::optional<p3p::ReferenceFile> rf;
  const sqldb::Table* table = db_->LookupTable("RefFileCatalog");
  for (size_t slot = 0; table != nullptr && slot < table->SlotCount();
       ++slot) {
    if (!table->IsLive(slot)) continue;
    P3PDB_ASSIGN_OR_RETURN(
        rf, p3p::ReferenceFileFromText(table->RowAt(slot)[1].AsText()));
  }
  return rf;
}

}  // namespace p3pdb::shredder
