// PolicyCatalog: the policy catalog of the paper's §4.2 ("policy versioning
// in the database"), and the one module that knows its format. Table
// PolicyCatalog holds a (policy_id, name, version, xml) row per install, in
// install order: the original, un-augmented text, named "policy-<id>" when
// the policy has none. Table RefFileCatalog holds the site's reference
// file. In memory: each name's latest {id, version}, rebuilt on reopen.
//
// Like the Figure 8, 14 and 16 schemas beside it, this is tables plus their
// populator. A PolicyServer keeps its catalog next to its shredded tables;
// the sharded tier's durable store is a catalog in a database of its own.
// Not thread-safe: the owner serializes every call.

#ifndef P3PDB_SHREDDER_POLICY_CATALOG_H_
#define P3PDB_SHREDDER_POLICY_CATALOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "p3p/policy.h"
#include "p3p/reference_file.h"
#include "sqldb/database.h"

namespace p3pdb::shredder {

class PolicyCatalog {
 public:
  /// A row as a scan hands it out; the views live for the call only.
  struct Row {
    int64_t id;
    std::string_view name;
    int64_t version;
    std::string_view text;
  };

  explicit PolicyCatalog(sqldb::Database* db) : db_(db) {}

  /// Whether the tables exist (a reopened directory): Restore reads them,
  /// otherwise CreateTables makes them.
  bool Present() const;
  Status CreateTables();
  /// Hands each row to `on_row`, in install order.
  Status Scan(const std::function<Status(const Row&)>& on_row) const;
  /// Scan that also rebuilds the name index (once, on reopen).
  Status Restore(const std::function<Status(const Row&)>& on_row);

  /// Stores a new install of `policy` under `id`; returns its version.
  Result<int64_t> Append(int64_t id, const p3p::Policy& policy);
  Status PutReferenceFile(const p3p::ReferenceFile& rf);

  size_t size() const { return rows_; }
  /// Nullopt / 0 when the name was never installed.
  std::optional<int64_t> LatestId(std::string_view name) const;
  int64_t LatestVersion(std::string_view name) const;
  Result<std::string> PolicyXml(std::string_view name, int64_t version) const;
  /// Nullopt when none was stored.
  Result<std::optional<p3p::ReferenceFile>> ReferenceFile() const;

  sqldb::Database* database() const { return db_; }

 private:
  struct Latest {
    int64_t id;
    int64_t version;
  };
  sqldb::Database* db_;
  std::map<std::string, Latest, std::less<>> latest_;
  size_t rows_ = 0;
};

}  // namespace p3pdb::shredder

#endif  // P3PDB_SHREDDER_POLICY_CATALOG_H_
