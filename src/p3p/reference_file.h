// P3P reference files (P3P 1.0 Recommendation §2.3-2.4; paper §2.3, §5.5).
//
// A site's reference file maps portions of its URI space to policies via
// POLICY-REF elements carrying INCLUDE/EXCLUDE URI patterns ('*' wildcards).
// Locating the applicable policy for a requested URI is the first step of
// every preference check; in the server-centric architecture this lookup is
// itself answered from shredded tables (Figure 16).
//
// In memory, the same lookup goes through an index instead of a scan of
// every POLICY-REF — the analogue of Figure 16's reference tables. Every
// pattern that can match a path starts with its literal prefix (the text
// before the first '*', or the whole pattern), so AddRef files each ref
// under the literal prefixes of its INCLUDE and COOKIE-INCLUDE patterns in
// a hash table keyed by prefix. A lookup walks the path once, probing the
// table at each length some prefix has, and checks only the refs found
// there, with UriPatternMatch and in document order.

#ifndef P3PDB_P3P_REFERENCE_FILE_H_
#define P3PDB_P3P_REFERENCE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "xml/node.h"

namespace p3pdb::p3p {

/// One POLICY-REF element.
struct PolicyRef {
  std::string about;  // policy URI, e.g. "/P3P/policies.xml#shopping"
  std::vector<std::string> includes;
  std::vector<std::string> excludes;
  std::vector<std::string> cookie_includes;
  std::vector<std::string> cookie_excludes;
};

/// A parsed reference file (META / POLICY-REFERENCES). POLICY-REFs enter
/// only through AddRef, which keeps the prefix indexes in step with them.
class ReferenceFile {
 public:
  /// The POLICY-REFs in document order.
  const std::vector<PolicyRef>& refs() const { return refs_; }

  /// Appends a POLICY-REF (last in document order) and indexes its INCLUDE
  /// and COOKIE-INCLUDE patterns; O(total pattern bytes), amortized.
  void AddRef(PolicyRef ref);

  /// Returns the index into refs() of the first POLICY-REF covering
  /// `local_path` (spec §2.4.1: INCLUDEs match and no EXCLUDE matches; refs
  /// are tried in document order). nullopt when no policy covers the path.
  /// Allocates nothing.
  std::optional<size_t> RefIndexForPath(std::string_view local_path) const;

  /// Same, for a cookie's path using COOKIE-INCLUDE/COOKIE-EXCLUDE.
  std::optional<size_t> RefIndexForCookie(std::string_view cookie_path) const;

  /// The `about` URI of the ref RefIndexForPath finds, copied out.
  std::optional<std::string> PolicyForPath(std::string_view local_path) const;

  /// The `about` URI of the ref RefIndexForCookie finds, copied out.
  std::optional<std::string> PolicyForCookie(
      std::string_view cookie_path) const;

  /// Seconds from EXPIRY max-age; -1 when absent (spec default is 86400).
  long expiry_max_age = -1;

 private:
  /// Literal prefix -> refs with an indexed pattern starting with it. The
  /// distinct prefixes are stored once, back to back in `bytes`; each has a
  /// posting list (in ref order) threaded through `postings`, and an
  /// open-addressing `table` finds a prefix by its FNV-1a hash, which a
  /// lookup extends one path byte at a time.
  struct PrefixIndex {
    static constexpr size_t kNone = SIZE_MAX;

    struct Prefix {
      size_t offset = 0;  // into bytes
      size_t length = 0;
      uint64_t hash = 0;
      size_t head = kNone;  // first posting
      size_t tail = kNone;  // last posting
    };
    struct Posting {
      size_t ref = 0;
      size_t next = kNone;
    };

    /// Files `ref` under the literal prefix of `pattern` (an empty pattern
    /// matches nothing and is not filed).
    void Add(std::string_view pattern, size_t ref);

    /// The index into `prefixes` of `prefix`, whose hash is `hash`, or
    /// kNone.
    size_t Find(std::string_view prefix, uint64_t hash) const;

    void Rehash(size_t slots);

    std::string bytes;
    std::vector<Prefix> prefixes;
    std::vector<Posting> postings;
    std::vector<size_t> table;        // prefix index, or kNone when empty
    std::vector<uint8_t> has_length;  // [n] != 0: some prefix is n bytes
  };

  /// The index of the first ref in document order that one of its
  /// `includes` patterns matches and none of its `excludes` does, or
  /// nullopt.
  std::optional<size_t> FindRef(
      const PrefixIndex& index, std::string_view path,
      const std::vector<std::string> PolicyRef::* includes,
      const std::vector<std::string> PolicyRef::* excludes) const;

  std::vector<PolicyRef> refs_;
  PrefixIndex includes_;
  PrefixIndex cookie_includes_;
};

/// '*' wildcard match over a URI local path (spec §2.4.2). An empty pattern
/// matches nothing; "/*" matches everything under the root.
bool UriPatternMatch(std::string_view pattern, std::string_view path);

Result<ReferenceFile> ReferenceFileFromXml(const xml::Element& root);
Result<ReferenceFile> ReferenceFileFromText(std::string_view text);
std::unique_ptr<xml::Element> ReferenceFileToXml(const ReferenceFile& rf);
std::string ReferenceFileToText(const ReferenceFile& rf);

}  // namespace p3pdb::p3p

#endif  // P3PDB_P3P_REFERENCE_FILE_H_
