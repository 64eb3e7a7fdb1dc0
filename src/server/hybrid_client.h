// The hybrid architecture sketched in the paper's §4.2: "it is possible to
// design a hybrid architecture in which the reference file processing is
// done at the client while the preference checking is done at the server."
//
// HybridClient models the client half: it fetches and caches the site's
// reference file once, resolves every requested URI locally against the
// cached INCLUDE/EXCLUDE patterns, and only calls into the server for the
// actual preference evaluation (by policy id). When the user visits many
// pages governed by the same policy, this skips the server-side
// applicablePolicy() query per request — the caching benefit the paper
// credits the client-centric design with, retained inside the
// server-centric one.

#ifndef P3PDB_SERVER_HYBRID_CLIENT_H_
#define P3PDB_SERVER_HYBRID_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "p3p/reference_file.h"
#include "server/policy_server.h"

namespace p3pdb::server {

class HybridClient {
 public:
  /// The client talks to one site's server. The server must outlive the
  /// client.
  explicit HybridClient(PolicyServer* server) : server_(server) {}

  /// "Downloads" the site's reference file into the local cache and
  /// resolves the policy names it mentions to server-side policy ids.
  Status FetchReferenceFile(const p3p::ReferenceFile& rf);

  /// Checks one page request: local URI resolution, server-side matching.
  Result<MatchResult> Check(const CompiledPreference& pref,
                            std::string_view local_path);

  /// Same for a cookie path (COOKIE-INCLUDE/COOKIE-EXCLUDE patterns).
  Result<MatchResult> CheckCookie(const CompiledPreference& pref,
                                  std::string_view cookie_path);

  /// Number of URI resolutions served from the local cache.
  uint64_t local_resolutions() const { return local_resolutions_; }

 private:
  /// Matches the policy of POLICY-REF `ref` (nullopt: no ref covers the
  /// URI) on the server.
  Result<MatchResult> Dispatch(const CompiledPreference& pref,
                               std::optional<size_t> ref);

  PolicyServer* server_;
  p3p::ReferenceFile cached_rf_;
  bool has_rf_ = false;
  /// Server-side policy id of each POLICY-REF of cached_rf_, by ref index;
  /// nullopt when the server holds no policy with that `about`.
  std::vector<std::optional<int64_t>> ref_policy_id_;
  uint64_t local_resolutions_ = 0;
};

}  // namespace p3pdb::server

#endif  // P3PDB_SERVER_HYBRID_CLIENT_H_
