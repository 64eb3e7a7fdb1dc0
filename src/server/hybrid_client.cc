#include "server/hybrid_client.h"

namespace p3pdb::server {

Status HybridClient::FetchReferenceFile(const p3p::ReferenceFile& rf) {
  about_to_policy_id_.clear();
  for (const p3p::PolicyRef& ref : rf.refs()) {
    std::optional<int64_t> id = server_->FindPolicyIdByAbout(ref.about);
    if (id.has_value()) {
      about_to_policy_id_[ref.about] = *id;
    }
  }
  cached_rf_ = rf;
  has_rf_ = true;
  return Status::OK();
}

Result<MatchResult> HybridClient::Dispatch(
    const CompiledPreference& pref,
    const std::optional<std::string>& about) {
  if (!about.has_value()) {
    MatchResult result;
    result.behavior = kNoPolicyBehavior;
    result.policy_found = false;
    return result;
  }
  auto it = about_to_policy_id_.find(*about);
  if (it == about_to_policy_id_.end()) {
    MatchResult result;
    result.behavior = kNoPolicyBehavior;
    result.policy_found = false;
    return result;
  }
  return server_->MatchPolicyId(pref, it->second);
}

Result<MatchResult> HybridClient::Check(const CompiledPreference& pref,
                                        std::string_view local_path) {
  if (!has_rf_) {
    return Status::InvalidArgument("no reference file fetched");
  }
  ++local_resolutions_;
  return Dispatch(pref, cached_rf_.PolicyForPath(local_path));
}

Result<MatchResult> HybridClient::CheckCookie(const CompiledPreference& pref,
                                              std::string_view cookie_path) {
  if (!has_rf_) {
    return Status::InvalidArgument("no reference file fetched");
  }
  ++local_resolutions_;
  return Dispatch(pref, cached_rf_.PolicyForCookie(cookie_path));
}

}  // namespace p3pdb::server
