#include "server/hybrid_client.h"

namespace p3pdb::server {

Status HybridClient::FetchReferenceFile(const p3p::ReferenceFile& rf) {
  ref_policy_id_.clear();
  for (const p3p::PolicyRef& ref : rf.refs()) {
    ref_policy_id_.push_back(server_->FindPolicyIdByAbout(ref.about));
  }
  cached_rf_ = rf;
  has_rf_ = true;
  return Status::OK();
}

Result<MatchResult> HybridClient::Dispatch(const CompiledPreference& pref,
                                           std::optional<size_t> ref) {
  if (!ref.has_value() || !ref_policy_id_[*ref].has_value()) {
    MatchResult result;
    result.behavior = kNoPolicyBehavior;
    result.policy_found = false;
    return result;
  }
  return server_->MatchPolicyId(pref, *ref_policy_id_[*ref]);
}

Result<MatchResult> HybridClient::Check(const CompiledPreference& pref,
                                        std::string_view local_path) {
  if (!has_rf_) {
    return Status::InvalidArgument("no reference file fetched");
  }
  ++local_resolutions_;
  return Dispatch(pref, cached_rf_.RefIndexForPath(local_path));
}

Result<MatchResult> HybridClient::CheckCookie(const CompiledPreference& pref,
                                              std::string_view cookie_path) {
  if (!has_rf_) {
    return Status::InvalidArgument("no reference file fetched");
  }
  ++local_resolutions_;
  return Dispatch(pref, cached_rf_.RefIndexForCookie(cookie_path));
}

}  // namespace p3pdb::server
