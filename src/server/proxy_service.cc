#include "server/proxy_service.h"

#include <chrono>

namespace p3pdb::server {

Result<PolicyServer*> ProxyService::AddSite(std::string host) {
  if (host.empty()) {
    return Status::InvalidArgument("empty host");
  }
  if (sites_.find(host) != sites_.end()) {
    return Status::AlreadyExists("site '" + host + "' already registered");
  }
  P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<PolicyServer> server,
                         PolicyServer::Create(site_options_));
  Site site;
  site.server = std::move(server);
  PolicyServer* raw = site.server.get();
  sites_.emplace(std::move(host), std::move(site));
  return raw;
}

PolicyServer* ProxyService::GetSite(std::string_view host) {
  auto it = sites_.find(host);
  return it == sites_.end() ? nullptr : it->second.server.get();
}

Status ProxyService::Subscribe(std::string user,
                               const appel::AppelRuleset& preference) {
  P3PDB_RETURN_IF_ERROR(preference.Validate());
  // A changed preference invalidates every cached compilation.
  for (auto& [host, site] : sites_) {
    DropCompiled(&site, user);
  }
  users_[std::move(user)] = preference;
  return Status::OK();
}

Status ProxyService::Unsubscribe(std::string_view user) {
  auto it = users_.find(user);
  if (it == users_.end()) {
    return Status::NotFound("no subscriber '" + std::string(user) + "'");
  }
  users_.erase(it);
  for (auto& [host, site] : sites_) {
    DropCompiled(&site, user);
  }
  return Status::OK();
}

void ProxyService::DropCompiled(Site* site, std::string_view user) {
  auto it = site->compiled_index.find(user);
  if (it == site->compiled_index.end()) return;
  site->compiled.erase(it->second);
  site->compiled_index.erase(it);
  compiled_entries_->Add(-1);
}

size_t ProxyService::compiled_count(std::string_view host) const {
  auto it = sites_.find(host);
  return it == sites_.end() ? 0 : it->second.compiled.size();
}

Result<const CompiledPreference*> ProxyService::CompiledFor(
    std::string_view user, Site* site) {
  auto cached = site->compiled_index.find(user);
  if (cached != site->compiled_index.end()) {
    site->compiled.splice(site->compiled.begin(), site->compiled,
                          cached->second);
    return &cached->second->second;
  }
  auto account = users_.find(user);
  if (account == users_.end()) {
    return Status::NotFound("no subscriber '" + std::string(user) + "'");
  }
  P3PDB_ASSIGN_OR_RETURN(CompiledPreference compiled,
                         site->server->CompilePreference(account->second));
  site->compiled.emplace_front(std::string(user), std::move(compiled));
  site->compiled_index.insert_or_assign(std::string(user),
                                        site->compiled.begin());
  compiled_entries_->Add(1);
  if (site->compiled.size() > compiled_capacity_per_site_) {
    // The least recently active user loses their slot; their preference is
    // simply recompiled on their next request through this site.
    site->compiled_index.erase(site->compiled.back().first);
    site->compiled.pop_back();
    compiled_evictions_total_->Increment();
    compiled_entries_->Add(-1);
  }
  return &site->compiled.begin()->second;
}

Result<MatchResult> ProxyService::Handle(std::string_view user,
                                         std::string_view host,
                                         std::string_view path, bool cookie,
                                         obs::TraceContext* trace) {
  // The proxy span opens regardless of the site's enable_tracing option —
  // the proxy is its own deployment; a null context is still free.
  obs::ScopedSpan span(trace, "proxy-request");
  if (span.active()) {
    span.SetAttr("user", user);
    span.SetAttr("host", host);
    span.SetAttr("path", path);
    if (cookie) span.SetAttr("cookie", "true");
  }
  auto start = std::chrono::steady_clock::now();
  Result<MatchResult> result = [&]() -> Result<MatchResult> {
    auto site_it = sites_.find(host);
    if (site_it == sites_.end()) {
      return Status::NotFound("no site '" + std::string(host) + "'");
    }
    P3PDB_ASSIGN_OR_RETURN(const CompiledPreference* pref,
                           CompiledFor(user, &site_it->second));
    PolicyServer* server = site_it->second.server.get();
    return cookie ? server->MatchCookie(*pref, path, trace)
                  : server->MatchUri(*pref, path, trace);
  }();
  (cookie ? cookie_requests_total_ : requests_total_)->Increment();
  if (!result.ok()) request_errors_total_->Increment();
  request_us_->Record(static_cast<uint64_t>(
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count()));
  if (span.active() && result.ok()) {
    span.SetAttr("behavior", result.value().behavior);
  }
  return result;
}

Result<MatchResult> ProxyService::HandleRequest(std::string_view user,
                                                std::string_view host,
                                                std::string_view path,
                                                obs::TraceContext* trace) {
  return Handle(user, host, path, /*cookie=*/false, trace);
}

Result<MatchResult> ProxyService::HandleCookie(std::string_view user,
                                               std::string_view host,
                                               std::string_view cookie_path,
                                               obs::TraceContext* trace) {
  return Handle(user, host, cookie_path, /*cookie=*/true, trace);
}

}  // namespace p3pdb::server
