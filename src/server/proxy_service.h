// A centralized P3P checking proxy, modeled on the JRC P3P Proxy the paper
// describes in §3.3: "a centralized proxy service that conducts P3P privacy
// policy checking on behalf of subscribed users. A user can specify her
// APPEL preference for her account ... her further browsing requests are
// redirected to the proxy service," which matches policy against preference
// and acts for the user.
//
// Here the proxy is built on the server-centric machinery: it hosts one
// PolicyServer per site, keeps each subscriber's APPEL preference, compiles
// it lazily per site (the compiled form is engine-specific), and answers
// HandleRequest(user, host, path) with the user's decision for that page.

#ifndef P3PDB_SERVER_PROXY_SERVICE_H_
#define P3PDB_SERVER_PROXY_SERVICE_H_

#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "appel/model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/policy_server.h"

namespace p3pdb::server {

class ProxyService {
 public:
  /// `site_options` configures every hosted site's engine (the proxy is a
  /// single deployment; all sites share the engine choice).
  /// `compiled_capacity_per_site` bounds each site's cache of per-user
  /// compiled preferences: the proxy serves an open-ended user population,
  /// so the cache is LRU — the least recently active user's compiled form
  /// is dropped (and recompiled on their next request) rather than letting
  /// the map grow with every subscriber who ever touched the site.
  ProxyService() : ProxyService(PolicyServer::Options{}) {}
  explicit ProxyService(PolicyServer::Options site_options,
                        size_t compiled_capacity_per_site = 64)
      : site_options_(site_options),
        compiled_capacity_per_site_(compiled_capacity_per_site == 0
                                        ? 1
                                        : compiled_capacity_per_site) {
    requests_total_ = metrics_.GetCounter("proxy_requests_total");
    cookie_requests_total_ = metrics_.GetCounter("proxy_cookie_requests_total");
    request_errors_total_ = metrics_.GetCounter("proxy_request_errors_total");
    compiled_evictions_total_ =
        metrics_.GetCounter("proxy_compiled_evictions_total");
    compiled_entries_ = metrics_.GetGauge("proxy_compiled_entries");
    request_us_ = metrics_.GetHistogram("proxy_request_duration_us");
  }

  ProxyService(const ProxyService&) = delete;
  ProxyService& operator=(const ProxyService&) = delete;

  /// Registers a site and returns its PolicyServer so the caller can
  /// install policies and the reference file. Fails if the host exists.
  Result<PolicyServer*> AddSite(std::string host);

  /// The site's server, or nullptr.
  PolicyServer* GetSite(std::string_view host);

  /// Creates or replaces a user's account preference. Replacing drops the
  /// user's cached compiled forms (the preference changed).
  Status Subscribe(std::string user, const appel::AppelRuleset& preference);

  Status Unsubscribe(std::string_view user);

  /// Full proxy pipeline for one browsing request: find the site, compile
  /// the user's preference for it (cached), locate the applicable policy
  /// for the path, evaluate. NotFound for unknown host or user. A non-null
  /// `trace` gets a `proxy-request` root span (user/host/path attributes)
  /// and is forwarded into the site server's match, whose spans nest under
  /// it.
  Result<MatchResult> HandleRequest(std::string_view user,
                                    std::string_view host,
                                    std::string_view path,
                                    obs::TraceContext* trace = nullptr);

  /// Cookie variant of HandleRequest.
  Result<MatchResult> HandleCookie(std::string_view user,
                                   std::string_view host,
                                   std::string_view cookie_path,
                                   obs::TraceContext* trace = nullptr);

  /// Proxy-level instruments (request counts/latency); each hosted site's
  /// PolicyServer keeps its own registry in addition.
  obs::MetricsSnapshot MetricsSnapshot() const { return metrics_.Snapshot(); }
  std::string RenderMetricsText() const { return metrics_.RenderText(); }
  std::string RenderMetricsJson() const { return metrics_.RenderJson(); }

  size_t site_count() const { return sites_.size(); }
  size_t user_count() const { return users_.size(); }
  size_t compiled_capacity_per_site() const {
    return compiled_capacity_per_site_;
  }
  /// Live compiled-preference entries for one site (for tests/inspection).
  size_t compiled_count(std::string_view host) const;

 private:
  // Bounded per-site cache of compiled preferences, LRU front = most
  // recently used, with the index map pointing into the list.
  using CompiledLru = std::list<std::pair<std::string, CompiledPreference>>;

  struct Site {
    std::unique_ptr<PolicyServer> server;
    // user -> preference compiled for this site's engine
    CompiledLru compiled;
    std::map<std::string, CompiledLru::iterator, std::less<>> compiled_index;
  };

  Result<const CompiledPreference*> CompiledFor(std::string_view user,
                                                Site* site);
  void DropCompiled(Site* site, std::string_view user);

  /// Shared body of HandleRequest/HandleCookie: span + metrics around the
  /// site lookup, compile, and match.
  Result<MatchResult> Handle(std::string_view user, std::string_view host,
                             std::string_view path, bool cookie,
                             obs::TraceContext* trace);

  PolicyServer::Options site_options_;
  size_t compiled_capacity_per_site_;
  std::map<std::string, Site, std::less<>> sites_;
  std::map<std::string, appel::AppelRuleset, std::less<>> users_;

  obs::MetricsRegistry metrics_;
  obs::Counter* requests_total_ = nullptr;
  obs::Counter* cookie_requests_total_ = nullptr;
  obs::Counter* request_errors_total_ = nullptr;
  obs::Counter* compiled_evictions_total_ = nullptr;
  obs::Gauge* compiled_entries_ = nullptr;
  obs::Histogram* request_us_ = nullptr;
};

}  // namespace p3pdb::server

#endif  // P3PDB_SERVER_PROXY_SERVICE_H_
