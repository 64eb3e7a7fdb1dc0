// Observability demo: trace a match end to end, read the server's
// Prometheus metrics, EXPLAIN ANALYZE a generated rule query, and scrape
// the live telemetry surfaces.
//
// Views onto the same request:
//   1. A per-request trace — the span tree from ref-file lookup through the
//      generated SQL's parse/bind/execute (or, on the native engine, the §6
//      breakdown: category augmentation and connective evaluation).
//   2. The server's metrics registry — counters and latency histograms in
//      Prometheus exposition text and JSON.
//   3. EXPLAIN ANALYZE — the Figure 15 rule query's plan annotated with
//      actual rows/loops/time per node and the bound parameter values.
//   4. Statement-level telemetry — per-fingerprint aggregates for every
//      rule query the match executed, plus the slow-query ring with
//      captured plans.
//   5. The embedded HTTP admin endpoint, scraped over a real socket.
//
//   $ ./observability_demo

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "obs/slow_log.h"
#include "obs/trace.h"
#include "server/policy_server.h"
#include "sqldb/value.h"
#include "workload/paper_examples.h"

using p3pdb::server::Augmentation;
using p3pdb::server::EngineKind;
using p3pdb::server::PolicyServer;

namespace {

int Fail(const char* what, const p3pdb::Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

// One-shot HTTP GET against 127.0.0.1:port — just enough client to scrape
// the admin endpoint from inside the demo.
std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? response : response.substr(body + 4);
}

}  // namespace

int main() {
  // -- 1. SQL engine, full telemetry enabled; the match below is traced ----
  // A 10µs slow threshold is deliberately aggressive so this demo's handful
  // of matches lands something in the slow-query ring; production would use
  // milliseconds. admin_port = 0 binds an ephemeral localhost port.
  auto server = PolicyServer::Create({.engine = EngineKind::kSql,
                                      .slow_query_threshold_us = 10,
                                      .trace_sample_every = 2,
                                      .enable_admin_endpoint = true,
                                      .admin_port = 0});
  if (!server.ok()) return Fail("server", server.status());
  auto policy_id =
      server.value()->InstallPolicy(p3pdb::workload::VolgaPolicy());
  if (!policy_id.ok()) return Fail("install", policy_id.status());
  auto rf = server.value()->InstallReferenceFile(
      p3pdb::workload::VolgaReferenceFile());
  if (!rf.ok()) return Fail("reference file", rf);
  auto pref =
      server.value()->CompilePreference(p3pdb::workload::JanePreference());
  if (!pref.ok()) return Fail("compile", pref.status());

  p3pdb::obs::TraceContext trace;
  auto result = server.value()->MatchUri(pref.value(),
                                         "/catalog/books/1984", &trace);
  if (!result.ok()) return Fail("match", result.status());
  std::printf("=== SQL engine: traced MatchUri ===\n%s\n",
              trace.RenderText().c_str());

  // -- 2. Native APPEL engine: the §6 breakdown ----------------------------
  auto native = PolicyServer::Create({.engine = EngineKind::kNativeAppel,
                                      .augmentation = Augmentation::kPerMatch});
  if (!native.ok()) return Fail("native server", native.status());
  auto native_id =
      native.value()->InstallPolicy(p3pdb::workload::VolgaPolicy());
  if (!native_id.ok()) return Fail("native install", native_id.status());
  auto native_pref =
      native.value()->CompilePreference(p3pdb::workload::JanePreference());
  if (!native_pref.ok()) return Fail("native compile", native_pref.status());

  p3pdb::obs::TraceContext native_trace;
  auto native_result = native.value()->MatchPolicyId(
      native_pref.value(), native_id.value(), &native_trace);
  if (!native_result.ok()) return Fail("native match", native_result.status());
  std::printf(
      "=== Native APPEL engine: traced MatchPolicyId ===\n"
      "(category-augmentation dominates by work counter — the §6.3.2 "
      "finding)\n%s\n",
      native_trace.RenderText().c_str());

  // -- 3. Server metrics ---------------------------------------------------
  std::printf("=== SQL server metrics (Prometheus exposition) ===\n%s\n",
              server.value()->RenderMetricsText().c_str());
  std::printf("=== Same registry as JSON ===\n%s\n\n",
              server.value()->RenderMetricsJson().c_str());

  // -- 4. EXPLAIN ANALYZE on a generated rule query ------------------------
  // Pick the first parameterized rule query and profile it against the
  // installed policy, with the bound value annotated into the plan.
  const p3pdb::translator::SqlRuleset& sql = pref.value().sql;
  for (size_t i = 0; i < sql.rule_queries.size(); ++i) {
    if (sql.param_counts[i] == 0) continue;
    std::vector<p3pdb::sqldb::Value> params(
        sql.param_counts[i],
        p3pdb::sqldb::Value::Integer(policy_id.value()));
    auto plan = server.value()->database()->Execute(
        "EXPLAIN ANALYZE " + sql.rule_queries[i], params);
    if (!plan.ok()) return Fail("explain analyze", plan.status());
    std::printf(
        "=== EXPLAIN ANALYZE, rule %zu (behavior '%s') ===\n", i + 1,
        sql.behaviors[i].c_str());
    for (const auto& row : plan.value().rows) {
      std::printf("%s\n", row[0].AsText().c_str());
    }
    break;
  }

  // -- 5. Statement telemetry + slow-query log -----------------------------
  // Every SELECT the matches above executed was fingerprinted (literals and
  // params normalized to '?'); aggregates accumulate per fingerprint. Run a
  // few more matches so the hottest rule queries separate from the rest.
  for (const char* uri : {"/catalog/books/1984", "/checkout", "/search"}) {
    auto extra = server.value()->MatchUri(pref.value(), uri);
    if (!extra.ok()) return Fail("extra match", extra.status());
  }
  std::printf("\n=== Hottest statements (what /statements?top=5 serves) ===\n%s",
              server.value()->RenderStatementStatsText(5).c_str());
  std::printf(
      "\n=== Slow-query log (threshold 10us; what /slow serves) ===\n%s\n",
      server.value()
          ->RenderSlowLogJson(p3pdb::obs::SlowQueryEntry::Kind::kSlow)
          .c_str());

  // -- 6. The embedded admin endpoint, scraped live ------------------------
  if (server.value()->admin_endpoint_running()) {
    uint16_t port = server.value()->admin_port();
    std::printf("=== Admin endpoint live on http://127.0.0.1:%u ===\n", port);
    std::printf("GET /healthz -> %s\n", HttpGet(port, "/healthz").c_str());
    std::string metrics = HttpGet(port, "/metrics");
    std::printf("GET /metrics -> %zu bytes of Prometheus text, e.g.:\n",
                metrics.size());
    size_t shown = 0;
    for (size_t pos = 0; pos < metrics.size() && shown < 4;) {
      size_t eol = metrics.find('\n', pos);
      if (eol == std::string::npos) eol = metrics.size();
      std::string line = metrics.substr(pos, eol - pos);
      if (!line.empty() && line[0] != '#') {
        std::printf("  %s\n", line.c_str());
        ++shown;
      }
      pos = eol + 1;
    }
    std::printf("(also serving /metrics.json, /statements?top=N, /slow, "
                "/traces)\n");
  }
  return 0;
}
