// Admin-endpoint lifecycle tests: bind/serve/shutdown on an ephemeral
// port, every route's status and content type, query parsing, 404/405
// handling, and concurrent scrapes while matches run (exercised under TSan
// in CI).

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "server/admin_http.h"
#include "server/policy_server.h"
#include "workload/corpus.h"
#include "workload/jrc_preferences.h"

namespace p3pdb::server {
namespace {

/// One blocking HTTP GET against localhost:port; returns the raw response
/// (head + body), empty on connect failure.
std::string HttpGet(uint16_t port, const std::string& target) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Body(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

std::unique_ptr<PolicyServer> MakeAdminServer(
    uint64_t slow_threshold_us = 0) {
  PolicyServer::Options options;
  options.engine = EngineKind::kSql;
  options.enable_admin_endpoint = true;
  options.admin_port = 0;  // ephemeral
  options.slow_query_threshold_us = slow_threshold_us;
  auto server = PolicyServer::Create(options);
  EXPECT_TRUE(server.ok()) << server.status().message();
  return std::move(server).value();
}

/// Installs a few policies and runs matches so the telemetry has content.
void WarmUp(PolicyServer* server, int matches = 5) {
  workload::CorpusOptions corpus_options;
  corpus_options.policy_count = 3;
  for (const auto& policy : workload::FortuneCorpus(corpus_options)) {
    ASSERT_TRUE(server->InstallPolicy(policy).ok());
  }
  auto pref = server->CompilePreference(
      workload::JrcPreference(workload::PreferenceLevel::kMedium));
  ASSERT_TRUE(pref.ok());
  for (int i = 0; i < matches; ++i) {
    for (int64_t id : server->policy_ids()) {
      ASSERT_TRUE(server->MatchPolicyId(pref.value(), id).ok());
    }
  }
}

TEST(AdminHttpTest, DisabledByDefault) {
  PolicyServer::Options options;
  auto server = PolicyServer::Create(options);
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE(server.value()->admin_endpoint_running());
  EXPECT_EQ(server.value()->admin_port(), 0);
}

TEST(AdminHttpTest, BindsEphemeralPortAndServesHealthz) {
  auto server = MakeAdminServer();
  ASSERT_TRUE(server->admin_endpoint_running());
  ASSERT_NE(server->admin_port(), 0);
  std::string response = HttpGet(server->admin_port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  // The probe reports catalog state, not a bare ok: epoch, policy count,
  // and one entry-count object per match-cache shard.
  const std::string body = Body(response);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"catalog_epoch\":"), std::string::npos);
  EXPECT_NE(body.find("\"policies\":"), std::string::npos);
  EXPECT_NE(body.find("\"match_cache_shards\":["), std::string::npos);
  EXPECT_NE(body.find("{\"shard\":0,\"entries\":"), std::string::npos);
}

TEST(AdminHttpTest, MetricsRouteServesPrometheusText) {
  auto server = MakeAdminServer();
  WarmUp(server.get());
  std::string response = HttpGet(server->admin_port(), "/metrics");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string body = Body(response);
  EXPECT_NE(body.find("# TYPE p3p_matches_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("p3p_build_info{git_sha=\""), std::string::npos);
  EXPECT_NE(body.find("p3p_uptime_seconds"), std::string::npos);
  EXPECT_NE(body.find("p3p_match_duration_us_bucket{le=\""),
            std::string::npos);
}

TEST(AdminHttpTest, MetricsJsonRouteServesJson) {
  auto server = MakeAdminServer();
  WarmUp(server.get());
  std::string response = HttpGet(server->admin_port(), "/metrics.json");
  EXPECT_NE(response.find("application/json"), std::string::npos);
  const std::string body = Body(response);
  EXPECT_NE(body.find("\"counters\""), std::string::npos);
  EXPECT_NE(body.find("\"p3p_matches_total\""), std::string::npos);
}

TEST(AdminHttpTest, StatementsRouteOrdersAndHonorsTop) {
  auto server = MakeAdminServer();
  WarmUp(server.get());
  const std::string body =
      Body(HttpGet(server->admin_port(), "/statements?top=5"));
  // The translated rule queries are parameterized SELECTs against the
  // optimized schema; at least one aggregate entry must be present with
  // its call count.
  EXPECT_NE(body.find("\"sql\": \"select"), std::string::npos);
  EXPECT_NE(body.find("\"calls\": "), std::string::npos);
  EXPECT_NE(body.find("\"p99_us\": "), std::string::npos);

  // top=1 returns at most one entry.
  const std::string top1 =
      Body(HttpGet(server->admin_port(), "/statements?top=1"));
  size_t entries = 0;
  for (size_t pos = 0;
       (pos = top1.find("\"fingerprint\"", pos)) != std::string::npos;
       ++pos) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(AdminHttpTest, StatementsTopOverflowFallsBackToDefault) {
  auto server = MakeAdminServer();
  // 25 distinct statement shapes: more than the default top of 20, so the
  // fallback and "all" (top=0) are told apart.
  std::string select = "SELECT 1";
  for (int width = 1; width <= 25; ++width) {
    ASSERT_TRUE(
        server->database()->Execute(select + " FROM PolicyCatalog").ok());
    select += ", 1";
  }
  auto entries = [&](const std::string& target) {
    const std::string body = Body(HttpGet(server->admin_port(), target));
    size_t count = 0;
    for (size_t pos = 0;
         (pos = body.find("\"fingerprint\"", pos)) != std::string::npos;
         ++pos) {
      ++count;
    }
    return count;
  };
  EXPECT_GE(entries("/statements?top=0"), 25u);
  EXPECT_EQ(entries("/statements"), 20u);
  // 2^64 does not fit a size_t: malformed, not wrapped to 0 ("all").
  EXPECT_EQ(entries("/statements?top=18446744073709551616"), 20u);
  EXPECT_EQ(entries("/statements?top=99999999999999999999999"), 20u);
  EXPECT_GE(entries("/statements?top=18446744073709551615"), 25u);
}

TEST(AdminHttpTest, SlowRouteServesCapturedPlans) {
  auto server = MakeAdminServer(/*slow_threshold_us=*/1);
  WarmUp(server.get(), /*matches=*/2);
  const std::string body = Body(HttpGet(server->admin_port(), "/slow"));
  EXPECT_NE(body.find("\"kind\": \"slow\""), std::string::npos);
  EXPECT_NE(body.find("\"plan\": \""), std::string::npos);
  // /traces filters to samples only; with no sampling stride configured it
  // must be an empty array even though /slow has entries.
  const std::string traces = Body(HttpGet(server->admin_port(), "/traces"));
  EXPECT_EQ(traces.find("\"kind\": \"slow\""), std::string::npos);
}

TEST(AdminHttpTest, UnknownRouteIs404AndPostIs405) {
  auto server = MakeAdminServer();
  EXPECT_NE(HttpGet(server->admin_port(), "/nope").find("404 Not Found"),
            std::string::npos);
  // Hand-roll a POST.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->admin_port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request =
      "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("405 Method Not Allowed"), std::string::npos);
}

TEST(AdminHttpTest, ConcurrentScrapesDuringMatchesAreSafe) {
  auto server = MakeAdminServer();
  WarmUp(server.get(), /*matches=*/1);
  auto pref = server->CompilePreference(
      workload::JrcPreference(workload::PreferenceLevel::kMedium));
  ASSERT_TRUE(pref.ok());

  std::atomic<bool> stop{false};
  std::thread matcher([&] {
    while (!stop.load()) {
      for (int64_t id : server->policy_ids()) {
        (void)server->MatchPolicyId(pref.value(), id);
      }
    }
  });
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&server] {
      for (int i = 0; i < 10; ++i) {
        EXPECT_NE(
            HttpGet(server->admin_port(), "/metrics").find("200 OK"),
            std::string::npos);
        EXPECT_NE(HttpGet(server->admin_port(), "/statements?top=3")
                      .find("200 OK"),
                  std::string::npos);
      }
    });
  }
  for (auto& s : scrapers) s.join();
  stop.store(true);
  matcher.join();
  EXPECT_GE(server->MetricsSnapshot().counters.at("p3p_matches_total"), 1u);
}

TEST(AdminHttpTest, ShutdownClosesTheListener) {
  uint16_t port = 0;
  {
    auto server = MakeAdminServer();
    port = server->admin_port();
    ASSERT_NE(HttpGet(port, "/healthz").find("200 OK"), std::string::npos);
  }
  // The destructor stopped the admin thread and closed the socket; a new
  // connection must now fail (empty response).
  EXPECT_EQ(HttpGet(port, "/healthz"), "");
}

}  // namespace
}  // namespace p3pdb::server
