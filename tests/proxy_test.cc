// Tests for the JRC-style proxy service (paper §3.3): multi-site hosting,
// subscriber accounts, compiled-preference caching and invalidation.

#include <gtest/gtest.h>

#include "server/proxy_service.h"
#include "workload/jrc_preferences.h"
#include "workload/paper_examples.h"

namespace p3pdb::server {
namespace {

using workload::JanePreference;
using workload::JrcPreference;
using workload::PreferenceLevel;
using workload::VolgaPolicy;
using workload::VolgaReferenceFile;

class ProxyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two sites: Volga the bookseller and a leakier marketing site.
    auto volga = proxy_.AddSite("volga.example.com");
    ASSERT_TRUE(volga.ok()) << volga.status();
    ASSERT_TRUE(volga.value()->InstallPolicy(VolgaPolicy()).ok());
    ASSERT_TRUE(
        volga.value()->InstallReferenceFile(VolgaReferenceFile()).ok());

    auto ads = proxy_.AddSite("ads.example.org");
    ASSERT_TRUE(ads.ok());
    p3p::Policy tracker = VolgaPolicy();
    tracker.name = "tracker";
    tracker.statements[0].purposes.push_back(
        p3p::PurposeItem{"telemarketing", p3p::Required::kAlways});
    tracker.statements[0].recipients.push_back(
        p3p::RecipientItem{"unrelated", p3p::Required::kAlways});
    ASSERT_TRUE(ads.value()->InstallPolicy(tracker).ok());
    p3p::ReferenceFile rf;
    p3p::PolicyRef ref;
    ref.about = "/P3P/policies.xml#tracker";
    ref.includes.push_back("/*");
    rf.AddRef(ref);
    ASSERT_TRUE(ads.value()->InstallReferenceFile(rf).ok());

    ASSERT_TRUE(proxy_.Subscribe("jane", JanePreference()).ok());
    ASSERT_TRUE(
        proxy_.Subscribe("carefree",
                         JrcPreference(PreferenceLevel::kVeryLow))
            .ok());
  }

  ProxyService proxy_;
};

TEST_F(ProxyTest, RoutesPerSiteAndPerUser) {
  auto jane_volga =
      proxy_.HandleRequest("jane", "volga.example.com", "/catalog");
  ASSERT_TRUE(jane_volga.ok()) << jane_volga.status();
  EXPECT_EQ(jane_volga.value().behavior, "request");

  auto jane_ads = proxy_.HandleRequest("jane", "ads.example.org", "/pixel");
  ASSERT_TRUE(jane_ads.ok());
  EXPECT_EQ(jane_ads.value().behavior, "block");

  auto carefree_ads =
      proxy_.HandleRequest("carefree", "ads.example.org", "/pixel");
  ASSERT_TRUE(carefree_ads.ok());
  EXPECT_EQ(carefree_ads.value().behavior, "request");
}

TEST_F(ProxyTest, UnknownHostAndUser) {
  EXPECT_EQ(proxy_.HandleRequest("jane", "nowhere.example", "/")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      proxy_.HandleRequest("stranger", "volga.example.com", "/").status()
          .code(),
      StatusCode::kNotFound);
}

TEST_F(ProxyTest, ResubscribeChangesDecisions) {
  // Jane relaxes to Very Low: the tracker is suddenly fine.
  ASSERT_TRUE(
      proxy_.Subscribe("jane", JrcPreference(PreferenceLevel::kVeryLow))
          .ok());
  auto relaxed = proxy_.HandleRequest("jane", "ads.example.org", "/pixel");
  ASSERT_TRUE(relaxed.ok());
  EXPECT_EQ(relaxed.value().behavior, "request");

  // And back to a strict preference: blocked again (the cached compiled
  // form must have been invalidated both times).
  ASSERT_TRUE(proxy_.Subscribe("jane", JanePreference()).ok());
  auto strict = proxy_.HandleRequest("jane", "ads.example.org", "/pixel");
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(strict.value().behavior, "block");
}

TEST_F(ProxyTest, UnsubscribeRemovesAccount) {
  ASSERT_TRUE(proxy_.Unsubscribe("jane").ok());
  EXPECT_EQ(
      proxy_.HandleRequest("jane", "volga.example.com", "/").status().code(),
      StatusCode::kNotFound);
  EXPECT_FALSE(proxy_.Unsubscribe("jane").ok());
  EXPECT_EQ(proxy_.user_count(), 1u);
}

TEST_F(ProxyTest, DuplicateSiteRejected) {
  EXPECT_EQ(proxy_.AddSite("volga.example.com").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(proxy_.AddSite("").ok());
  EXPECT_EQ(proxy_.site_count(), 2u);
}

TEST_F(ProxyTest, CookieRequestsUseCookiePatterns) {
  auto cookie =
      proxy_.HandleCookie("jane", "volga.example.com", "/session");
  ASSERT_TRUE(cookie.ok()) << cookie.status();
  EXPECT_TRUE(cookie.value().policy_found);
  // ads site registered no COOKIE-INCLUDE: no policy for its cookies.
  auto ads_cookie =
      proxy_.HandleCookie("jane", "ads.example.org", "/session");
  ASSERT_TRUE(ads_cookie.ok());
  EXPECT_FALSE(ads_cookie.value().policy_found);
}

TEST_F(ProxyTest, InvalidPreferenceRejectedAtSubscribe) {
  appel::AppelRuleset empty;
  EXPECT_FALSE(proxy_.Subscribe("x", empty).ok());
}

TEST(ProxyLruTest, CompiledPreferencesAreBoundedPerSite) {
  // An open-ended subscriber population must not grow a site's compiled map
  // without bound: the cache is LRU with a per-site capacity.
  ProxyService proxy(PolicyServer::Options{},
                     /*compiled_capacity_per_site=*/3);
  EXPECT_EQ(proxy.compiled_capacity_per_site(), 3u);
  auto site = proxy.AddSite("volga.example.com");
  ASSERT_TRUE(site.ok());
  ASSERT_TRUE(site.value()->InstallPolicy(VolgaPolicy()).ok());
  ASSERT_TRUE(
      site.value()->InstallReferenceFile(VolgaReferenceFile()).ok());

  for (int u = 0; u < 5; ++u) {
    std::string user = "user" + std::to_string(u);
    ASSERT_TRUE(proxy.Subscribe(user, JanePreference()).ok());
    auto r = proxy.HandleRequest(user, "volga.example.com", "/catalog");
    ASSERT_TRUE(r.ok()) << r.status();
  }
  // Five users touched the site; only the three most recent keep a slot.
  EXPECT_EQ(proxy.compiled_count("volga.example.com"), 3u);
  obs::MetricsSnapshot snap = proxy.MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("proxy_compiled_evictions_total"), 2u);
  EXPECT_EQ(snap.gauges.at("proxy_compiled_entries"), 3);

  // An evicted user's next request recompiles (correct result, one more
  // eviction as the capacity stays full).
  auto back = proxy.HandleRequest("user0", "volga.example.com", "/catalog");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().behavior, "request");
  snap = proxy.MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("proxy_compiled_evictions_total"), 3u);
  EXPECT_EQ(proxy.compiled_count("volga.example.com"), 3u);

  // Recency is tracked through hits, not just inserts: touch the oldest
  // resident, then add a new user — the untouched one is evicted.
  auto touched =
      proxy.HandleRequest("user3", "volga.example.com", "/catalog");
  ASSERT_TRUE(touched.ok());
  ASSERT_TRUE(proxy.Subscribe("user5", JanePreference()).ok());
  auto newest = proxy.HandleRequest("user5", "volga.example.com", "/catalog");
  ASSERT_TRUE(newest.ok());
  // user4 (the only resident neither touched nor new) was evicted; user3
  // kept its slot.
  auto user3_again =
      proxy.HandleRequest("user3", "volga.example.com", "/catalog");
  ASSERT_TRUE(user3_again.ok());
  snap = proxy.MetricsSnapshot();
  // user5's insert evicted one; user3's repeat was a cache hit (no change).
  EXPECT_EQ(snap.counters.at("proxy_compiled_evictions_total"), 4u);
  EXPECT_EQ(proxy.compiled_count("volga.example.com"), 3u);

  // Unsubscribe drops the user's slot immediately.
  ASSERT_TRUE(proxy.Unsubscribe("user5").ok());
  EXPECT_EQ(proxy.compiled_count("volga.example.com"), 2u);
  snap = proxy.MetricsSnapshot();
  EXPECT_EQ(snap.gauges.at("proxy_compiled_entries"), 2);
}

TEST(ProxyEngineTest, WorksOnNativeEngineToo) {
  PolicyServer::Options options;
  options.engine = EngineKind::kNativeAppel;
  options.augmentation = Augmentation::kPerMatch;
  ProxyService proxy(options);
  auto site = proxy.AddSite("volga.example.com");
  ASSERT_TRUE(site.ok());
  ASSERT_TRUE(site.value()->InstallPolicy(VolgaPolicy()).ok());
  ASSERT_TRUE(
      site.value()->InstallReferenceFile(VolgaReferenceFile()).ok());
  ASSERT_TRUE(proxy.Subscribe("jane", JanePreference()).ok());
  auto result =
      proxy.HandleRequest("jane", "volga.example.com", "/catalog");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().behavior, "request");
}

}  // namespace
}  // namespace p3pdb::server
