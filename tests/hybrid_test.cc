// Tests for the hybrid architecture (§4.2) and the cookie matching path
// (§5.5's COOKIE-INCLUDE/COOKIE-EXCLUDE).

#include <gtest/gtest.h>

#include "server/hybrid_client.h"
#include "server/policy_server.h"
#include "workload/paper_examples.h"

namespace p3pdb::server {
namespace {

using workload::JanePreference;
using workload::VolgaPolicy;
using workload::VolgaReferenceFile;

std::unique_ptr<PolicyServer> MakeSqlServer() {
  auto server = PolicyServer::Create({.engine = EngineKind::kSql});
  EXPECT_TRUE(server.ok()) << server.status();
  return std::move(server).value();
}

TEST(HybridClientTest, ResolvesLocallyAndMatchesRemotely) {
  auto server = MakeSqlServer();
  auto id = server->InstallPolicy(VolgaPolicy());
  ASSERT_TRUE(id.ok());
  auto pref = server->CompilePreference(JanePreference());
  ASSERT_TRUE(pref.ok());

  HybridClient client(server.get());
  ASSERT_TRUE(client.FetchReferenceFile(VolgaReferenceFile()).ok());

  auto result = client.Check(pref.value(), "/catalog/books");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().behavior, "request");
  EXPECT_EQ(result.value().policy_id, id.value());
  EXPECT_EQ(client.local_resolutions(), 1u);

  auto excluded = client.Check(pref.value(), "/about/team.html");
  ASSERT_TRUE(excluded.ok());
  EXPECT_FALSE(excluded.value().policy_found);
  EXPECT_EQ(client.local_resolutions(), 2u);
}

TEST(HybridClientTest, SkipsServerSideUriResolution) {
  auto server = MakeSqlServer();
  ASSERT_TRUE(server->InstallPolicy(VolgaPolicy()).ok());
  auto pref = server->CompilePreference(JanePreference());
  ASSERT_TRUE(pref.ok());
  HybridClient client(server.get());
  ASSERT_TRUE(client.FetchReferenceFile(VolgaReferenceFile()).ok());

  // The server never received InstallReferenceFile, so full-server MatchUri
  // fails while the hybrid path works — proof the resolution is local.
  EXPECT_FALSE(server->MatchUri(pref.value(), "/catalog").ok());
  auto result = client.Check(pref.value(), "/catalog");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().behavior, "request");
}

TEST(HybridClientTest, CheckBeforeFetchFails) {
  auto server = MakeSqlServer();
  ASSERT_TRUE(server->InstallPolicy(VolgaPolicy()).ok());
  auto pref = server->CompilePreference(JanePreference());
  ASSERT_TRUE(pref.ok());
  HybridClient client(server.get());
  EXPECT_FALSE(client.Check(pref.value(), "/x").ok());
}

TEST(HybridClientTest, UnresolvedAboutReportsNoPolicy) {
  auto server = MakeSqlServer();
  ASSERT_TRUE(server->InstallPolicy(VolgaPolicy()).ok());
  auto pref = server->CompilePreference(JanePreference());
  ASSERT_TRUE(pref.ok());
  HybridClient client(server.get());
  p3p::ReferenceFile rf;
  p3p::PolicyRef ref;
  ref.about = "/P3P/policies.xml#no-such-policy";
  ref.includes.push_back("/*");
  rf.AddRef(ref);
  ASSERT_TRUE(client.FetchReferenceFile(rf).ok());
  auto result = client.Check(pref.value(), "/anything");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().policy_found);
}

TEST(HybridClientTest, CookiePathUsesCookiePatterns) {
  auto server = MakeSqlServer();
  ASSERT_TRUE(server->InstallPolicy(VolgaPolicy()).ok());
  auto pref = server->CompilePreference(JanePreference());
  ASSERT_TRUE(pref.ok());
  HybridClient client(server.get());
  ASSERT_TRUE(client.FetchReferenceFile(VolgaReferenceFile()).ok());
  auto cookie = client.CheckCookie(pref.value(), "/session");
  ASSERT_TRUE(cookie.ok());
  EXPECT_TRUE(cookie.value().policy_found);
  EXPECT_EQ(cookie.value().behavior, "request");
}

TEST(PolicyServerCookieTest, MatchCookieAcrossEngines) {
  for (EngineKind kind :
       {EngineKind::kNativeAppel, EngineKind::kSql, EngineKind::kSqlSimple,
        EngineKind::kXQueryNative, EngineKind::kXQueryXTable}) {
    PolicyServer::Options options;
    options.engine = kind;
    options.augmentation = kind == EngineKind::kNativeAppel
                               ? Augmentation::kPerMatch
                               : Augmentation::kAtInstall;
    auto server = PolicyServer::Create(options);
    ASSERT_TRUE(server.ok()) << server.status();
    ASSERT_TRUE(server.value()->InstallPolicy(VolgaPolicy()).ok());
    ASSERT_TRUE(
        server.value()->InstallReferenceFile(VolgaReferenceFile()).ok());
    auto pref = server.value()->CompilePreference(JanePreference());
    ASSERT_TRUE(pref.ok()) << pref.status();

    auto cookie = server.value()->MatchCookie(pref.value(), "/session");
    ASSERT_TRUE(cookie.ok()) << EngineKindName(kind) << ": "
                             << cookie.status();
    EXPECT_EQ(cookie.value().behavior, "request") << EngineKindName(kind);

    // Page patterns must not leak into cookie resolution: the reference
    // file's INCLUDE covers /* but its COOKIE-INCLUDE does too, so probe a
    // file with a rf that lacks cookie patterns.
    p3p::ReferenceFile rf;
    p3p::PolicyRef ref;
    ref.about = "/P3P/policies.xml#volga";
    ref.includes.push_back("/*");
    rf.AddRef(ref);
    ASSERT_TRUE(server.value()->InstallReferenceFile(rf).ok());
    auto none = server.value()->MatchCookie(pref.value(), "/session");
    ASSERT_TRUE(none.ok()) << EngineKindName(kind);
    EXPECT_FALSE(none.value().policy_found) << EngineKindName(kind);
  }
}

}  // namespace
}  // namespace p3pdb::server
