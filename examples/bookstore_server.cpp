// A multi-policy site, the scenario the reference file exists for
// (paper §2.3, §5.5).
//
// Volga's site has three areas with different data practices:
//   /catalog  — browsing: clickstream only, anonymous              (lenient)
//   /shop     — checkout: name, address, payment data              (Figure 1)
//   /community— forum: email + content, shared with other readers  (leaky)
// A reference file maps each URI subtree to its policy. Three users with
// different APPEL sensitivity levels browse the site; the server routes
// each request to the governing policy and evaluates the user's rules.
// Mid-session the site softens the community policy (a new version), and
// the decisions change — the versioning the paper argues databases manage
// better than files.
//
//   $ ./bookstore_server

#include <cstdio>

#include "server/policy_server.h"
#include "workload/jrc_preferences.h"
#include "workload/paper_examples.h"

using p3pdb::appel::AppelRuleset;
using p3pdb::p3p::DataGroup;
using p3pdb::p3p::DataItem;
using p3pdb::p3p::Policy;
using p3pdb::p3p::PolicyRef;
using p3pdb::p3p::PolicyStatement;
using p3pdb::p3p::PurposeItem;
using p3pdb::p3p::RecipientItem;
using p3pdb::p3p::ReferenceFile;
using p3pdb::p3p::Required;
using p3pdb::Status;
using p3pdb::server::EngineKind;
using p3pdb::server::PolicyServer;
using p3pdb::workload::JrcPreference;
using p3pdb::workload::PreferenceLevel;
using p3pdb::workload::PreferenceLevelName;

namespace {

Policy CatalogPolicy() {
  Policy policy;
  policy.name = "catalog";
  policy.discuri = "http://volga.example.com/privacy/catalog.html";
  policy.access = "nonident";
  PolicyStatement stmt;
  stmt.consequence = "We keep anonymous clickstream logs to run the site.";
  stmt.purposes.push_back(PurposeItem{"current", Required::kAlways});
  stmt.purposes.push_back(PurposeItem{"admin", Required::kAlways});
  stmt.recipients.push_back(RecipientItem{"ours", Required::kAlways});
  stmt.retention = "stated-purpose";
  DataGroup group;
  group.items.push_back(DataItem{"dynamic.clickstream", false, {}});
  group.items.push_back(DataItem{"dynamic.http.useragent", false, {}});
  stmt.data_groups.push_back(std::move(group));
  policy.statements.push_back(std::move(stmt));
  return policy;
}

Policy CommunityPolicy(bool softened) {
  Policy policy;
  policy.name = "community";
  policy.discuri = "http://volga.example.com/privacy/community.html";
  policy.access = "contact-and-other";
  PolicyStatement stmt;
  stmt.consequence =
      "Your posts and email are visible to other community members; we may "
      "contact you about replies.";
  stmt.purposes.push_back(PurposeItem{"current", Required::kAlways});
  stmt.purposes.push_back(PurposeItem{
      "contact", softened ? Required::kOptIn : Required::kAlways});
  stmt.recipients.push_back(RecipientItem{"ours", Required::kAlways});
  stmt.recipients.push_back(RecipientItem{
      "public", softened ? Required::kOptOut : Required::kAlways});
  stmt.retention = "indefinitely";
  DataGroup group;
  group.items.push_back(
      DataItem{"user.home-info.online.email", false, {}});
  group.items.push_back(DataItem{"dynamic.interactionrecord", false, {}});
  stmt.data_groups.push_back(std::move(group));
  policy.statements.push_back(std::move(stmt));
  return policy;
}

ReferenceFile SiteReferenceFile() {
  ReferenceFile rf;
  rf.expiry_max_age = 86400;
  PolicyRef catalog;
  catalog.about = "/P3P/policies.xml#catalog";
  catalog.includes.push_back("/catalog/*");
  catalog.includes.push_back("/index.html");
  rf.AddRef(std::move(catalog));
  PolicyRef shop;
  shop.about = "/P3P/policies.xml#volga";
  shop.includes.push_back("/shop/*");
  rf.AddRef(std::move(shop));
  PolicyRef community;
  community.about = "/P3P/policies.xml#community";
  community.includes.push_back("/community/*");
  community.excludes.push_back("/community/help/*");
  rf.AddRef(std::move(community));
  return rf;
}

}  // namespace

int main() {
  auto server = PolicyServer::Create({.engine = EngineKind::kSql});
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    return 1;
  }
  for (const Policy& policy :
       {CatalogPolicy(), p3pdb::workload::VolgaPolicy(),
        CommunityPolicy(/*softened=*/false)}) {
    auto id = server.value()->InstallPolicy(policy);
    if (!id.ok()) {
      std::fprintf(stderr, "install %s: %s\n", policy.name.c_str(),
                   id.status().ToString().c_str());
      return 1;
    }
    std::printf("installed policy '%s' (id %lld, version %lld)\n",
                policy.name.c_str(),
                static_cast<long long>(id.value()),
                static_cast<long long>(
                    server.value()->PolicyVersion(policy.name)));
  }
  if (Status st = server.value()->InstallReferenceFile(SiteReferenceFile());
      !st.ok()) {
    std::fprintf(stderr, "reference file: %s\n", st.ToString().c_str());
    return 1;
  }

  struct User {
    const char* name;
    PreferenceLevel level;
  };
  const User users[] = {{"Alice", PreferenceLevel::kHigh},
                        {"Bob", PreferenceLevel::kMedium},
                        {"Carol", PreferenceLevel::kVeryLow}};
  const char* paths[] = {"/index.html", "/catalog/scifi",
                         "/shop/checkout", "/community/thread/42",
                         "/community/help/faq", "/press/releases.html"};

  auto run_session = [&](const char* banner) {
    std::printf("\n=== %s ===\n", banner);
    std::printf("%-24s", "request");
    for (const User& user : users) {
      std::string header =
          std::string(user.name) + " (" + PreferenceLevelName(user.level) +
          ")";
      std::printf(" | %-22s", header.c_str());
    }
    std::printf("\n");
    for (const char* path : paths) {
      std::printf("%-24s", path);
      for (const User& user : users) {
        auto pref =
            server.value()->CompilePreference(JrcPreference(user.level));
        if (!pref.ok()) {
          std::printf(" | %-22s", pref.status().ToString().c_str());
          continue;
        }
        auto result = server.value()->MatchUri(pref.value(), path);
        std::printf(" | %-22s",
                    result.ok() ? result.value().behavior.c_str()
                                : result.status().ToString().c_str());
      }
      std::printf("\n");
    }
  };

  run_session("initial policies");

  // The community team reacts to blocked users: contact becomes opt-in and
  // public sharing opt-out. Installing the new version re-points the
  // reference resolution automatically.
  auto v2 = server.value()->InstallPolicy(CommunityPolicy(/*softened=*/true));
  if (!v2.ok()) {
    std::fprintf(stderr, "reinstall: %s\n", v2.status().ToString().c_str());
    return 1;
  }
  if (Status st = server.value()->InstallReferenceFile(SiteReferenceFile());
      !st.ok()) {
    std::fprintf(stderr, "reference file: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\ncommunity policy softened -> version %lld\n",
              static_cast<long long>(
                  server.value()->PolicyVersion("community")));
  run_session("after the community policy update");

  std::printf(
      "\nNote how /community/* flips from block to request for Bob (Medium) "
      "once choice is\noffered — Alice's High preference still rejects any "
      "public recipient — while\n/press (no policy) and /community/help "
      "(EXCLUDEd) report '%s'.\n",
      p3pdb::server::kNoPolicyBehavior);
  return 0;
}
