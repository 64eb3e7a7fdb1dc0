#include "workload/corpus.h"

#include <algorithm>

#include "common/random.h"
#include "p3p/policy_xml.h"
#include "p3p/vocab.h"

namespace p3pdb::workload {

using p3p::DataGroup;
using p3p::DataItem;
using p3p::Policy;
using p3p::PolicyStatement;
using p3p::PurposeItem;
using p3p::RecipientItem;
using p3p::Required;

namespace {

/// Statement counts per policy: 29 entries summing to 54 (§6.2: 54
/// statements across 29 policies). The 6-statement entry yields the corpus
/// maximum, the 1-statement entries the minimum.
constexpr int kStatementPlan[] = {2, 1, 3, 1, 2, 1, 2, 2, 1, 3,
                                  1, 2, 1, 2, 1, 4, 2, 1, 2, 1,
                                  3, 1, 2, 1, 2, 1, 2, 1, 6};
static_assert(sizeof(kStatementPlan) / sizeof(int) == 29);

constexpr const char* kCompanies[] = {
    "atlantic-telecom",   "baxter-mutual",     "cascade-air",
    "dynacorp-retail",    "evergreen-bank",    "fairfield-press",
    "granite-insurance",  "horizon-freight",   "ionic-software",
    "juniper-health",     "keystone-motors",   "lakeshore-media",
    "meridian-travel",    "northgate-foods",   "orion-utilities",
    "pinnacle-books",     "quantum-devices",   "redwood-apparel",
    "summit-brokerage",   "tidewater-energy",  "unity-hotels",
    "vanguard-paper",     "westbrook-labs",    "xenon-chemicals",
    "yorktown-steel",     "zephyr-airlines",   "crestview-realty",
    "bluefin-seafoods",   "silverline-credit",
};
static_assert(sizeof(kCompanies) / sizeof(const char*) == 29);

constexpr const char* kConsequenceTemplates[] = {
    "We collect this information to complete and support the activity you "
    "requested on our site, including fulfillment, billing, and customer "
    "service follow-up when something goes wrong with your order.",
    "This information helps us administer the site, diagnose technical "
    "problems, and keep our services running reliably for all visitors.",
    "With this data we tailor the pages you see to your region and "
    "interests so that the catalog you browse is relevant to you.",
    "Aggregate records of page visits let our research group understand "
    "how the site is used and plan capacity for seasonal demand.",
    "If you consent, we analyze your history with us to recommend "
    "products and occasionally bring new offerings to your attention.",
    "Our fulfillment partners receive only what they need to deliver your "
    "purchase to your door and are bound by equivalent privacy practices.",
    "We retain transaction records as required for tax and regulatory "
    "purposes and destroy them on the schedule published in our policy.",
};

constexpr const char* kPlainDataRefs[] = {
    "user.name",
    "user.name.given",
    "user.name.family",
    "user.bdate",
    "user.gender",
    "user.employer",
    "user.jobtitle",
    "user.home-info.postal",
    "user.home-info.postal.street",
    "user.home-info.postal.city",
    "user.home-info.postal.postalcode",
    "user.home-info.telecom.telephone",
    "user.home-info.online.email",
    "user.business-info.postal",
    "user.business-info.online.email",
    "user.login.id",
    "dynamic.clickstream",
    "dynamic.http.useragent",
    "dynamic.searchtext",
    "dynamic.interactionrecord",
    "thirdparty.name",
    "thirdparty.home-info.postal",
};

constexpr const char* kMiscCategories[] = {
    "purchase", "financial", "preference", "content", "demographic",
    "interactive",
};

/// Purposes beyond `current` a statement may add, with whether they can be
/// offered as a choice.
struct ExtraPurpose {
  const char* value;
  bool optable;
};
constexpr ExtraPurpose kExtraPurposes[] = {
    {"admin", false},          {"develop", false},
    {"tailoring", true},       {"pseudo-analysis", true},
    {"pseudo-decision", true}, {"individual-analysis", true},
    {"individual-decision", true}, {"contact", true},
    {"historical", false},     {"telemarketing", true},
    {"other-purpose", true},
};

PolicyStatement MakeStatement(Random* rng, const std::string& company,
                              bool heavy) {
  PolicyStatement stmt;
  // Crawled policies carried long human-readable consequences; compose a
  // few sentences.
  int sentences = heavy ? 5 : 3;
  for (int s = 0; s < sentences; ++s) {
    if (s > 0) stmt.consequence += " ";
    stmt.consequence +=
        kConsequenceTemplates[rng->Uniform(std::size(kConsequenceTemplates))];
  }
  stmt.consequence += " (" + company + ")";

  // Purposes: always `current`, plus 0-3 extras (heavy statements more).
  stmt.purposes.push_back(PurposeItem{"current", Required::kAlways});
  int extra = rng->UniformInt(0, heavy ? 3 : 2);
  std::vector<int> picks;
  while (static_cast<int>(picks.size()) < extra) {
    int idx = rng->UniformInt(0, std::size(kExtraPurposes) - 1);
    if (std::find(picks.begin(), picks.end(), idx) == picks.end()) {
      picks.push_back(idx);
    }
  }
  for (int idx : picks) {
    const ExtraPurpose& p = kExtraPurposes[idx];
    Required required = Required::kAlways;
    if (p.optable && rng->Bernoulli(0.4)) {
      required = rng->Bernoulli(0.5) ? Required::kOptIn : Required::kOptOut;
    }
    stmt.purposes.push_back(PurposeItem{p.value, required});
  }

  // Recipients: always `ours`; sometimes agents or more.
  stmt.recipients.push_back(RecipientItem{"ours", Required::kAlways});
  if (rng->Bernoulli(0.5)) {
    stmt.recipients.push_back(RecipientItem{"same", Required::kAlways});
  }
  if (rng->Bernoulli(0.3)) {
    stmt.recipients.push_back(RecipientItem{
        "delivery",
        rng->Bernoulli(0.3) ? Required::kOptOut : Required::kAlways});
  }
  if (rng->Bernoulli(0.1)) {
    stmt.recipients.push_back(RecipientItem{"other-recipient",
                                            Required::kAlways});
  }

  static constexpr const char* kRetentions[] = {
      "stated-purpose", "stated-purpose", "business-practices",
      "business-practices", "legal-requirement", "indefinitely",
      "no-retention"};
  stmt.retention = kRetentions[rng->Uniform(std::size(kRetentions))];

  // Data items: several plain refs, plus miscdata with categories sometimes.
  DataGroup group;
  int items = rng->UniformInt(5, heavy ? 13 : 9);
  std::vector<int> ref_picks;
  while (static_cast<int>(ref_picks.size()) < items) {
    int idx = rng->UniformInt(0, std::size(kPlainDataRefs) - 1);
    if (std::find(ref_picks.begin(), ref_picks.end(), idx) ==
        ref_picks.end()) {
      ref_picks.push_back(idx);
    }
  }
  for (int idx : ref_picks) {
    group.items.push_back(
        DataItem{kPlainDataRefs[idx], rng->Bernoulli(0.2), {}});
  }
  if (rng->Bernoulli(0.55)) {
    DataItem misc{"dynamic.miscdata", false, {}};
    int cats = rng->UniformInt(1, 2);
    for (int c = 0; c < cats; ++c) {
      std::string cat = kMiscCategories[rng->Uniform(std::size(kMiscCategories))];
      if (std::find(misc.categories.begin(), misc.categories.end(), cat) ==
          misc.categories.end()) {
        misc.categories.push_back(cat);
      }
    }
    group.items.push_back(std::move(misc));
  }
  stmt.data_groups.push_back(std::move(group));
  return stmt;
}

}  // namespace

std::vector<Policy> FortuneCorpus(const CorpusOptions& options) {
  Random rng(options.seed);
  std::vector<Policy> corpus;
  corpus.reserve(options.policy_count);
  for (size_t i = 0; i < options.policy_count; ++i) {
    const std::string company = kCompanies[i % std::size(kCompanies)];
    Policy policy;
    policy.name = company;
    if (i >= std::size(kCompanies)) {
      policy.name += "-" + std::to_string(i / std::size(kCompanies));
    }
    policy.discuri = "http://www." + company + ".example.com/privacy.html";
    policy.access =
        rng.Bernoulli(0.7)
            ? std::string(
                  rng.Bernoulli(0.5) ? "contact-and-other" : "ident-contact")
            : std::string("none");
    for (const char* ref :
         {"business.name", "business.department",
          "business.contact-info.postal.street",
          "business.contact-info.postal.city",
          "business.contact-info.postal.stateprov",
          "business.contact-info.postal.postalcode",
          "business.contact-info.telecom.telephone",
          "business.contact-info.online.email",
          "business.contact-info.online.uri"}) {
      policy.entity.data.push_back(DataItem{ref, false, {}});
    }
    if (rng.Bernoulli(0.4)) {
      p3p::Dispute dispute;
      dispute.resolution_type = "service";
      dispute.service =
          "http://www." + company + ".example.com/customer-care";
      dispute.short_description = "Contact our customer care group";
      policy.disputes.push_back(std::move(dispute));
    }

    const int statements = kStatementPlan[i % std::size(kStatementPlan)];
    const bool heavy = statements >= 4;
    for (int s = 0; s < statements; ++s) {
      policy.statements.push_back(MakeStatement(&rng, company, heavy));
    }
    corpus.push_back(std::move(policy));
  }
  return corpus;
}

p3p::ReferenceFile CorpusReferenceFile(const std::vector<Policy>& corpus) {
  p3p::ReferenceFile rf;
  rf.expiry_max_age = 86400;
  for (const Policy& policy : corpus) {
    p3p::PolicyRef ref;
    ref.about = "/P3P/policies.xml#" + policy.name;
    ref.includes.push_back("/" + policy.name + "/*");
    ref.excludes.push_back("/" + policy.name + "/public-archive/*");
    rf.AddRef(std::move(ref));
  }
  return rf;
}

double PolicySizeKb(const Policy& policy) {
  return static_cast<double>(p3p::PolicyToText(policy).size()) / 1024.0;
}

CorpusStats ComputeCorpusStats(const std::vector<Policy>& corpus) {
  CorpusStats stats;
  stats.policies = corpus.size();
  if (corpus.empty()) return stats;
  double total = 0;
  stats.min_kb = 1e9;
  for (const Policy& policy : corpus) {
    stats.statements += policy.statements.size();
    double kb = PolicySizeKb(policy);
    total += kb;
    stats.min_kb = std::min(stats.min_kb, kb);
    stats.max_kb = std::max(stats.max_kb, kb);
  }
  stats.avg_kb = total / static_cast<double>(corpus.size());
  return stats;
}

}  // namespace p3pdb::workload
