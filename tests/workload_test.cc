// Tests pinning the workload to the distributions the paper reports
// (§6.2, Figure 19).

#include <gtest/gtest.h>

#include "appel/model.h"
#include "workload/corpus.h"
#include "workload/jrc_preferences.h"
#include "workload/paper_examples.h"

namespace p3pdb::workload {
namespace {

TEST(CorpusTest, MatchesPaperCounts) {
  std::vector<p3p::Policy> corpus = FortuneCorpus();
  CorpusStats stats = ComputeCorpusStats(corpus);
  EXPECT_EQ(stats.policies, 29u);   // §6.2: 29 policies
  EXPECT_EQ(stats.statements, 54u); // §6.2: 54 statements in total
}

TEST(CorpusTest, SizesApproximatePaperDistribution) {
  CorpusStats stats = ComputeCorpusStats(FortuneCorpus());
  // Paper: 1.6 - 11.9 KB, average 4.4 KB. The synthetic corpus lands in
  // the same regime.
  EXPECT_GE(stats.min_kb, 0.8) << "smallest policy implausibly small";
  EXPECT_LE(stats.min_kb, 3.0);
  EXPECT_GE(stats.max_kb, 5.0);
  EXPECT_LE(stats.max_kb, 16.0);
  EXPECT_GE(stats.avg_kb, 2.5);
  EXPECT_LE(stats.avg_kb, 6.5);
}

TEST(CorpusTest, DeterministicForSameSeed) {
  std::vector<p3p::Policy> a = FortuneCorpus();
  std::vector<p3p::Policy> b = FortuneCorpus();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(PolicySizeKb(a[i]), PolicySizeKb(b[i])) << i;
    EXPECT_EQ(a[i].name, b[i].name);
  }
  std::vector<p3p::Policy> c = FortuneCorpus({.seed = 7, .policy_count = 29});
  bool any_different = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (PolicySizeKb(a[i]) != PolicySizeKb(c[i])) any_different = true;
  }
  EXPECT_TRUE(any_different) << "different seeds must vary the corpus";
}

TEST(CorpusTest, EveryPolicyValidates) {
  for (const p3p::Policy& policy : FortuneCorpus()) {
    Status st = policy.Validate();
    EXPECT_TRUE(st.ok()) << policy.name << ": " << st;
  }
}

TEST(CorpusTest, ScalesToOtherCounts) {
  std::vector<p3p::Policy> big = FortuneCorpus({.seed = 1, .policy_count = 100});
  EXPECT_EQ(big.size(), 100u);
  for (const p3p::Policy& policy : big) {
    EXPECT_TRUE(policy.Validate().ok()) << policy.name;
  }
}

TEST(CorpusTest, ReferenceFileCoversEachPolicy) {
  std::vector<p3p::Policy> corpus = FortuneCorpus();
  p3p::ReferenceFile rf = CorpusReferenceFile(corpus);
  ASSERT_EQ(rf.refs().size(), corpus.size());
  for (const p3p::Policy& policy : corpus) {
    auto about = rf.PolicyForPath("/" + policy.name + "/index.html");
    ASSERT_TRUE(about.has_value()) << policy.name;
    EXPECT_EQ(*about, "/P3P/policies.xml#" + policy.name);
    // The public archive is excluded.
    EXPECT_EQ(rf.PolicyForPath("/" + policy.name + "/public-archive/x"),
              std::nullopt);
  }
}

TEST(JrcPreferencesTest, RuleCountsMatchFigure19) {
  for (PreferenceLevel level : AllPreferenceLevels()) {
    appel::AppelRuleset rs = JrcPreference(level);
    EXPECT_EQ(rs.RuleCount(), ExpectedRuleCount(level))
        << PreferenceLevelName(level);
    EXPECT_TRUE(rs.Validate().ok()) << PreferenceLevelName(level);
  }
}

TEST(JrcPreferencesTest, SizesOrderedLikeFigure19) {
  // Figure 19: 3.1, 2.8, 2.1, 0.9, 0.3 KB — strictly decreasing with
  // sensitivity, spanning roughly an order of magnitude.
  double prev = 1e9;
  for (PreferenceLevel level : AllPreferenceLevels()) {
    double kb = PreferenceSizeKb(JrcPreference(level));
    EXPECT_LT(kb, prev) << PreferenceLevelName(level);
    prev = kb;
  }
  EXPECT_GE(PreferenceSizeKb(JrcPreference(PreferenceLevel::kVeryHigh)), 1.5);
  EXPECT_LE(PreferenceSizeKb(JrcPreference(PreferenceLevel::kVeryHigh)), 4.5);
  EXPECT_LE(PreferenceSizeKb(JrcPreference(PreferenceLevel::kVeryLow)), 0.6);
}

TEST(JrcPreferencesTest, AverageRuleCountMatchesFigure19) {
  double total = 0;
  for (PreferenceLevel level : AllPreferenceLevels()) {
    total += static_cast<double>(JrcPreference(level).RuleCount());
  }
  EXPECT_DOUBLE_EQ(total / 5.0, 4.8);  // Figure 19's average row
}

TEST(JrcPreferencesTest, RoundTripThroughXml) {
  for (PreferenceLevel level : AllPreferenceLevels()) {
    appel::AppelRuleset rs = JrcPreference(level);
    auto parsed = appel::RulesetFromText(appel::RulesetToText(rs));
    ASSERT_TRUE(parsed.ok()) << PreferenceLevelName(level) << ": "
                             << parsed.status();
    EXPECT_EQ(parsed.value().RuleCount(), rs.RuleCount());
    EXPECT_EQ(parsed.value().ExpressionCount(), rs.ExpressionCount());
  }
}

TEST(PaperExamplesTest, VolgaSizeIsPolicySized) {
  double kb = PolicySizeKb(VolgaPolicy());
  EXPECT_GT(kb, 0.5);
  EXPECT_LT(kb, 4.0);
}

TEST(PaperExamplesTest, JaneXmlParsesBack) {
  auto parsed = appel::RulesetFromText(JanePreferenceXml());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().RuleCount(), 3u);
}

}  // namespace
}  // namespace p3pdb::workload
