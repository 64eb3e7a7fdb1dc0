// Tests for the P3P domain model: vocabulary, base data schema, policy
// parsing/validation/round-trip, reference files, and augmentation.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "p3p/augment.h"
#include "p3p/data_schema.h"
#include "p3p/policy.h"
#include "p3p/policy_xml.h"
#include "p3p/reference_file.h"
#include "p3p/vocab.h"
#include "workload/paper_examples.h"
#include "xml/writer.h"

namespace p3pdb::p3p {
namespace {

TEST(VocabTest, CountsMatchTheSpec) {
  // Paper §2.1: 12 purposes, 6 recipients, 5 retentions.
  EXPECT_EQ(Purposes().size(), 12u);
  EXPECT_EQ(Recipients().size(), 6u);
  EXPECT_EQ(Retentions().size(), 5u);
  EXPECT_EQ(Categories().size(), 17u);
}

TEST(VocabTest, PaperExamplesAreValid) {
  for (const char* v : {"current", "individual-decision", "contact"}) {
    EXPECT_TRUE(IsValidPurpose(v)) << v;
  }
  for (const char* v : {"ours", "same", "unrelated"}) {
    EXPECT_TRUE(IsValidRecipient(v)) << v;
  }
  for (const char* v :
       {"stated-purpose", "business-practices", "indefinitely"}) {
    EXPECT_TRUE(IsValidRetention(v)) << v;
  }
  EXPECT_FALSE(IsValidPurpose("surveillance"));
  EXPECT_FALSE(IsValidRecipient("everyone"));
}

TEST(VocabTest, RequiredParsing) {
  Required r;
  EXPECT_TRUE(ParseRequired("always", &r));
  EXPECT_EQ(r, Required::kAlways);
  EXPECT_TRUE(ParseRequired("opt-in", &r));
  EXPECT_EQ(r, Required::kOptIn);
  EXPECT_TRUE(ParseRequired("opt-out", &r));
  EXPECT_EQ(r, Required::kOptOut);
  EXPECT_FALSE(ParseRequired("maybe", &r));
  EXPECT_EQ(RequiredToString(Required::kOptIn), "opt-in");
}

TEST(DataSchemaTest, LookupPaths) {
  const DataSchema& schema = DataSchema::Base();
  EXPECT_TRUE(schema.IsKnownRef("user.name"));
  EXPECT_TRUE(schema.IsKnownRef("user.name.given"));
  EXPECT_TRUE(schema.IsKnownRef("#user.home-info.postal.street"));
  EXPECT_TRUE(schema.IsKnownRef("dynamic.miscdata"));
  EXPECT_TRUE(schema.IsKnownRef("thirdparty.bdate.ymd.year"));
  EXPECT_TRUE(schema.IsKnownRef("business.contact-info.telecom.fax.number"));
  EXPECT_FALSE(schema.IsKnownRef("user.shoe-size"));
  EXPECT_FALSE(schema.IsKnownRef(""));
  EXPECT_FALSE(schema.IsKnownRef("user.name.given.extra"));
}

TEST(DataSchemaTest, FixedCategories) {
  const DataSchema& schema = DataSchema::Base();
  std::vector<std::string> cats = schema.CategoriesFor("user.name.given");
  EXPECT_EQ(cats, (std::vector<std::string>{"demographic", "physical"}));
  cats = schema.CategoriesFor("user.login.id");
  EXPECT_EQ(cats, (std::vector<std::string>{"uniqueid"}));
  cats = schema.CategoriesFor("user.home-info.online.email");
  EXPECT_EQ(cats, (std::vector<std::string>{"online"}));
}

TEST(DataSchemaTest, StructureRefCoversDescendants) {
  const DataSchema& schema = DataSchema::Base();
  // user.home-info covers postal (physical, demographic), telecom
  // (physical), and online (online).
  std::vector<std::string> cats = schema.CategoriesFor("user.home-info");
  EXPECT_EQ(cats, (std::vector<std::string>{"demographic", "online",
                                            "physical"}));
}

TEST(DataSchemaTest, VariableCategoryElements) {
  const DataSchema& schema = DataSchema::Base();
  EXPECT_TRUE(schema.IsVariableCategory("dynamic.miscdata"));
  EXPECT_TRUE(schema.IsVariableCategory("dynamic.cookies"));
  EXPECT_FALSE(schema.IsVariableCategory("user.name"));
  // Variable-category elements contribute no fixed categories.
  EXPECT_TRUE(schema.CategoriesFor("dynamic.miscdata").empty());
}

TEST(DataSchemaTest, SchemaIsSubstantial) {
  // The base schema models well over a hundred elements.
  EXPECT_GT(DataSchema::Base().ElementCount(), 100u);
}

TEST(NormalizeDataRefTest, Forms) {
  EXPECT_EQ(NormalizeDataRef("#user.name"), "user.name");
  EXPECT_EQ(NormalizeDataRef("user.name"), "user.name");
  EXPECT_EQ(NormalizeDataRef("base#user.name"), "user.name");
  EXPECT_EQ(NormalizeDataRef(" #user.name "), "user.name");
}

TEST(PolicyTest, VolgaValidates) {
  EXPECT_TRUE(workload::VolgaPolicy().Validate().ok());
}

TEST(PolicyTest, EmptyPolicyFailsValidation) {
  Policy policy;
  policy.name = "empty";
  EXPECT_FALSE(policy.Validate().ok());
}

TEST(PolicyTest, InvalidPurposeRejected) {
  Policy policy = workload::VolgaPolicy();
  policy.statements[0].purposes[0].value = "not-a-purpose";
  EXPECT_FALSE(policy.Validate().ok());
}

TEST(PolicyTest, CurrentCannotBeOptional) {
  Policy policy = workload::VolgaPolicy();
  policy.statements[0].purposes[0].required = Required::kOptIn;
  EXPECT_FALSE(policy.Validate().ok());
}

TEST(PolicyTest, UnknownDataRefRejectedWhenStrict) {
  Policy policy = workload::VolgaPolicy();
  policy.statements[0].data_groups[0].items[0].ref = "user.unknown-thing";
  EXPECT_FALSE(policy.Validate(true).ok());
  EXPECT_TRUE(policy.Validate(false).ok())
      << "lenient mode should accept unknown refs";
}

TEST(PolicyTest, MiscdataRequiresCategories) {
  Policy policy = workload::VolgaPolicy();
  policy.statements[0].data_groups[0].items[2].categories.clear();
  EXPECT_FALSE(policy.Validate().ok());
}

TEST(PolicyTest, CanonicalizeMergesGroups) {
  Policy policy = workload::VolgaPolicy();
  DataGroup extra;
  extra.items.push_back(DataItem{"user.gender", false, {}});
  policy.statements[0].data_groups.push_back(extra);
  ASSERT_EQ(policy.statements[0].data_groups.size(), 2u);
  Policy canonical = Canonicalized(policy);
  ASSERT_EQ(canonical.statements[0].data_groups.size(), 1u);
  EXPECT_EQ(canonical.statements[0].data_groups[0].items.size(), 4u);
  // Untouched statements keep their single group.
  EXPECT_EQ(canonical.statements[1].data_groups.size(), 1u);
}

TEST(PolicyXmlTest, VolgaRoundTrips) {
  Policy original = workload::VolgaPolicy();
  std::string text = PolicyToText(original);
  auto parsed = PolicyFromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const Policy& p = parsed.value();
  EXPECT_EQ(p.name, original.name);
  EXPECT_EQ(p.discuri, original.discuri);
  EXPECT_EQ(p.access, original.access);
  ASSERT_EQ(p.statements.size(), 2u);
  EXPECT_EQ(p.statements[0].purposes.size(), 1u);
  EXPECT_EQ(p.statements[1].purposes[0].required, Required::kOptIn);
  EXPECT_EQ(p.statements[0].retention, "stated-purpose");
  ASSERT_EQ(p.statements[0].data_groups.size(), 1u);
  EXPECT_EQ(p.statements[0].data_groups[0].items[2].categories,
            (std::vector<std::string>{"purchase"}));
  EXPECT_EQ(p.entity.data.size(), 2u);
  // Serialize again: fixed point.
  EXPECT_EQ(PolicyToText(p), text);
}

TEST(PolicyXmlTest, ParsesPaperFigureOneShape) {
  const char* text = R"(<POLICY name="fig1">
    <STATEMENT>
      <PURPOSE><current/></PURPOSE>
      <RECIPIENT><ours/><same/></RECIPIENT>
      <RETENTION><stated-purpose/></RETENTION>
      <DATA-GROUP>
        <DATA ref="#user.name"/>
        <DATA ref="#user.home-info.postal"/>
        <DATA ref="#dynamic.miscdata">
          <CATEGORIES><purchase/></CATEGORIES>
        </DATA>
      </DATA-GROUP>
    </STATEMENT>
    <STATEMENT>
      <PURPOSE>
        <individual-decision required="opt-in"/>
        <contact required="opt-in"/>
      </PURPOSE>
      <RECIPIENT><ours/></RECIPIENT>
      <RETENTION><business-practices/></RETENTION>
      <DATA-GROUP>
        <DATA ref="#user.home-info.online.email"/>
        <DATA ref="#dynamic.miscdata">
          <CATEGORIES><purchase/></CATEGORIES>
        </DATA>
      </DATA-GROUP>
    </STATEMENT>
  </POLICY>)";
  auto parsed = PolicyFromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed.value().Validate().ok());
  EXPECT_EQ(parsed.value().statements.size(), 2u);
}

TEST(PolicyXmlTest, RejectsMalformedRetention) {
  const char* text =
      "<POLICY name=\"x\"><STATEMENT>"
      "<RETENTION><stated-purpose/><indefinitely/></RETENTION>"
      "</STATEMENT></POLICY>";
  EXPECT_FALSE(PolicyFromText(text).ok());
}

TEST(PolicyXmlTest, RejectsDataWithoutRef) {
  const char* text =
      "<POLICY name=\"x\"><STATEMENT><DATA-GROUP><DATA/></DATA-GROUP>"
      "</STATEMENT></POLICY>";
  EXPECT_FALSE(PolicyFromText(text).ok());
}

TEST(PolicyXmlTest, PoliciesWrapperAccepted) {
  xml::Element wrapper("POLICIES");
  wrapper.AddChild(PolicyToXml(workload::VolgaPolicy()));
  std::string text = xml::Write(wrapper);
  auto parsed = PolicyFromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().name, "volga");
}

TEST(ReferenceFileTest, UriPatternMatch) {
  EXPECT_TRUE(UriPatternMatch("/*", "/anything/at/all"));
  EXPECT_TRUE(UriPatternMatch("/catalog/*", "/catalog/books/1"));
  EXPECT_FALSE(UriPatternMatch("/catalog/*", "/checkout"));
  EXPECT_TRUE(UriPatternMatch("*.html", "/index.html"));
  EXPECT_TRUE(UriPatternMatch("/a/*/c", "/a/b/c"));
  EXPECT_TRUE(UriPatternMatch("/a/*/c", "/a/x/y/c"));
  EXPECT_FALSE(UriPatternMatch("/a/*/c", "/a/b/d"));
  EXPECT_FALSE(UriPatternMatch("", "/x"));
  EXPECT_TRUE(UriPatternMatch("/exact", "/exact"));
  EXPECT_FALSE(UriPatternMatch("/exact", "/exactly"));
}

TEST(ReferenceFileTest, FirstMatchingRefWins) {
  ReferenceFile rf;
  PolicyRef a;
  a.about = "#special";
  a.includes.push_back("/shop/checkout/*");
  rf.AddRef(a);
  PolicyRef b;
  b.about = "#general";
  b.includes.push_back("/*");
  b.excludes.push_back("/private/*");
  rf.AddRef(b);

  EXPECT_EQ(rf.PolicyForPath("/shop/checkout/pay"), "#special");
  EXPECT_EQ(rf.PolicyForPath("/shop/browse"), "#general");
  EXPECT_EQ(rf.PolicyForPath("/private/notes"), std::nullopt);
}

TEST(ReferenceFileTest, CookiePatterns) {
  ReferenceFile rf;
  PolicyRef a;
  a.about = "#cookies";
  a.cookie_includes.push_back("/*");
  a.cookie_excludes.push_back("/tracker/*");
  rf.AddRef(a);
  EXPECT_EQ(rf.PolicyForCookie("/session"), "#cookies");
  EXPECT_EQ(rf.PolicyForCookie("/tracker/pixel"), std::nullopt);
  EXPECT_EQ(rf.PolicyForPath("/session"), std::nullopt);  // no INCLUDEs
}

TEST(ReferenceFileTest, RoundTrip) {
  ReferenceFile original = workload::VolgaReferenceFile();
  std::string text = ReferenceFileToText(original);
  auto parsed = ReferenceFileFromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const ReferenceFile& rf = parsed.value();
  EXPECT_EQ(rf.expiry_max_age, 86400);
  ASSERT_EQ(rf.refs().size(), 1u);
  EXPECT_EQ(rf.refs()[0].about, "/P3P/policies.xml#volga");
  EXPECT_EQ(rf.refs()[0].includes, original.refs()[0].includes);
  EXPECT_EQ(rf.refs()[0].excludes, original.refs()[0].excludes);
  EXPECT_EQ(rf.refs()[0].cookie_includes, original.refs()[0].cookie_includes);
}

TEST(ReferenceFileTest, ParserRejectsMissingAbout) {
  const char* text =
      "<META><POLICY-REFERENCES><POLICY-REF>"
      "<INCLUDE>/*</INCLUDE></POLICY-REF></POLICY-REFERENCES></META>";
  EXPECT_FALSE(ReferenceFileFromText(text).ok());
}

// The §2.4.1 rule as a plain scan of every POLICY-REF in document order:
// the oracle the prefix index must agree with.
std::optional<std::string> BruteForceLookup(
    const ReferenceFile& rf, std::string_view path, bool cookie) {
  for (const PolicyRef& ref : rf.refs()) {
    const auto& includes = cookie ? ref.cookie_includes : ref.includes;
    const auto& excludes = cookie ? ref.cookie_excludes : ref.excludes;
    auto matches = [&](const std::vector<std::string>& patterns) {
      return std::any_of(patterns.begin(), patterns.end(),
                         [&](const std::string& p) {
                           return UriPatternMatch(p, path);
                         });
    };
    if (matches(includes) && !matches(excludes)) return ref.about;
  }
  return std::nullopt;
}

/// A random string over a small alphabet, so patterns and paths share
/// prefixes often. `star_rate` is the chance each character is a '*'.
std::string RandomText(Random* rng, int max_length, double star_rate) {
  static const char kAlphabet[] = {'/', 'a', 'b', 'c'};
  std::string text;
  const int length = rng->UniformInt(0, max_length);
  for (int i = 0; i < length; ++i) {
    text += rng->Bernoulli(star_rate) ? '*' : kAlphabet[rng->Uniform(4)];
  }
  return text;
}

std::vector<std::string> RandomPatterns(Random* rng) {
  std::vector<std::string> patterns;
  const int count = rng->UniformInt(0, 3);
  for (int i = 0; i < count; ++i) {
    // Some patterns have no '*', some are empty, some start with one.
    patterns.push_back(RandomText(rng, 6, rng->Bernoulli(0.5) ? 0.0 : 0.25));
  }
  return patterns;
}

TEST(ReferenceFileTest, PrefixIndexAgreesWithScanOnRandomFiles) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Random rng(seed);
    ReferenceFile rf;
    const int ref_count = rng.UniformInt(0, 24);
    for (int r = 0; r < ref_count; ++r) {
      PolicyRef ref;
      ref.about = "#ref" + std::to_string(r);
      ref.includes = RandomPatterns(&rng);
      ref.excludes = RandomPatterns(&rng);
      ref.cookie_includes = RandomPatterns(&rng);
      ref.cookie_excludes = RandomPatterns(&rng);
      rf.AddRef(std::move(ref));
    }
    for (int q = 0; q < 200; ++q) {
      const std::string path = RandomText(&rng, 8, 0.0);
      ASSERT_EQ(rf.PolicyForPath(path), BruteForceLookup(rf, path, false))
          << "seed " << seed << " path '" << path << "'";
      ASSERT_EQ(rf.PolicyForCookie(path), BruteForceLookup(rf, path, true))
          << "seed " << seed << " cookie '" << path << "'";
    }
  }
}

TEST(ReferenceFileTest, RefAddedAfterALookupIsSeenByTheNext) {
  ReferenceFile rf;
  PolicyRef shop;
  shop.about = "#shop";
  shop.includes.push_back("/shop/*");
  rf.AddRef(shop);
  EXPECT_EQ(rf.PolicyForPath("/blog/post"), std::nullopt);
  EXPECT_EQ(rf.PolicyForPath("/shop/cart"), "#shop");

  PolicyRef blog;
  blog.about = "#blog";
  blog.includes.push_back("/blog/*");
  blog.cookie_includes.push_back("/*");
  rf.AddRef(blog);
  EXPECT_EQ(rf.PolicyForPath("/blog/post"), "#blog");
  EXPECT_EQ(rf.PolicyForCookie("/session"), "#blog");
  // Document order still decides between the two.
  PolicyRef everything;
  everything.about = "#everything";
  everything.includes.push_back("*");
  rf.AddRef(everything);
  EXPECT_EQ(rf.PolicyForPath("/shop/cart"), "#shop");
  EXPECT_EQ(rf.PolicyForPath("/about"), "#everything");
}

TEST(AugmentTest, ModelAugmentationAddsFixedCategories) {
  Policy policy = workload::VolgaPolicy();
  size_t added = AugmentPolicy(&policy);
  EXPECT_GT(added, 0u);
  // user.name -> physical, demographic.
  const DataItem& name_item = policy.statements[0].data_groups[0].items[0];
  EXPECT_EQ(name_item.categories,
            (std::vector<std::string>{"demographic", "physical"}));
  // miscdata keeps its policy-supplied category only.
  const DataItem& misc = policy.statements[0].data_groups[0].items[2];
  EXPECT_EQ(misc.categories, (std::vector<std::string>{"purchase"}));
  // Augmenting twice is idempotent.
  EXPECT_EQ(AugmentPolicy(&policy), 0u);
}

TEST(AugmentTest, DomAugmentationMatchesModel) {
  Policy policy = workload::VolgaPolicy();
  std::unique_ptr<xml::Element> dom = PolicyToXml(policy);
  std::unique_ptr<xml::Element> augmented = AugmentPolicyXml(*dom);
  // The original DOM is untouched.
  const xml::Element* orig_data = dom->FindChild("STATEMENT")
                                      ->FindChild("DATA-GROUP")
                                      ->FindChild("DATA");
  EXPECT_EQ(orig_data->FindChild("CATEGORIES"), nullptr);
  // The copy gained CATEGORIES on user.name.
  const xml::Element* aug_data = augmented->FindChild("STATEMENT")
                                     ->FindChild("DATA-GROUP")
                                     ->FindChild("DATA");
  const xml::Element* cats = aug_data->FindChild("CATEGORIES");
  ASSERT_NE(cats, nullptr);
  EXPECT_NE(cats->FindChild("physical"), nullptr);
  EXPECT_NE(cats->FindChild("demographic"), nullptr);
}

}  // namespace
}  // namespace p3pdb::p3p
