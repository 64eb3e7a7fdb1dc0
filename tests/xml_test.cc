// Tests for the XML DOM, parser, and writer.

#include <gtest/gtest.h>

#include <string>

#include "xml/node.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace p3pdb::xml {
namespace {

Document MustParse(std::string_view text) {
  auto result = Parse(text);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

TEST(XmlParserTest, MinimalElement) {
  Document doc = MustParse("<a/>");
  EXPECT_EQ(doc.root->name(), "a");
  EXPECT_TRUE(doc.root->children().empty());
}

TEST(XmlParserTest, NestedElements) {
  Document doc = MustParse("<a><b><c/></b><d/></a>");
  ASSERT_EQ(doc.root->ChildCount(), 2u);
  EXPECT_EQ(doc.root->children()[0]->name(), "b");
  EXPECT_EQ(doc.root->children()[1]->name(), "d");
  EXPECT_EQ(doc.root->children()[0]->children()[0]->name(), "c");
}

TEST(XmlParserTest, Attributes) {
  Document doc = MustParse(
      "<DATA ref=\"#user.name\" optional='yes'/>");
  EXPECT_EQ(doc.root->AttrOr("ref", ""), "#user.name");
  EXPECT_EQ(doc.root->AttrOr("optional", ""), "yes");
  EXPECT_FALSE(doc.root->Attr("missing").has_value());
  EXPECT_EQ(doc.root->AttrOr("missing", "dflt"), "dflt");
}

TEST(XmlParserTest, TextContent) {
  Document doc = MustParse("<c>We use data for shipping</c>");
  EXPECT_EQ(doc.root->text(), "We use data for shipping");
}

TEST(XmlParserTest, EntityDecoding) {
  Document doc = MustParse("<t a=\"&lt;x&gt;\">&amp;&quot;&apos;&#65;</t>");
  EXPECT_EQ(doc.root->AttrOr("a", ""), "<x>");
  EXPECT_EQ(doc.root->text(), "&\"'A");
}

TEST(XmlParserTest, HexCharacterReference) {
  Document doc = MustParse("<t>&#x41;&#x20AC;</t>");
  EXPECT_EQ(doc.root->text(), "A\xE2\x82\xAC");  // A + euro sign in UTF-8
}

TEST(XmlParserTest, CdataSection) {
  Document doc = MustParse("<t><![CDATA[a < b & c]]></t>");
  EXPECT_EQ(doc.root->text(), "a < b & c");
}

TEST(XmlParserTest, CommentsAndPrologSkipped) {
  Document doc = MustParse(
      "<?xml version=\"1.0\"?><!-- top --><a><!-- inner --><b/></a>");
  EXPECT_EQ(doc.root->name(), "a");
  EXPECT_EQ(doc.root->ChildCount(), 1u);
}

TEST(XmlParserTest, DoctypeSkipped) {
  Document doc = MustParse("<!DOCTYPE a [ <!ELEMENT a EMPTY> ]><a/>");
  EXPECT_EQ(doc.root->name(), "a");
}

TEST(XmlParserTest, NamespacePrefixes) {
  Document doc = MustParse(
      "<appel:RULESET xmlns:appel=\"http://www.w3.org/2002/01/P3Pv1\">"
      "<appel:RULE behavior=\"block\"/></appel:RULESET>");
  EXPECT_EQ(doc.root->name(), "appel:RULESET");
  EXPECT_EQ(doc.root->LocalName(), "RULESET");
  EXPECT_EQ(doc.root->Prefix(), "appel");
  const Element* rule = doc.root->FindChild("RULE");
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->AttrOr("behavior", ""), "block");
}

TEST(XmlParserTest, MismatchedEndTagFails) {
  auto result = Parse("<a><b></a></b>");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(XmlParserTest, UnterminatedElementFails) {
  EXPECT_FALSE(Parse("<a><b/>").ok());
  // Every proper prefix ends the input inside some construct; the parser
  // must report it without reading past the end (`<a x=` peeks for a quote
  // at end of input).
  const std::string whole = "<a x=\"1\">t</a>";
  ASSERT_TRUE(Parse(whole).ok());
  for (size_t n = 0; n < whole.size(); ++n) {
    EXPECT_FALSE(Parse(whole.substr(0, n)).ok()) << whole.substr(0, n);
  }
}

TEST(XmlParserTest, TrailingContentFails) {
  EXPECT_FALSE(Parse("<a/><b/>").ok());
}

TEST(XmlParserTest, DuplicateAttributeFails) {
  EXPECT_FALSE(Parse("<a x=\"1\" x=\"2\"/>").ok());
}

TEST(XmlParserTest, UnknownEntityFails) {
  EXPECT_FALSE(Parse("<a>&unknown;</a>").ok());
}

TEST(XmlParserTest, UnterminatedAttributeFails) {
  EXPECT_FALSE(Parse("<a x=\"1/>").ok());
}

TEST(XmlParserTest, LtInAttributeFails) {
  EXPECT_FALSE(Parse("<a x=\"<\"/>").ok());
}

TEST(XmlParserTest, EmptyInputFails) { EXPECT_FALSE(Parse("").ok()); }

TEST(XmlParserTest, ErrorIncludesLocation) {
  auto result = Parse("<a>\n<b x=1/></a>");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("2:"), std::string::npos)
      << result.status();
}

TEST(XmlNodeTest, FindChildren) {
  Document doc = MustParse("<g><d i=\"1\"/><e/><d i=\"2\"/></g>");
  auto ds = doc.root->FindChildren("d");
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds[0]->AttrOr("i", ""), "1");
  EXPECT_EQ(ds[1]->AttrOr("i", ""), "2");
}

TEST(XmlNodeTest, FindChildByLocalNameIgnoresPrefix) {
  Document doc = MustParse("<r><appel:RULE/></r>");
  EXPECT_NE(doc.root->FindChild("RULE"), nullptr);
}

TEST(XmlNodeTest, CloneIsDeep) {
  Document doc = MustParse("<a x=\"1\"><b>t</b></a>");
  std::unique_ptr<Element> copy = doc.root->Clone();
  doc.root->SetAttr("x", "2");
  doc.root->FindChild("b")->set_text("changed");
  EXPECT_EQ(copy->AttrOr("x", ""), "1");
  EXPECT_EQ(copy->FindChild("b")->text(), "t");
}

TEST(XmlNodeTest, SubtreeSize) {
  Document doc = MustParse("<a><b><c/></b><d/></a>");
  EXPECT_EQ(doc.root->SubtreeSize(), 4u);
}

TEST(XmlNodeTest, SetAttrOverwrites) {
  Element e("x");
  e.SetAttr("k", "v1");
  e.SetAttr("k", "v2");
  EXPECT_EQ(e.attributes().size(), 1u);
  EXPECT_EQ(e.AttrOr("k", ""), "v2");
}

TEST(XmlWriterTest, RoundTripsStructure) {
  const char* text =
      "<POLICY name=\"p1\"><STATEMENT><PURPOSE><current/></PURPOSE>"
      "</STATEMENT></POLICY>";
  Document doc = MustParse(text);
  std::string serialized = Write(*doc.root);
  Document again = MustParse(serialized);
  EXPECT_EQ(again.root->name(), "POLICY");
  EXPECT_EQ(again.root->AttrOr("name", ""), "p1");
  const Element* stmt = again.root->FindChild("STATEMENT");
  ASSERT_NE(stmt, nullptr);
  const Element* purpose = stmt->FindChild("PURPOSE");
  ASSERT_NE(purpose, nullptr);
  EXPECT_NE(purpose->FindChild("current"), nullptr);
}

TEST(XmlWriterTest, EscapesSpecials) {
  Element e("t");
  e.SetAttr("a", "x<y&\"z\"");
  e.set_text("1 < 2 & 3");
  std::string out = Write(e, {.indent = false, .prolog = false});
  Document doc = MustParse(out);
  EXPECT_EQ(doc.root->AttrOr("a", ""), "x<y&\"z\"");
  EXPECT_EQ(doc.root->text(), "1 < 2 & 3");
}

TEST(XmlWriterTest, CompactModeHasNoNewlines) {
  Document doc = MustParse("<a><b/><c/></a>");
  std::string out = Write(*doc.root, {.indent = false, .prolog = false});
  EXPECT_EQ(out.find('\n'), std::string::npos);
  EXPECT_EQ(out, "<a><b/><c/></a>");
}

TEST(XmlWriterTest, PrologEmittedWhenRequested) {
  Element e("a");
  std::string out = Write(e, {.indent = true, .prolog = true});
  EXPECT_EQ(out.rfind("<?xml", 0), 0u);
}

TEST(EntitiesTest, EncodeDecodeInverse) {
  std::string original = "a<b>c&d\"e'f";
  auto decoded = DecodeEntities(EncodeEntities(original));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), original);
}

}  // namespace
}  // namespace p3pdb::xml
