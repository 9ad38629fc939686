#include <gtest/gtest.h>

#include "labeling/labeler.h"
#include "schema/path_summary.h"
#include "xml/sax_parser.h"

namespace blas {
namespace {

/// Builds a path summary (plus registry) from XML text.
struct Built {
  TagRegistry reg;
  std::unique_ptr<PLabelCodec> codec;
  PathSummary summary;
};

Built BuildSummary(const std::string& xml) {
  Built b;
  TagCollector collector(&b.reg);
  SaxParser parser;
  EXPECT_TRUE(parser.Parse(xml, &collector).ok());
  b.reg.Freeze();
  Result<PLabelCodec> codec =
      PLabelCodec::Create(b.reg.size(), collector.max_depth());
  EXPECT_TRUE(codec.ok());
  b.codec = std::make_unique<PLabelCodec>(std::move(codec).value());
  Labeler labeler(b.reg, *b.codec);
  EXPECT_TRUE(parser.Parse(xml, &labeler).ok());
  EXPECT_TRUE(labeler.status().ok());
  b.summary = labeler.TakeSummary();
  return b;
}

std::vector<std::string> PathsOf(const Built& b,
                                 const std::vector<const SummaryNode*>& ns) {
  std::vector<std::string> out;
  for (const SummaryNode* n : ns) {
    out.push_back(b.summary.PathString(n, b.reg));
  }
  return out;
}

SummaryStep Step(const Built& b, bool desc, const std::string& tag) {
  SummaryStep s;
  s.descendant = desc;
  if (tag != "*") s.tag = *b.reg.Find(tag);
  return s;
}

TEST(PathSummaryTest, CountsAndStructure) {
  Built b = BuildSummary("<a><b><c/></b><b><c/><d/></b></a>");
  EXPECT_EQ(b.summary.path_count(), 4u);  // /a /a/b /a/b/c /a/b/d
  const SummaryNode* a = b.summary.root()->children[0].get();
  EXPECT_EQ(a->count, 1u);
  const SummaryNode* ab = a->children[0].get();
  EXPECT_EQ(ab->count, 2u);
  EXPECT_EQ(ab->depth, 2);
  EXPECT_EQ(ab->PathTags().size(), 2u);
}

TEST(PathSummaryTest, ExpandAbsolute) {
  Built b = BuildSummary("<a><b><c/></b><d><c/></d></a>");
  auto nodes = b.summary.Expand(
      {Step(b, false, "a"), Step(b, false, "b"), Step(b, false, "c")});
  EXPECT_EQ(PathsOf(b, nodes), (std::vector<std::string>{"/a/b/c"}));
}

TEST(PathSummaryTest, ExpandDescendant) {
  Built b = BuildSummary("<a><b><c/></b><d><c/></d><c/></a>");
  auto nodes = b.summary.Expand({Step(b, true, "c")});
  EXPECT_EQ(nodes.size(), 3u);
  nodes = b.summary.Expand({Step(b, false, "a"), Step(b, true, "c")});
  EXPECT_EQ(nodes.size(), 3u);
}

TEST(PathSummaryTest, ExpandInternalDescendant) {
  Built b = BuildSummary(
      "<a><b><x><c/></x></b><b><c/></b><z><c/></z></a>");
  // /a/b//c: matches /a/b/x/c and /a/b/c but not /a/z/c.
  auto nodes = b.summary.Expand(
      {Step(b, false, "a"), Step(b, false, "b"), Step(b, true, "c")});
  EXPECT_EQ(PathsOf(b, nodes),
            (std::vector<std::string>{"/a/b/c", "/a/b/x/c"}));
}

TEST(PathSummaryTest, ExpandWildcard) {
  Built b = BuildSummary("<a><b><c/></b><d><c/></d></a>");
  auto nodes = b.summary.Expand(
      {Step(b, false, "a"), Step(b, false, "*"), Step(b, false, "c")});
  EXPECT_EQ(PathsOf(b, nodes),
            (std::vector<std::string>{"/a/b/c", "/a/d/c"}));
}

TEST(PathSummaryTest, ExpandRecursivePaths) {
  Built b = BuildSummary(
      "<l><i><l><i/></l></i></l>");
  // //l//i matches i at depth 2 and depth 4 (both alignments).
  auto nodes = b.summary.Expand({Step(b, true, "l"), Step(b, true, "i")});
  EXPECT_EQ(PathsOf(b, nodes),
            (std::vector<std::string>{"/l/i", "/l/i/l/i"}));
}

TEST(PathSummaryTest, ExpandFromBaseNode) {
  Built b = BuildSummary("<a><b><c><b><c/></b></c></b></a>");
  const SummaryNode* a = b.summary.root()->children[0].get();
  const SummaryNode* ab = a->children[0].get();
  // From /a/b, expanding //c finds /a/b/c and /a/b/c/b/c.
  auto nodes = b.summary.ExpandFrom(ab, {Step(b, true, "c")});
  EXPECT_EQ(nodes.size(), 2u);
  // Child-axis step from base.
  nodes = b.summary.ExpandFrom(ab, {Step(b, false, "c")});
  EXPECT_EQ(PathsOf(b, nodes), (std::vector<std::string>{"/a/b/c"}));
}

TEST(PathSummaryTest, ExpandNoMatches) {
  Built b = BuildSummary("<a><b/></a>");
  EXPECT_TRUE(b.summary.Expand({Step(b, true, "b"), Step(b, false, "b")})
                  .empty());
  EXPECT_TRUE(b.summary.Expand({}).empty());
}

TEST(PathSummaryTest, WildcardSkipsAttributePaths) {
  Built b = BuildSummary("<a k=\"v\"><b j=\"w\"/></a>");
  EXPECT_EQ(PathsOf(b, b.summary.Expand({Step(b, false, "a"),
                                         Step(b, false, "*")})),
            (std::vector<std::string>{"/a/b"}));
  EXPECT_EQ(PathsOf(b, b.summary.Expand({Step(b, true, "*")})),
            (std::vector<std::string>{"/a", "/a/b"}));
  // A named attribute step still matches its attribute path.
  EXPECT_EQ(PathsOf(b, b.summary.Expand({Step(b, true, "*"),
                                         Step(b, false, "@j")})),
            (std::vector<std::string>{"/a/b/@j"}));
}

TEST(PathSummaryTest, PlabelsMatchCodec) {
  Built b = BuildSummary("<a><b><c/></b></a>");
  auto nodes = b.summary.Expand(
      {Step(b, false, "a"), Step(b, false, "b"), Step(b, false, "c")});
  ASSERT_EQ(nodes.size(), 1u);
  std::vector<TagId> tags = {*b.reg.Find("a"), *b.reg.Find("b"),
                             *b.reg.Find("c")};
  EXPECT_EQ(nodes[0]->plabel, b.codec->SuffixInterval(tags, true).lo);
}

}  // namespace
}  // namespace blas
