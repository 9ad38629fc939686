#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/operators.h"
#include "tests/test_util.h"
#include "twig/twig.h"

namespace blas {
namespace {

NodeRecord Rec(uint32_t start, uint32_t end, int32_t level,
               PLabel plabel = 0) {
  NodeRecord r;
  r.start = start;
  r.end = end;
  r.level = level;
  r.plabel = plabel;
  return r;
}

/// A row table holding `rows` (all of one width).
RowTable Table(const std::vector<std::vector<DLabel>>& rows) {
  RowTable table(rows.empty() ? 1 : rows[0].size());
  for (const std::vector<DLabel>& row : rows) {
    table.AppendRow(row.data(), row.back());
  }
  return table;
}

TEST(JoinPredTest, Kinds) {
  DLabel anc{1, 100, 2};
  NodeRecord d3 = Rec(5, 6, 3);
  NodeRecord d5 = Rec(7, 8, 5);

  JoinPred contain{PlanPart::Join::kContain, 0, nullptr};
  EXPECT_TRUE(contain.LevelOk(anc, d3));
  EXPECT_TRUE(contain.LevelOk(anc, d5));

  JoinPred min2{PlanPart::Join::kContainMin, 2, nullptr};
  EXPECT_FALSE(min2.LevelOk(anc, d3));  // 3 < 2+2
  EXPECT_TRUE(min2.LevelOk(anc, d5));

  JoinPred exact1{PlanPart::Join::kContainExact, 1, nullptr};
  EXPECT_TRUE(exact1.LevelOk(anc, d3));
  EXPECT_FALSE(exact1.LevelOk(anc, d5));
}

TEST(JoinPredTest, PerAltDeltas) {
  PlanPart part;
  part.alts.push_back(PlanAlt{PLabelRange{10, 10}, {2, 4}});
  part.alts.push_back(PlanAlt{PLabelRange{20, 20}, {1}});
  PerAltDeltas table = BuildPerAltDeltas(part);
  JoinPred pred{PlanPart::Join::kContainPerAlt, 0, &table};

  DLabel anc{1, 100, 2};
  EXPECT_TRUE(pred.LevelOk(anc, Rec(5, 6, 4, 10)));   // delta 2 in {2,4}
  EXPECT_TRUE(pred.LevelOk(anc, Rec(5, 6, 6, 10)));   // delta 4
  EXPECT_FALSE(pred.LevelOk(anc, Rec(5, 6, 5, 10)));  // delta 3
  EXPECT_TRUE(pred.LevelOk(anc, Rec(5, 6, 3, 20)));   // delta 1
  EXPECT_FALSE(pred.LevelOk(anc, Rec(5, 6, 3, 30)));  // unknown plabel
}

TEST(StructuralJoinTest, BasicContainment) {
  // Anchors: [1,10] and [12,20]; descs inside each plus one outside.
  RowTable rows = Table({{DLabel{1, 10, 1}}, {DLabel{12, 20, 1}}});
  std::vector<NodeRecord> descs = {Rec(2, 3, 2), Rec(13, 14, 2),
                                   Rec(21, 22, 2)};
  JoinPred pred{PlanPart::Join::kContain, 0, nullptr};
  RowTable out = StructuralJoinRows(rows, 0, descs, pred);
  ASSERT_EQ(out.size(), 2u);
}

TEST(StructuralJoinTest, NestedAnchors) {
  // //a//a style: anchors nest; inner desc joins with both.
  RowTable rows = Table({{DLabel{1, 100, 1}}, {DLabel{10, 50, 2}}});
  std::vector<NodeRecord> descs = {Rec(20, 21, 3), Rec(60, 61, 2)};
  JoinPred pred{PlanPart::Join::kContain, 0, nullptr};
  RowTable out = StructuralJoinRows(rows, 0, descs, pred);
  // (outer, 20), (inner, 20), (outer, 60).
  EXPECT_EQ(out.size(), 3u);
}

TEST(StructuralJoinTest, SharedAnchorMultipliesRows) {
  // Two rows with the same anchor binding both extend.
  DLabel anchor{1, 10, 1};
  RowTable rows = Table({{anchor, DLabel{2, 3, 2}},
                         {anchor, DLabel{4, 5, 2}}});
  std::vector<NodeRecord> descs = {Rec(6, 7, 2)};
  JoinPred pred{PlanPart::Join::kContain, 0, nullptr};
  RowTable out = StructuralJoinRows(rows, 0, descs, pred);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out.width(), 3u);
}

TEST(StructuralJoinTest, EmptyInputs) {
  JoinPred pred{PlanPart::Join::kContain, 0, nullptr};
  EXPECT_TRUE(StructuralJoinRows(Table({}), 0, {Rec(1, 2, 1)}, pred).empty());
  EXPECT_TRUE(
      StructuralJoinRows(Table({{DLabel{1, 2, 1}}}), 0, {}, pred).empty());
}

TEST(StructuralJoinTest, StrictContainmentExcludesSelf) {
  // Identical intervals must not join (descendant axis is strict).
  RowTable rows = Table({{DLabel{5, 10, 2}}});
  std::vector<NodeRecord> descs = {Rec(5, 10, 2)};
  JoinPred pred{PlanPart::Join::kContain, 0, nullptr};
  EXPECT_TRUE(StructuralJoinRows(rows, 0, descs, pred).empty());
}

TEST(SemiJoinTest, MarkAnchors) {
  std::vector<NodeRecord> anchors = {Rec(1, 10, 1), Rec(12, 20, 1),
                                     Rec(22, 30, 1)};
  std::vector<NodeRecord> descs = {Rec(2, 3, 2), Rec(23, 24, 2)};
  JoinPred pred{PlanPart::Join::kContain, 0, nullptr};
  std::vector<char> marked = SemiMarkAnchors(anchors, descs, {}, pred);
  EXPECT_EQ(marked, (std::vector<char>{1, 0, 1}));

  // desc_alive masks out the second desc.
  marked = SemiMarkAnchors(anchors, descs, {1, 0}, pred);
  EXPECT_EQ(marked, (std::vector<char>{1, 0, 0}));
}

TEST(SemiJoinTest, MarkDescs) {
  std::vector<NodeRecord> anchors = {Rec(1, 10, 1), Rec(12, 20, 1)};
  std::vector<NodeRecord> descs = {Rec(2, 3, 2), Rec(13, 14, 2),
                                   Rec(21, 22, 1)};
  JoinPred pred{PlanPart::Join::kContain, 0, nullptr};
  std::vector<char> marked = SemiMarkDescs(anchors, {}, descs, pred);
  EXPECT_EQ(marked, (std::vector<char>{1, 1, 0}));

  marked = SemiMarkDescs(anchors, {0, 1}, descs, pred);
  EXPECT_EQ(marked, (std::vector<char>{0, 1, 0}));
}

TEST(SemiJoinTest, LevelPredicatesApply) {
  std::vector<NodeRecord> anchors = {Rec(1, 10, 1)};
  std::vector<NodeRecord> descs = {Rec(2, 3, 2), Rec(4, 5, 3)};
  JoinPred exact2{PlanPart::Join::kContainExact, 2, nullptr};
  EXPECT_EQ(SemiMarkDescs(anchors, {}, descs, exact2),
            (std::vector<char>{0, 1}));
  EXPECT_EQ(SemiMarkAnchors(anchors, descs, {}, exact2),
            (std::vector<char>{1}));
}

TEST(ExecutorTest, StatsAreReported) {
  BlasSystem sys = MustBuild(
      "<a><b><c>x</c></b><b><c>y</c></b><d><c>z</c></d></a>");
  Result<QueryResult> r =
      sys.Execute("//b/c", Translator::kDLabel, Engine::kRelational);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.d_joins, 1);
  // D-labeling reads all b (2) and all c (3) elements.
  EXPECT_EQ(r->stats.elements, 5u);
  EXPECT_GT(r->stats.page_fetches, 0u);
  EXPECT_EQ(r->stats.output_rows, 2u);

  Result<QueryResult> s =
      sys.Execute("//b/c", Translator::kSplit, Engine::kRelational);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->stats.d_joins, 0);
  // Suffix path: only the matching tuples are visited.
  EXPECT_EQ(s->stats.elements, 2u);
}

TEST(ExecutorTest, TwigEngineCountsStreams) {
  BlasSystem sys = MustBuild(
      "<a><b><c>x</c></b><b><c>y</c></b><d><c>z</c></d></a>");
  ExecStats stats;
  Result<ExecPlan> plan = sys.Plan("//b/c", Translator::kDLabel);
  ASSERT_TRUE(plan.ok());
  TwigEngine twig(&sys.store(), &sys.dict());
  Result<std::vector<uint32_t>> r = twig.Execute(*plan, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ(stats.elements, 5u);
}

TEST(ExecutorTest, EmptyPlanRejected) {
  BlasSystem sys = MustBuild("<a/>");
  ExecPlan plan;
  RelationalExecutor exec(&sys.store(), &sys.dict());
  ExecStats stats;
  EXPECT_FALSE(exec.Execute(plan, &stats).ok());
  TwigEngine twig(&sys.store(), &sys.dict());
  EXPECT_FALSE(twig.Execute(plan, &stats).ok());
}

TEST(ExecutorTest, ValuePredicateNotInDictionary) {
  BlasSystem sys = MustBuild("<a><b>x</b></a>");
  Result<QueryResult> r = sys.Execute("//b=\"never-seen\"",
                                      Translator::kSplit,
                                      Engine::kRelational);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->starts.empty());
  // The scan short-circuits: no elements visited at all.
  EXPECT_EQ(r->stats.elements, 0u);
}

TEST(ExecutorTest, IntermediateRowsTracked) {
  BlasSystem sys = MustBuild(
      "<a><b><c/><c/></b><b><c/></b></a>");
  Result<QueryResult> r =
      sys.Execute("/a/b/c", Translator::kDLabel, Engine::kRelational);
  ASSERT_TRUE(r.ok());
  // Join 1: a x b -> 2 rows; join 2: rows x c -> 3 rows.
  EXPECT_EQ(r->stats.intermediate_rows, 5u);
}

// XPath's `*` selects elements only: attribute nodes (stored as "@name"
// tags in both the path summary and the tag relation) must not match it,
// on either wildcard-capable translator, engine or cursor path.
TEST(WildcardTest, SelectsElementsOnly) {
  struct Case {
    const char* xml;
    std::vector<const char*> xpaths;
  };
  const std::vector<Case> cases = {
      {"<a k=\"v\"><b/></a>", {"/a/*", "//*", "/*"}},
      {"<a k=\"v\"><b k=\"1\" j=\"2\"><c k=\"3\"/></b><d>t</d>"
       "<b/></a>",
       {"/a/*", "//*", "/a/*/@k", "//*/@k", "/a/*/*", "//b/*", "/a//*"}},
      {"<site><regions>"
       "<africa><item id=\"i1\"><shipping>s</shipping><name>n</name>"
       "</item></africa>"
       "<asia><item id=\"i2\" featured=\"yes\"><name>m</name></item>"
       "<item id=\"i3\"><shipping>t</shipping><payment>p</payment>"
       "</item></asia>"
       "</regions></site>",
       {"/site/regions/*/item[shipping]/*", "/site/regions/*/item/*",
        "//item/*", "/site/regions/*"}},
  };
  for (const Case& c : cases) {
    BlasSystem sys = MustBuild(c.xml);
    for (const char* xpath : c.xpaths) {
      Result<Query> query = ParseXPath(xpath);
      ASSERT_TRUE(query.ok()) << xpath;
      const std::vector<uint32_t> expected =
          NaiveEvalStarts(*query, *sys.dom());
      for (Translator translator : {Translator::kUnfold, Translator::kDLabel}) {
        for (Engine engine : {Engine::kRelational, Engine::kTwig}) {
          for (uint64_t limit : {uint64_t{0}, uint64_t{1}}) {
            QueryOptions options;
            options.translator = translator;
            options.engine = engine;
            options.limit = limit;
            Result<QueryResult> r = sys.Execute(*query, options);
            ASSERT_TRUE(r.ok()) << xpath << ": " << r.status().ToString();
            std::vector<uint32_t> want = expected;
            if (limit > 0 && want.size() > limit) want.resize(limit);
            EXPECT_EQ(r->starts, want)
                << xpath << " [" << TranslatorName(translator) << "/"
                << EngineName(engine) << " limit=" << limit << "]";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace blas
