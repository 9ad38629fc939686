#include <gtest/gtest.h>

#include "blas/blas.h"
#include "gen/queries.h"
#include "tests/test_util.h"
#include "translate/decomposition.h"
#include "translate/sql_render.h"
#include "xpath/parser.h"

namespace blas {
namespace {

Query MustParse(const std::string& text) {
  Result<Query> q = ParseXPath(text);
  EXPECT_TRUE(q.ok()) << q.status();
  if (!q.ok()) std::abort();
  return std::move(q).value();
}

/// Counts query-tree features used by the section 4.2 join bounds:
/// l = number of tags, b = non-descendant outgoing branch edges at
/// branching points, d = descendant axis steps.
struct TreeCounts {
  int tags = 0;
  int branch_child_edges = 0;
  int descendant_edges = 0;
};

void Count(const QueryNode* node, bool is_root, TreeCounts* out) {
  ++out->tags;
  (void)is_root;  // the root's own axis is counted by the caller
  for (const auto& child : node->children) {
    if (child->axis == Axis::kDescendant) {
      ++out->descendant_edges;
    } else if (node->IsBranchingPoint()) {
      ++out->branch_child_edges;
    }
    Count(child.get(), false, out);
  }
}

TreeCounts CountsOf(const Query& q) {
  TreeCounts c;
  if (q.root->axis == Axis::kDescendant) ++c.descendant_edges;
  Count(q.root.get(), true, &c);
  return c;
}

TEST(DecompositionTest, SuffixPathIsOnePart) {
  for (const char* text : {"/a/b/c", "//a/b", "//a"}) {
    Result<Decomposition> d =
        Decompose(MustParse(text), DecomposeMode::kSplit);
    ASSERT_TRUE(d.ok()) << text;
    EXPECT_EQ(d->parts.size(), 1u) << text;
    EXPECT_EQ(d->return_part, 0);
    EXPECT_TRUE(d->parts[0].is_return);
  }
}

TEST(DecompositionTest, DescendantAxisCutsPath) {
  Result<Decomposition> d =
      Decompose(MustParse("/a/b//c/d"), DecomposeMode::kSplit);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->parts.size(), 2u);
  EXPECT_EQ(d->parts[0].PathString(), "/a/b");
  EXPECT_EQ(d->parts[1].PathString(), "//c/d");
  EXPECT_EQ(d->parts[1].anchor, 0);
  EXPECT_EQ(d->parts[1].delta, 2);
  EXPECT_FALSE(d->parts[1].exact);  // descendant cut: level >= anchor + 2
  EXPECT_EQ(d->return_part, 1);
}

TEST(DecompositionTest, SplitVsPushUpPrefixes) {
  Query q = MustParse("/a[x]/b/c");
  Result<Decomposition> split = Decompose(q, DecomposeMode::kSplit);
  Result<Decomposition> push = Decompose(q, DecomposeMode::kPushUp);
  ASSERT_TRUE(split.ok());
  ASSERT_TRUE(push.ok());
  ASSERT_EQ(split->parts.size(), 3u);
  ASSERT_EQ(push->parts.size(), 3u);
  EXPECT_EQ(split->parts[0].PathString(), "/a");
  EXPECT_EQ(split->parts[1].PathString(), "//x");
  EXPECT_EQ(split->parts[2].PathString(), "//b/c");
  // Push-up carries the full prefix (algorithm 5).
  EXPECT_EQ(push->parts[1].PathString(), "/a/x");
  EXPECT_EQ(push->parts[2].PathString(), "/a/b/c");
  // Both keep the exact level distance of the child-edge cut.
  EXPECT_TRUE(split->parts[2].exact);
  EXPECT_EQ(split->parts[2].delta, 2);
  EXPECT_TRUE(push->parts[2].exact);
  EXPECT_EQ(push->parts[2].delta, 2);
}

TEST(DecompositionTest, PushUpPrefixResetsAtDescendantCut) {
  // After a // cut the pushed prefix restarts (D-elimination runs first).
  Result<Decomposition> d =
      Decompose(MustParse("/a//b[x]/c"), DecomposeMode::kPushUp);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->parts.size(), 4u);
  EXPECT_EQ(d->parts[0].PathString(), "/a");
  EXPECT_EQ(d->parts[1].PathString(), "//b");
  EXPECT_EQ(d->parts[2].PathString(), "//b/x");
  EXPECT_EQ(d->parts[3].PathString(), "//b/c");
}

TEST(DecompositionTest, PaperExampleQ) {
  // Figure 7/8: Q decomposes into /pD/pE, //protein//superfamily...,
  // with Split producing 6 suffix-path parts (Q4, Q5, Q8, Q9, Q2', Q3').
  Result<Decomposition> d =
      Decompose(MustParse(PaperExampleQuery()), DecomposeMode::kSplit);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->parts.size(), 7u);
  EXPECT_EQ(d->parts[0].PathString(), "/ProteinDatabase/ProteinEntry");
  // All parts after the root are anchored, forming 6 D-joins.
  int djoins = 0;
  for (const Part& p : d->parts) {
    if (p.anchor >= 0) ++djoins;
  }
  EXPECT_EQ(djoins, 6);
}

TEST(DecompositionTest, ValuePredicateForcesPartLeaf) {
  Result<Decomposition> d = Decompose(
      MustParse("/a/b=\"v\""), DecomposeMode::kSplit);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->parts.size(), 1u);
  EXPECT_EQ(d->parts[0].value,
            std::optional<ValuePred>(ValuePred{ValueOp::kEq, "v"}));
  // A descendant predicate splits the part.
  d = Decompose(MustParse("/a[//q]/b"), DecomposeMode::kSplit);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->parts.size(), 3u);
}

TEST(DecompositionTest, ReturnNodeWithPredicateBecomesPartLeaf) {
  Result<Decomposition> d =
      Decompose(MustParse("/a/b[c]"), DecomposeMode::kSplit);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->parts.size(), 2u);
  EXPECT_EQ(d->parts[0].PathString(), "/a/b");
  EXPECT_TRUE(d->parts[0].is_return);
  EXPECT_EQ(d->parts[1].PathString(), "//c");
  EXPECT_EQ(d->return_part, 0);
}

TEST(DecompositionTest, WildcardUnsupportedOutsideUnfold) {
  EXPECT_EQ(Decompose(MustParse("/a/*/b"), DecomposeMode::kSplit)
                .status()
                .code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(Decompose(MustParse("/a/*/b"), DecomposeMode::kPushUp)
                .status()
                .code(),
            StatusCode::kUnsupported);
  EXPECT_TRUE(Decompose(MustParse("/a/*/b"), DecomposeMode::kUnfold).ok());
}

TEST(DecompositionTest, UnfoldKeepsDescendantStepsInline) {
  Result<Decomposition> d =
      Decompose(MustParse("/a/b//c[d]/e"), DecomposeMode::kUnfold);
  ASSERT_TRUE(d.ok());
  // No D-elimination: //c stays inside the part; branch at c cuts d and e.
  ASSERT_EQ(d->parts.size(), 3u);
  EXPECT_EQ(d->parts[0].PathString(), "/a/b//c");
  EXPECT_EQ(d->parts[1].PathString(), "/a/b//c/d");
  EXPECT_EQ(d->parts[2].PathString(), "/a/b//c/e");
}

/// Section 4.2 claim: for Split/Push-up the number of D-joins is bounded by
/// b + d, and is always less than l - 1 (the D-labeling join count) for
/// queries with at least one multi-step part.
TEST(JoinBoundsTest, SplitJoinsBoundedByBPlusD) {
  std::vector<std::string> texts = {
      PaperExampleQuery(),   "/a/b/c/d/e",      "//a//b//c",
      "/a[b][c]/d",          "/a/b[c/d]/e//f",  "/a[b=\"v\" and c]/d[e]/f"};
  for (const std::string& text : texts) {
    Query q = MustParse(text);
    TreeCounts counts = CountsOf(q);
    for (DecomposeMode mode :
         {DecomposeMode::kSplit, DecomposeMode::kPushUp}) {
      Result<Decomposition> d = Decompose(q, mode);
      ASSERT_TRUE(d.ok()) << text;
      int djoins = static_cast<int>(d->parts.size()) - 1;
      EXPECT_LE(djoins, counts.branch_child_edges + counts.descendant_edges)
          << text;
      EXPECT_LE(djoins, counts.tags - 1) << text;
    }
  }
}

class PlanShapeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sys_ = std::make_unique<BlasSystem>(MustBuild(
        "<a><b><c>x</c><d/></b><b><c>y</c></b><e><b><c>z</c></b></e></a>"));
  }
  std::unique_ptr<BlasSystem> sys_;
};

TEST_F(PlanShapeTest, SuffixPathNeedsNoJoin) {
  Result<ExecPlan> plan = sys_->Plan("/a/b/c", Translator::kSplit);
  ASSERT_TRUE(plan.ok());
  ExecPlan::Shape shape = plan->AnalyzeShape();
  EXPECT_EQ(shape.d_joins, 0);
  EXPECT_EQ(shape.equality_selections, 1);  // absolute simple path
  EXPECT_EQ(shape.range_selections, 0);
}

TEST_F(PlanShapeTest, DLabelUsesLMinusOneJoins) {
  Result<ExecPlan> plan = sys_->Plan("/a/b/c", Translator::kDLabel);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->AnalyzeShape().d_joins, 2);
  EXPECT_EQ(plan->AnalyzeShape().tag_scans, 3);
}

TEST_F(PlanShapeTest, PushUpIsMoreSelectiveThanSplit) {
  // Figure 11's analysis: Split uses range selections where Push-up uses
  // equality selections after the prefix push.
  Result<ExecPlan> split = sys_->Plan("/a/b[d]/c", Translator::kSplit);
  Result<ExecPlan> push = sys_->Plan("/a/b[d]/c", Translator::kPushUp);
  ASSERT_TRUE(split.ok());
  ASSERT_TRUE(push.ok());
  EXPECT_EQ(split->AnalyzeShape().d_joins, push->AnalyzeShape().d_joins);
  EXPECT_GT(split->AnalyzeShape().range_selections,
            push->AnalyzeShape().range_selections);
  EXPECT_LT(split->AnalyzeShape().equality_selections,
            push->AnalyzeShape().equality_selections);
}

TEST_F(PlanShapeTest, UnfoldRemovesDescendantJoins) {
  Result<ExecPlan> push = sys_->Plan("/a//c", Translator::kPushUp);
  Result<ExecPlan> unfold = sys_->Plan("/a//c", Translator::kUnfold);
  ASSERT_TRUE(push.ok());
  ASSERT_TRUE(unfold.ok());
  EXPECT_EQ(push->AnalyzeShape().d_joins, 1);
  EXPECT_EQ(unfold->AnalyzeShape().d_joins, 0);
  // /a/b/c and /a/e/b/c both exist -> a union of two equality selections.
  EXPECT_EQ(unfold->AnalyzeShape().equality_selections, 2);
}

TEST_F(PlanShapeTest, UnknownTagYieldsEmptyScan) {
  Result<ExecPlan> plan = sys_->Plan("//nope", Translator::kSplit);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->parts.size(), 1u);
  EXPECT_TRUE(plan->parts[0].alts.empty());
}

TEST_F(PlanShapeTest, SqlRenderingMentionsKeyPieces) {
  Result<std::string> sql =
      sys_->ExplainSql("/a/b[d]/c", Translator::kPushUp);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("SELECT DISTINCT"), std::string::npos);
  EXPECT_NE(sql->find("FROM SP T1"), std::string::npos);
  EXPECT_NE(sql->find(".plabel ="), std::string::npos);
  EXPECT_NE(sql->find(".start <"), std::string::npos);
  EXPECT_NE(sql->find(".level ="), std::string::npos);

  Result<std::string> dsql = sys_->ExplainSql("/a/b/c", Translator::kDLabel);
  ASSERT_TRUE(dsql.ok());
  EXPECT_NE(dsql->find("FROM SD T1"), std::string::npos);
  EXPECT_NE(dsql->find(".tag = 'b'"), std::string::npos);

  Result<std::string> alg =
      sys_->ExplainAlgebra("/a/b/c", Translator::kSplit);
  ASSERT_TRUE(alg.ok());
  EXPECT_NE(alg->find("pi_{"), std::string::npos);
  EXPECT_NE(alg->find("sigma_{"), std::string::npos);
}

TEST(WildcardPlanTest, AttributesAreNotWildcardMatches) {
  BlasSystem sys = MustBuild("<a k=\"v\"><b j=\"w\"/></a>");
  // D-labeling: the full SD scan drops the attribute tags.
  Result<ExecPlan> dlabel = sys.Plan("/a/*", Translator::kDLabel);
  ASSERT_TRUE(dlabel.ok());
  ASSERT_EQ(dlabel->parts.size(), 2u);
  EXPECT_EQ(dlabel->parts[1].scan, PlanPart::Scan::kAllTags);
  EXPECT_EQ(dlabel->parts[1].skip_tags,
            (std::vector<TagId>{*sys.tags().Find("@k"),
                                *sys.tags().Find("@j")}));
  Result<std::string> sql = sys.ExplainSql("/a/*", Translator::kDLabel);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find(".tag NOT LIKE '@%'"), std::string::npos);

  // Unfold: the wildcard expands to the element path /a/b only.
  Result<ExecPlan> unfold = sys.Plan("/a/*", Translator::kUnfold);
  ASSERT_TRUE(unfold.ok());
  ASSERT_EQ(unfold->parts.size(), 1u);
  EXPECT_EQ(unfold->parts[0].alts.size(), 1u);
  EXPECT_EQ(unfold->AnalyzeShape().union_arms, 0);
}

TEST_F(PlanShapeTest, TranslatorNamesAndDispatch) {
  EXPECT_STREQ(TranslatorName(Translator::kDLabel), "D-labeling");
  EXPECT_STREQ(TranslatorName(Translator::kSplit), "Split");
  EXPECT_STREQ(TranslatorName(Translator::kPushUp), "Push-up");
  EXPECT_STREQ(TranslatorName(Translator::kUnfold), "Unfold");
  for (Translator t : {Translator::kDLabel, Translator::kSplit,
                       Translator::kPushUp, Translator::kUnfold}) {
    EXPECT_TRUE(sys_->Plan("/a/b", t).ok());
  }
}

TEST(TranslateErrorTest, MissingContextPieces) {
  Query q = MustParse("/a/b");
  TranslateContext empty;
  EXPECT_FALSE(TranslateSplit(q, empty).ok());
  EXPECT_FALSE(TranslateDLabel(q, empty).ok());
  TagRegistry reg;
  reg.Intern("a");
  reg.Freeze();
  Result<PLabelCodec> codec = PLabelCodec::Create(1, 4);
  ASSERT_TRUE(codec.ok());
  TranslateContext no_summary;
  no_summary.tags = &reg;
  no_summary.codec = &*codec;
  EXPECT_EQ(TranslateUnfold(q, no_summary).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StripValuePredicatesTest, RemovesValues) {
  std::string stripped = StripValuePredicates(
      "/a[b = \"x\"]/c[d and e=\"y\"]/f='z'");
  EXPECT_EQ(stripped.find('='), std::string::npos);
  EXPECT_EQ(stripped.find('"'), std::string::npos);
  // Structure preserved.
  Result<Query> q = ParseXPath(stripped);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->return_node()->tag, "f");
}

}  // namespace
}  // namespace blas
