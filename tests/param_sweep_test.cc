// Parameterized property sweeps (TEST_P) over configuration grids:
//   * P-label codec invariants across (alphabet size, depth) combinations;
//   * B+-tree bulk-load/seek/scan invariants across record counts;
//   * structural join operators vs brute force on random interval sets.

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/operators.h"
#include "labeling/plabel.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"

namespace blas {
namespace {

// ---------------------------------------------------------------------------
// P-label codec sweep.

class CodecSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CodecSweep, RandomPathsRespectContainmentSemantics) {
  const int num_tags = std::get<0>(GetParam());
  const int depth = std::get<1>(GetParam());
  Result<PLabelCodec> codec_r = PLabelCodec::Create(num_tags, depth);
  ASSERT_TRUE(codec_r.ok());
  const PLabelCodec& codec = *codec_r;

  Rng rng(static_cast<uint64_t>(num_tags * 1000 + depth));
  for (int trial = 0; trial < 200; ++trial) {
    // Random absolute node path and random query suffix.
    int node_depth = static_cast<int>(rng.Between(1, depth));
    std::vector<TagId> path;
    for (int i = 0; i < node_depth; ++i) {
      path.push_back(static_cast<TagId>(rng.Between(1, num_tags)));
    }
    PLabel label = codec.RootLabel(path[0]);
    for (size_t i = 1; i < path.size(); ++i) {
      label = codec.ChildLabel(label, path[i]);
    }
    // DecodePath inverts labeling.
    ASSERT_EQ(codec.DecodePath(label), path);

    int qlen = static_cast<int>(rng.Between(1, depth));
    std::vector<TagId> query;
    for (int i = 0; i < qlen; ++i) {
      query.push_back(static_cast<TagId>(rng.Between(1, num_tags)));
    }
    bool is_suffix =
        qlen <= node_depth &&
        std::equal(query.rbegin(), query.rend(), path.rbegin());
    EXPECT_EQ(codec.SuffixInterval(query, false).Contains(label), is_suffix);
    EXPECT_EQ(codec.SuffixInterval(query, true).Contains(label),
              query == path);
  }
}

TEST_P(CodecSweep, SiblingIntervalsNeverOverlap) {
  const int num_tags = std::get<0>(GetParam());
  const int depth = std::get<1>(GetParam());
  Result<PLabelCodec> codec_r = PLabelCodec::Create(num_tags, depth);
  ASSERT_TRUE(codec_r.ok());
  // //ti/t intervals partition //t by the parent tag.
  for (TagId t = 1; t <= static_cast<TagId>(num_tags); ++t) {
    PLabelRange parent = codec_r->SuffixInterval({t}, false);
    PLabelRange prev{};
    bool have_prev = false;
    for (TagId p = 1; p <= static_cast<TagId>(num_tags); ++p) {
      PLabelRange child = codec_r->SuffixInterval({p, t}, false);
      EXPECT_TRUE(parent.ContainsRange(child));
      if (have_prev) EXPECT_FALSE(prev.Overlaps(child));
      prev = child;
      have_prev = true;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, CodecSweep,
    ::testing::Values(std::make_tuple(2, 4), std::make_tuple(5, 8),
                      std::make_tuple(19, 7), std::make_tuple(77, 12),
                      std::make_tuple(77, 19), std::make_tuple(500, 10)));

// ---------------------------------------------------------------------------
// B+-tree sweep.

struct KvRec {
  uint64_t key;
  uint64_t payload;
};
struct KvKeyOf {
  static uint64_t Get(const KvRec& r) { return r.key; }
};
using KvTree = BPlusTree<KvRec, uint64_t, KvKeyOf>;

class BPlusTreeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(BPlusTreeSweep, SeekMatchesLowerBoundEverywhere) {
  const size_t n = GetParam();
  BufferPool pool(1u << 14);
  Rng rng(n);
  std::vector<KvRec> recs;
  recs.reserve(n);
  uint64_t key = 0;
  for (size_t i = 0; i < n; ++i) {
    key += rng.Between(1, 5);  // strictly increasing, irregular gaps
    recs.push_back(KvRec{key, i});
  }
  KvTree tree;
  tree.Build(&pool, recs);
  ASSERT_EQ(tree.size(), n);

  // Probe 500 random keys (plus boundaries) against std::lower_bound.
  std::vector<uint64_t> probes = {0, 1, key, key + 1};
  for (int i = 0; i < 500; ++i) probes.push_back(rng.Below(key + 2));
  for (uint64_t probe : probes) {
    auto expect = std::lower_bound(
        recs.begin(), recs.end(), probe,
        [](const KvRec& r, uint64_t k) { return r.key < k; });
    auto it = tree.Seek(probe);
    if (expect == recs.end()) {
      EXPECT_TRUE(it.at_end()) << probe;
    } else {
      ASSERT_FALSE(it.at_end()) << probe;
      EXPECT_EQ(it->key, expect->key) << probe;
      EXPECT_EQ(it->payload, expect->payload) << probe;
    }
  }

  // Full in-order traversal.
  size_t count = 0;
  for (auto it = tree.Begin(); !it.at_end(); ++it) {
    ASSERT_EQ(it->payload, count);
    ++count;
  }
  EXPECT_EQ(count, n);

  // Uncounted export sees the same data.
  size_t exported = 0;
  tree.ForEachRecord([&](const KvRec& r) {
    EXPECT_EQ(r.payload, exported);
    ++exported;
  });
  EXPECT_EQ(exported, n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BPlusTreeSweep,
                         ::testing::Values(1, 2, 169, 170, 171, 1000,
                                           28900, 200000));

// ---------------------------------------------------------------------------
// Structural join sweep vs brute force.

class JoinSweep : public ::testing::TestWithParam<uint64_t> {};

/// Generates a random forest of properly nested intervals as NodeRecords.
std::vector<NodeRecord> RandomForest(Rng* rng, int target) {
  std::vector<NodeRecord> out;
  uint32_t pos = 1;
  // Recursive nesting with random fanout.
  auto emit = [&](auto&& self, int level, int* budget) -> void {
    if (*budget <= 0) return;
    NodeRecord rec;
    rec.level = level;
    rec.start = pos++;
    rec.plabel = static_cast<PLabel>(rng->Below(5));
    --*budget;
    while (*budget > 0 && rng->Percent(55) && level < 12) {
      self(self, level + 1, budget);
    }
    rec.end = pos++;
    rec.data = kNullData;
    out.push_back(rec);
  };
  int budget = target;
  while (budget > 0) emit(emit, 1, &budget);
  std::sort(out.begin(), out.end(),
            [](const NodeRecord& a, const NodeRecord& b) {
              return a.start < b.start;
            });
  return out;
}

TEST_P(JoinSweep, SweepsMatchBruteForce) {
  Rng rng(GetParam());
  std::vector<NodeRecord> nodes = RandomForest(&rng, 120);
  // Anchors = random subset; descendants = another random subset.
  std::vector<NodeRecord> anchors;
  std::vector<NodeRecord> descs;
  for (const NodeRecord& r : nodes) {
    if (rng.Percent(40)) anchors.push_back(r);
    if (rng.Percent(50)) descs.push_back(r);
  }

  for (auto kind : {PlanPart::Join::kContain, PlanPart::Join::kContainMin,
                    PlanPart::Join::kContainExact}) {
    JoinPred pred{kind, 2, nullptr};
    auto matches = [&](const NodeRecord& a, const NodeRecord& d) {
      if (!(a.start < d.start && a.end > d.end)) return false;
      return pred.LevelOk(a.dlabel(), d);
    };

    // SemiMarkAnchors vs brute force.
    std::vector<char> got = SemiMarkAnchors(anchors, descs, {}, pred);
    for (size_t i = 0; i < anchors.size(); ++i) {
      bool expect = false;
      for (const NodeRecord& d : descs) {
        if (matches(anchors[i], d)) expect = true;
      }
      ASSERT_EQ(static_cast<bool>(got[i]), expect) << "anchor " << i;
    }

    // SemiMarkDescs vs brute force.
    got = SemiMarkDescs(anchors, {}, descs, pred);
    for (size_t j = 0; j < descs.size(); ++j) {
      bool expect = false;
      for (const NodeRecord& a : anchors) {
        if (matches(a, descs[j])) expect = true;
      }
      ASSERT_EQ(static_cast<bool>(got[j]), expect) << "desc " << j;
    }

    // StructuralJoinRows vs brute-force pair count.
    std::vector<DLabel> column;
    for (const NodeRecord& a : anchors) column.push_back(a.dlabel());
    RowTable rows(std::move(column));
    size_t expect_pairs = 0;
    for (const NodeRecord& a : anchors) {
      for (const NodeRecord& d : descs) {
        if (matches(a, d)) ++expect_pairs;
      }
    }
    EXPECT_EQ(StructuralJoinRows(rows, 0, descs, pred).size(), expect_pairs);
  }
}

// A 3-part chain A -> B -> C where the last join's anchor column is not in
// start order and repeats across rows: the path on which StructuralJoinRows
// must sort its input. Every join row is checked against brute force.
TEST_P(JoinSweep, UnsortedAnchorColumnMatchesBruteForce) {
  Rng rng(GetParam());
  std::vector<NodeRecord> nodes = RandomForest(&rng, 120);
  std::vector<NodeRecord> a_recs;
  std::vector<NodeRecord> b_recs;
  std::vector<NodeRecord> c_recs;
  for (const NodeRecord& r : nodes) {
    if (rng.Percent(40)) a_recs.push_back(r);
    if (rng.Percent(50)) b_recs.push_back(r);
    if (rng.Percent(50)) c_recs.push_back(r);
  }
  auto contains = [](const DLabel& a, const NodeRecord& d) {
    return a.start < d.start && a.end > d.end;
  };

  std::vector<DLabel> a_col;
  for (const NodeRecord& a : a_recs) a_col.push_back(a.dlabel());
  JoinPred contain{PlanPart::Join::kContain, 0, nullptr};
  // Fan-out join: nested A anchors share B bindings.
  RowTable ab = StructuralJoinRows(RowTable(std::move(a_col)), 0, b_recs,
                                   contain);
  // The same bag with its rows reversed, so column 1 descends.
  RowTable ab_reversed(2);
  for (size_t r = ab.size(); r-- > 0;) {
    ab_reversed.AppendRow(ab.row(r), ab.at(r, 1));
  }

  auto column_shape = [](const RowTable& t, int col) {
    bool sorted = true;
    std::set<uint32_t> starts;
    for (size_t r = 0; r < t.size(); ++r) {
      if (r > 0 && t.at(r, col).start < t.at(r - 1, col).start) {
        sorted = false;
      }
      starts.insert(t.at(r, col).start);
    }
    return std::make_pair(sorted, starts.size() < t.size());
  };
  ASSERT_EQ(column_shape(ab_reversed, 1), std::make_pair(false, true));
  ASSERT_EQ(column_shape(ab, 0), std::make_pair(false, true));

  for (auto kind : {PlanPart::Join::kContain, PlanPart::Join::kContainMin,
                    PlanPart::Join::kContainExact}) {
    JoinPred pred{kind, 2, nullptr};
    for (int anchor_col : {0, 1}) {
      const RowTable& input = anchor_col == 1 ? ab_reversed : ab;
      std::multiset<std::tuple<uint32_t, uint32_t, uint32_t>> expect;
      for (const NodeRecord& a : a_recs) {
        for (const NodeRecord& b : b_recs) {
          if (!contains(a.dlabel(), b)) continue;
          const DLabel anchor = anchor_col == 0 ? a.dlabel() : b.dlabel();
          for (const NodeRecord& c : c_recs) {
            if (contains(anchor, c) && pred.LevelOk(anchor, c)) {
              expect.emplace(a.start, b.start, c.start);
            }
          }
        }
      }
      RowTable out = StructuralJoinRows(input, anchor_col, c_recs, pred);
      ASSERT_EQ(out.width(), 3u);
      std::multiset<std::tuple<uint32_t, uint32_t, uint32_t>> got;
      for (size_t r = 0; r < out.size(); ++r) {
        got.emplace(out.at(r, 0).start, out.at(r, 1).start,
                    out.at(r, 2).start);
      }
      EXPECT_EQ(got, expect) << "anchor column " << anchor_col;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinSweep,
                         ::testing::Range<uint64_t>(100, 112));

}  // namespace
}  // namespace blas
