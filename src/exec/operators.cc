#include "exec/operators.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace blas {

PerAltDeltas BuildPerAltDeltas(const PlanPart& part) {
  PerAltDeltas table;
  table.reserve(part.alts.size());
  for (const PlanAlt& alt : part.alts) {
    // Unfold alternatives are equality selections (lo == hi).
    table.emplace_back(alt.range.lo, alt.anchor_deltas);
  }
  std::sort(table.begin(), table.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return table;
}

bool AnchorSweep::Matches(const NodeRecord& desc, const JoinPred& pred) {
  // Bring in anchors that start before this candidate; drop finished
  // ones (cf. SemiMarkDescs).
  while (next_ < anchors_.size() && anchors_[next_].start < desc.start) {
    while (!stack_.empty() &&
           anchors_[stack_.back()].end < anchors_[next_].start) {
      stack_.pop_back();
    }
    stack_.push_back(next_);
    ++next_;
  }
  while (!stack_.empty() && anchors_[stack_.back()].end < desc.start) {
    stack_.pop_back();
  }
  for (size_t idx : stack_) {
    if (pred.LevelOk(anchors_[idx], desc)) return true;
  }
  return false;
}

void SortUniqueByStart(std::vector<DLabel>* labels) {
  auto by_start = [](const DLabel& a, const DLabel& b) {
    return a.start < b.start;
  };
  if (!std::is_sorted(labels->begin(), labels->end(), by_start)) {
    std::sort(labels->begin(), labels->end(), by_start);
  }
  labels->erase(std::unique(labels->begin(), labels->end(),
                            [](const DLabel& a, const DLabel& b) {
                              return a.start == b.start;
                            }),
                labels->end());
}

std::vector<DLabel> RowTable::Column(size_t col) const {
  std::vector<DLabel> out;
  out.reserve(size());
  for (size_t i = col; i < cells_.size(); i += width_) {
    out.push_back(cells_[i]);
  }
  return out;
}

bool JoinPred::LevelOk(const DLabel& anc, const NodeRecord& desc) const {
  switch (kind) {
    case PlanPart::Join::kNone:
    case PlanPart::Join::kContain:
      return true;
    case PlanPart::Join::kContainMin:
      return desc.level >= anc.level + delta;
    case PlanPart::Join::kContainExact:
      return desc.level == anc.level + delta;
    case PlanPart::Join::kContainPerAlt: {
      assert(per_alt != nullptr);
      auto it = std::lower_bound(
          per_alt->begin(), per_alt->end(), desc.plabel,
          [](const auto& entry, const PLabel& p) { return entry.first < p; });
      if (it == per_alt->end() || it->first != desc.plabel) return false;
      int32_t d = desc.level - anc.level;
      return std::binary_search(it->second.begin(), it->second.end(), d);
    }
  }
  return false;
}

namespace {

/// A run of rows sharing one anchor binding.
struct AnchorGroup {
  DLabel label;
  size_t begin = 0;  // [begin, end) in anchor start order
  size_t end = 0;
};

/// Row indices sorted by the anchor column's start, or empty when the
/// column is already in start order. That holds for part 0's column and
/// for the column the previous join appended, so most joins skip the sort.
std::vector<size_t> AnchorOrder(const RowTable& rows, int anchor_col) {
  std::vector<size_t> order;
  auto start = [&](size_t r) { return rows.at(r, anchor_col).start; };
  for (size_t r = 1; r < rows.size(); ++r) {
    if (start(r) < start(r - 1)) {
      order.resize(rows.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(),
                [&](size_t a, size_t b) { return start(a) < start(b); });
      break;
    }
  }
  return order;
}

}  // namespace

RowTable StructuralJoinRows(const RowTable& rows, int anchor_col,
                            const std::vector<NodeRecord>& descs,
                            const JoinPred& pred) {
  RowTable out(rows.width() + 1);
  if (rows.empty() || descs.empty()) return out;

  const std::vector<size_t> order = AnchorOrder(rows, anchor_col);
  auto row_at = [&](size_t i) { return order.empty() ? i : order[i]; };
  auto anchor = [&](size_t i) -> const DLabel& {
    return rows.at(row_at(i), anchor_col);
  };
  const size_t n = rows.size();
  std::vector<AnchorGroup> stack;  // nested chain of anchor groups
  size_t next = 0;                 // first row not yet pushed
  for (const NodeRecord& desc : descs) {
    // Bring in anchors that start before this desc; drop finished ones.
    while (next < n && anchor(next).start < desc.start) {
      AnchorGroup grp{anchor(next), next, next + 1};
      while (grp.end < n && anchor(grp.end).start == grp.label.start) {
        ++grp.end;
      }
      while (!stack.empty() && stack.back().label.end < grp.label.start) {
        stack.pop_back();
      }
      stack.push_back(grp);
      next = grp.end;
    }
    while (!stack.empty() && stack.back().label.end < desc.start) {
      stack.pop_back();
    }
    // Every remaining stack entry strictly contains `desc` (intervals of a
    // well-formed document either nest or are disjoint).
    const DLabel binding = desc.dlabel();
    for (const AnchorGroup& grp : stack) {
      if (!pred.LevelOk(grp.label, desc)) continue;
      for (size_t i = grp.begin; i < grp.end; ++i) {
        out.AppendRow(rows.row(row_at(i)), binding);
      }
    }
  }
  return out;
}

std::vector<char> SemiMarkAnchors(const std::vector<NodeRecord>& anchors,
                                  const std::vector<NodeRecord>& descs,
                                  const std::vector<char>& desc_alive,
                                  const JoinPred& pred) {
  std::vector<char> marked(anchors.size(), 0);
  std::vector<size_t> stack;
  size_t a = 0;
  for (size_t j = 0; j < descs.size(); ++j) {
    if (!desc_alive.empty() && !desc_alive[j]) continue;
    const NodeRecord& desc = descs[j];
    while (a < anchors.size() && anchors[a].start < desc.start) {
      while (!stack.empty() && anchors[stack.back()].end < anchors[a].start) {
        stack.pop_back();
      }
      stack.push_back(a);
      ++a;
    }
    while (!stack.empty() && anchors[stack.back()].end < desc.start) {
      stack.pop_back();
    }
    for (size_t idx : stack) {
      if (!marked[idx] || pred.kind != PlanPart::Join::kContain) {
        if (pred.LevelOk(anchors[idx].dlabel(), desc)) marked[idx] = 1;
      }
    }
  }
  return marked;
}

std::vector<char> SemiMarkDescs(const std::vector<NodeRecord>& anchors,
                                const std::vector<char>& anchor_alive,
                                const std::vector<NodeRecord>& descs,
                                const JoinPred& pred) {
  std::vector<char> marked(descs.size(), 0);
  std::vector<size_t> stack;
  size_t a = 0;
  for (size_t j = 0; j < descs.size(); ++j) {
    const NodeRecord& desc = descs[j];
    while (a < anchors.size() && anchors[a].start < desc.start) {
      while (!stack.empty() && anchors[stack.back()].end < anchors[a].start) {
        stack.pop_back();
      }
      stack.push_back(a);
      ++a;
    }
    while (!stack.empty() && anchors[stack.back()].end < desc.start) {
      stack.pop_back();
    }
    for (size_t idx : stack) {
      if (!anchor_alive.empty() && !anchor_alive[idx]) continue;
      if (pred.LevelOk(anchors[idx].dlabel(), desc)) {
        marked[j] = 1;
        break;
      }
    }
  }
  return marked;
}

}  // namespace blas
