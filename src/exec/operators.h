#ifndef BLAS_EXEC_OPERATORS_H_
#define BLAS_EXEC_OPERATORS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "exec/plan.h"
#include "labeling/dlabel.h"
#include "labeling/node_record.h"

namespace blas {

/// Sorted (plabel -> valid anchor level distances) table for Unfold parts.
using PerAltDeltas = std::vector<std::pair<PLabel, std::vector<int32_t>>>;

/// Restores document order and drops duplicate bindings (equal starts name
/// the same element) — the projection step shared by both engines' result
/// and anchor lists. Input already in start order is not re-sorted.
void SortUniqueByStart(std::vector<DLabel>* labels);

/// Builds the per-alternative delta table of an Unfold plan part.
PerAltDeltas BuildPerAltDeltas(const PlanPart& part);

/// \brief Evaluable D-join predicate between an anchor binding and a
/// descendant-side record (section 3.1 + the level refinements of 4.1).
struct JoinPred {
  PlanPart::Join kind = PlanPart::Join::kContain;
  int delta = 0;
  const PerAltDeltas* per_alt = nullptr;  // required for kContainPerAlt

  /// Containment is checked by the sweep; this evaluates the residual
  /// level condition only.
  bool LevelOk(const DLabel& anc, const NodeRecord& desc) const;
};

/// \brief The relational executor's intermediate result: a bag of tuples,
/// each the D-label binding of every part processed so far (column i =
/// plan part i).
///
/// Rows live row-major in one contiguous buffer — row r's columns are
/// cells [r * width, (r + 1) * width) — so a query allocates a few buffers
/// per plan part instead of one per row.
class RowTable {
 public:
  explicit RowTable(size_t width) : width_(width) {}
  /// A one-column table holding `column`.
  explicit RowTable(std::vector<DLabel> column)
      : width_(1), cells_(std::move(column)) {}

  size_t width() const { return width_; }
  size_t size() const { return cells_.size() / width_; }
  bool empty() const { return cells_.empty(); }

  /// The first of row r's width() cells.
  const DLabel* row(size_t r) const { return cells_.data() + r * width_; }
  const DLabel& at(size_t r, size_t col) const {
    return cells_[r * width_ + col];
  }

  /// Appends one row: width() - 1 cells copied from `prefix` (which must
  /// not point into this table), then `last`.
  void AppendRow(const DLabel* prefix, const DLabel& last) {
    cells_.insert(cells_.end(), prefix, prefix + (width_ - 1));
    cells_.push_back(last);
  }

  /// Column `col` of every row, in row order.
  std::vector<DLabel> Column(size_t col) const;

 private:
  size_t width_;
  std::vector<DLabel> cells_;
};

/// \brief Structural merge join (stack-based interval sweep).
///
/// Extends each row whose anchor column strictly contains a `descs` record
/// satisfying `pred`. `descs` must be sorted by start; rows are visited in
/// anchor start order (sorted internally unless already so). Output rows
/// have one extra column (the desc binding) and are ordered by it. Runs in
/// O((rows + descs) * depth + output), plus O(rows log rows) when the
/// anchor column is not in start order.
RowTable StructuralJoinRows(const RowTable& rows, int anchor_col,
                            const std::vector<NodeRecord>& descs,
                            const JoinPred& pred);

/// Semi-join marking of the anchor side: result[i] is 1 iff anchors[i]
/// strictly contains some desc with desc_alive set and `pred` satisfied.
/// Both inputs sorted by start.
std::vector<char> SemiMarkAnchors(const std::vector<NodeRecord>& anchors,
                                  const std::vector<NodeRecord>& descs,
                                  const std::vector<char>& desc_alive,
                                  const JoinPred& pred);

/// Semi-join marking of the descendant side: result[j] is 1 iff descs[j]
/// is strictly contained in some anchor with anchor_alive set and `pred`
/// satisfied. Both inputs sorted by start.
std::vector<char> SemiMarkDescs(const std::vector<NodeRecord>& anchors,
                                const std::vector<char>& anchor_alive,
                                const std::vector<NodeRecord>& descs,
                                const JoinPred& pred);

/// \brief Incremental form of the sweep the batch operators above run:
/// anchors sorted by start, candidates fed in ascending start order, a
/// stack of the anchors containing the current position (intervals of a
/// well-formed document either nest or are disjoint). The streaming
/// cursor probes one candidate at a time instead of marking a whole
/// stream.
class AnchorSweep {
 public:
  AnchorSweep() = default;
  /// `anchors` must be sorted by start.
  explicit AnchorSweep(std::vector<DLabel> anchors)
      : anchors_(std::move(anchors)) {}

  bool empty() const { return anchors_.empty(); }

  /// True iff some anchor strictly contains `desc` and satisfies `pred`.
  /// Successive calls must not decrease desc.start.
  bool Matches(const NodeRecord& desc, const JoinPred& pred);

 private:
  std::vector<DLabel> anchors_;
  size_t next_ = 0;
  std::vector<size_t> stack_;
};

}  // namespace blas

#endif  // BLAS_EXEC_OPERATORS_H_
