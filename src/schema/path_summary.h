#ifndef BLAS_SCHEMA_PATH_SUMMARY_H_
#define BLAS_SCHEMA_PATH_SUMMARY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "labeling/plabel.h"
#include "labeling/tag_registry.h"

namespace blas {

/// \brief One distinct simple path of the document (a strong DataGuide
/// node for tree-shaped XML).
struct SummaryNode {
  TagId tag = kSlashTag;
  const SummaryNode* parent = nullptr;  // nullptr for the pseudo-root
  int depth = 0;                        // pseudo-root = 0
  uint64_t count = 0;                   // instances of this path
  PLabel plabel = 0;                    // node P-label of this simple path
  bool attribute = false;               // path ends in an "@name" step
  std::vector<std::unique_ptr<SummaryNode>> children;

  /// Tag ids of the path, root first (empty for the pseudo-root).
  std::vector<TagId> PathTags() const;
};

/// One step of a path pattern matched against the summary. `tag == nullopt`
/// is a wildcard (*), which matches element paths only.
struct SummaryStep {
  bool descendant = false;  // axis preceding this step: true = //
  std::optional<TagId> tag;
};

/// \brief Path summary (DataGuide) of a labeled document.
///
/// This is the "schema information" consumed by the Unfold translator
/// (section 4.1.3): `Expand` enumerates every simple path of the document
/// matching a pattern with descendant axes and wildcards, which is exactly
/// the paper's unfold descendant-axis elimination (for non-recursive
/// schemas it matches the schema graph; for recursive data it is already
/// truncated at the real document depth, the paper's depth-statistics
/// trick). Built incrementally by the labeler at indexing time.
class PathSummary {
 public:
  PathSummary() : root_(std::make_unique<SummaryNode>()) {}

  PathSummary(PathSummary&&) = default;
  PathSummary& operator=(PathSummary&&) = default;

  /// Returns the child of `parent` tagged `tag`, creating it on first use.
  /// `plabel` is the node P-label of the extended path; `attribute` marks
  /// an attribute tag (TagRegistry::IsAttribute).
  SummaryNode* Extend(SummaryNode* parent, TagId tag, PLabel plabel,
                      bool attribute);

  const SummaryNode* root() const { return root_.get(); }
  SummaryNode* mutable_root() { return root_.get(); }

  /// Number of distinct simple paths.
  size_t path_count() const { return path_count_; }

  /// All summary nodes whose absolute path matches
  /// `/steps[0]/steps[1]/...` (axes inside `steps`; the first step's
  /// `descendant` flag distinguishes a leading // from /).
  std::vector<const SummaryNode*> Expand(
      const std::vector<SummaryStep>& steps) const;

  /// Like Expand, but the pattern is rooted at `base` instead of the
  /// document root (steps[0].descendant selects descendant-or-child of
  /// `base`). Drives the aligned expansion of Unfold branch subqueries.
  std::vector<const SummaryNode*> ExpandFrom(
      const SummaryNode* base, const std::vector<SummaryStep>& steps) const;

  /// Renders a summary node's path as "/t1/t2/...".
  std::string PathString(const SummaryNode* node,
                         const TagRegistry& tags) const;

 private:
  std::unique_ptr<SummaryNode> root_;
  size_t path_count_ = 0;
};

}  // namespace blas

#endif  // BLAS_SCHEMA_PATH_SUMMARY_H_
