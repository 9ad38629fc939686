#ifndef BLAS_EXEC_PLAN_H_
#define BLAS_EXEC_PLAN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "labeling/plabel.h"
#include "labeling/tag_registry.h"
#include "xpath/ast.h"

namespace blas {

/// One access-path alternative of a plan part: a P-label interval
/// (equality when lo == hi) plus, for Unfold parts, the set of valid level
/// distances to the anchor binding (one per way the anchor pattern can
/// align inside this alternative's absolute path; see DESIGN.md).
struct PlanAlt {
  PLabelRange range;
  std::vector<int32_t> anchor_deltas;
};

/// \brief One subquery of a translated plan: an access path plus the
/// structural join predicate connecting it to its anchor part.
///
/// Every translator (D-labeling baseline, Split, Push-up, Unfold) produces
/// the same shape: a tree of parts (anchor < own index), each with a scan
/// over the node relation and a D-join to the anchor's leaf binding. The
/// relational executor and the holistic twig engine both consume this.
struct PlanPart {
  /// Access path.
  enum class Scan {
    kPlabelAlts,  // union of P-label intervals over SP (BLAS translators)
    kTag,         // tag scan over SD (D-labeling baseline)
    kAllTags,     // full scan over SD (wildcard under D-labeling)
  };
  Scan scan = Scan::kPlabelAlts;

  /// For kPlabelAlts. An empty vector is a provably-empty scan (e.g. a tag
  /// absent from the document).
  std::vector<PlanAlt> alts;
  /// For kTag.
  TagId tag = 0;
  /// For kAllTags: tags the scan drops, ascending (the attribute tags — the
  /// wildcard `*` selects elements only).
  std::vector<TagId> skip_tags;

  /// Residual predicate on the data column (equality predicates use the
  /// dictionary fast path; other operators compare decoded strings).
  std::optional<ValuePred> value;
  /// Residual exact-level predicate (e.g. the document root under the
  /// D-labeling baseline with a leading '/').
  std::optional<int32_t> level_eq;

  /// D-join with the anchor part's binding.
  enum class Join {
    kNone,           // root part, no join
    kContain,        // anc.start < start && anc.end > end
    kContainMin,     // containment && level >= anc.level + delta
    kContainExact,   // containment && level == anc.level + delta
    kContainPerAlt,  // containment && (level - anc.level) in the matched
                     // alternative's anchor_deltas (Unfold)
  };
  Join join = Join::kNone;
  int anchor = -1;  // index of the anchor part
  int delta = 0;    // level distance used by kContainMin / kContainExact

  /// Human-readable path expression for EXPLAIN / SQL rendering.
  std::string label;
};

/// \brief Complete translated query plan: a part tree evaluated left to
/// right, projecting the distinct starts of the return part.
struct ExecPlan {
  std::vector<PlanPart> parts;
  int return_part = 0;

  /// Plan-shape counters backing the paper's section 4.2/5.2.2 analysis.
  struct Shape {
    int d_joins = 0;
    int equality_selections = 0;   // P-label equality alternatives
    int range_selections = 0;      // P-label range scans
    int tag_scans = 0;             // D-labeling tag accesses
    int union_arms = 0;            // Unfold alternatives beyond 1 per part
  };
  Shape AnalyzeShape() const;
};

}  // namespace blas

#endif  // BLAS_EXEC_PLAN_H_
