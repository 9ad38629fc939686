#include "translate/decomposition.h"

namespace blas {

namespace {

/// Pre-order walk emitting one tag-scan part per query node and one D-join
/// per edge (the "traditional" translation the paper compares against:
/// l tags => l - 1 D-joins).
void EmitNode(const QueryNode* node, int parent_part,
              const TranslateContext& ctx, ExecPlan* plan) {
  PlanPart part;
  if (node->tag == kWildcard) {
    part.scan = PlanPart::Scan::kAllTags;
    for (TagId id = 1; id <= ctx.tags->size(); ++id) {
      if (ctx.tags->IsAttribute(id)) part.skip_tags.push_back(id);
    }
  } else {
    part.scan = PlanPart::Scan::kTag;
    auto id = ctx.tags->Find(node->tag);
    if (id.has_value()) {
      part.tag = *id;
    } else {
      // Tag absent from the document: empty alternatives over SP express
      // a provably empty scan uniformly.
      part.scan = PlanPart::Scan::kPlabelAlts;
      part.alts.clear();
    }
  }
  part.value = node->value;
  part.label = node->tag;

  if (parent_part < 0) {
    part.join = PlanPart::Join::kNone;
    if (node->axis == Axis::kChild) part.level_eq = 1;  // document root
  } else {
    part.anchor = parent_part;
    part.delta = 1;
    // Containment already implies level >= anchor.level + 1, so the
    // descendant axis needs no residual level predicate.
    part.join = node->axis == Axis::kChild ? PlanPart::Join::kContainExact
                                           : PlanPart::Join::kContain;
  }

  int my_index = static_cast<int>(plan->parts.size());
  if (node->is_return) plan->return_part = my_index;
  plan->parts.push_back(std::move(part));
  for (const auto& child : node->children) {
    EmitNode(child.get(), my_index, ctx, plan);
  }
}

}  // namespace

Result<ExecPlan> TranslateDLabel(const Query& query,
                                 const TranslateContext& ctx) {
  if (ctx.tags == nullptr) {
    return Status::InvalidArgument("TranslateContext missing tags");
  }
  if (!query.root) return Status::InvalidArgument("empty query");
  if (query.return_node() == nullptr) {
    return Status::InvalidArgument("query has no return node");
  }
  ExecPlan plan;
  EmitNode(query.root.get(), -1, ctx, &plan);
  return plan;
}

}  // namespace blas
