#include "schema/path_summary.h"

#include <algorithm>
#include <set>
#include <utility>

namespace blas {

std::vector<TagId> SummaryNode::PathTags() const {
  std::vector<TagId> tags;
  for (const SummaryNode* n = this; n->parent != nullptr; n = n->parent) {
    tags.push_back(n->tag);
  }
  std::reverse(tags.begin(), tags.end());
  return tags;
}

SummaryNode* PathSummary::Extend(SummaryNode* parent, TagId tag,
                                 PLabel plabel, bool attribute) {
  for (auto& child : parent->children) {
    if (child->tag == tag) return child.get();
  }
  auto node = std::make_unique<SummaryNode>();
  node->tag = tag;
  node->parent = parent;
  node->depth = parent->depth + 1;
  node->plabel = plabel;
  node->attribute = attribute;
  SummaryNode* raw = node.get();
  parent->children.push_back(std::move(node));
  ++path_count_;
  return raw;
}

namespace {

bool StepMatches(const SummaryStep& step, const SummaryNode* node) {
  return step.tag.has_value() ? *step.tag == node->tag : !node->attribute;
}

void CollectDescendants(const SummaryNode* node,
                        std::vector<const SummaryNode*>* out) {
  for (const auto& child : node->children) {
    out->push_back(child.get());
    CollectDescendants(child.get(), out);
  }
}

}  // namespace

std::vector<const SummaryNode*> PathSummary::Expand(
    const std::vector<SummaryStep>& steps) const {
  return ExpandFrom(root_.get(), steps);
}

std::vector<const SummaryNode*> PathSummary::ExpandFrom(
    const SummaryNode* base, const std::vector<SummaryStep>& steps) const {
  if (steps.empty()) return {};
  // Breadth-first search over (summary node, matched step count) states.
  std::set<std::pair<const SummaryNode*, size_t>> seen;
  std::vector<std::pair<const SummaryNode*, size_t>> frontier;
  std::vector<const SummaryNode*> out;

  auto push = [&](const SummaryNode* node, size_t next_step) {
    if (seen.insert({node, next_step}).second) {
      frontier.emplace_back(node, next_step);
    }
  };

  // Seed with matches of step 0.
  std::vector<const SummaryNode*> candidates;
  if (steps[0].descendant) {
    CollectDescendants(base, &candidates);
  } else {
    for (const auto& child : base->children) candidates.push_back(child.get());
  }
  for (const SummaryNode* node : candidates) {
    if (StepMatches(steps[0], node)) push(node, 1);
  }

  std::set<const SummaryNode*> result_set;
  for (size_t i = 0; i < frontier.size(); ++i) {
    auto [node, next] = frontier[i];
    if (next == steps.size()) {
      result_set.insert(node);
      continue;
    }
    const SummaryStep& step = steps[next];
    std::vector<const SummaryNode*> next_candidates;
    if (step.descendant) {
      CollectDescendants(node, &next_candidates);
    } else {
      for (const auto& child : node->children) {
        next_candidates.push_back(child.get());
      }
    }
    for (const SummaryNode* cand : next_candidates) {
      if (StepMatches(step, cand)) push(cand, next + 1);
    }
  }

  out.assign(result_set.begin(), result_set.end());
  // Deterministic order: by plabel.
  std::sort(out.begin(), out.end(),
            [](const SummaryNode* a, const SummaryNode* b) {
              return a->plabel < b->plabel;
            });
  return out;
}

std::string PathSummary::PathString(const SummaryNode* node,
                                    const TagRegistry& tags) const {
  std::string out;
  for (TagId tag : node->PathTags()) {
    out.push_back('/');
    out.append(tags.Name(tag));
  }
  return out;
}

}  // namespace blas
