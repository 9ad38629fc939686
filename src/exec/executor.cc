#include "exec/executor.h"

#include <algorithm>
#include <queue>

#include "exec/operators.h"

namespace blas {

namespace {

/// Restores document order (start ascending) on a tuple list that is a
/// concatenation of start-sorted runs (one per distinct plabel, as
/// produced by SP range scans). A k-way merge is O(n log k) versus the
/// O(n log n) full sort, and k is the number of distinct source paths in
/// the range -- usually small.
void SortByStartRunAware(std::vector<NodeRecord>* tuples) {
  std::vector<std::pair<size_t, size_t>> runs;  // [begin, end)
  size_t begin = 0;
  for (size_t i = 1; i <= tuples->size(); ++i) {
    if (i == tuples->size() || (*tuples)[i].start < (*tuples)[i - 1].start) {
      runs.emplace_back(begin, i);
      begin = i;
    }
  }
  if (runs.size() <= 1) return;

  struct Head {
    uint32_t start;
    size_t run;
  };
  auto cmp = [](const Head& a, const Head& b) { return a.start > b.start; };
  std::priority_queue<Head, std::vector<Head>, decltype(cmp)> heap(cmp);
  std::vector<size_t> cursor(runs.size());
  for (size_t r = 0; r < runs.size(); ++r) {
    cursor[r] = runs[r].first;
    heap.push(Head{(*tuples)[runs[r].first].start, r});
  }
  std::vector<NodeRecord> merged;
  merged.reserve(tuples->size());
  while (!heap.empty()) {
    Head head = heap.top();
    heap.pop();
    merged.push_back((*tuples)[cursor[head.run]]);
    if (++cursor[head.run] < runs[head.run].second) {
      heap.push(Head{(*tuples)[cursor[head.run]].start, head.run});
    }
  }
  *tuples = std::move(merged);
}

}  // namespace

std::vector<NodeRecord> FetchPartTuples(const PlanPart& part,
                                        const NodeStore& store,
                                        const StringDict& dict) {
  std::optional<uint32_t> data;
  bool residual_filter = false;
  if (part.value.has_value()) {
    if (part.value->op == ValueOp::kEq && !part.value->literal.empty()) {
      // Equality fast path: one dictionary lookup turns the predicate
      // into an integer comparison inside the scan.
      auto id = dict.Find(part.value->literal);
      if (!id.has_value()) return {};  // value never occurs: empty scan
      data = *id;
    } else {
      residual_filter = true;
    }
  }

  std::vector<NodeRecord> tuples;
  switch (part.scan) {
    case PlanPart::Scan::kPlabelAlts:
      for (const PlanAlt& alt : part.alts) {
        store.ScanPlabelRange(alt.range, data, part.level_eq, &tuples);
      }
      break;
    case PlanPart::Scan::kTag: {
      tuples = store.ScanTag(part.tag, data);
      if (part.level_eq.has_value()) {
        std::erase_if(tuples, [&](const NodeRecord& r) {
          return r.level != *part.level_eq;
        });
      }
      break;
    }
    case PlanPart::Scan::kAllTags: {
      tuples = store.ScanAll(data);
      std::erase_if(tuples, [&](const NodeRecord& r) {
        return (part.level_eq.has_value() && r.level != *part.level_eq) ||
               std::binary_search(part.skip_tags.begin(),
                                  part.skip_tags.end(), r.tag);
      });
      break;
    }
  }
  if (residual_filter) {
    // Comparison operators decode the data column (a node without
    // character data compares as the empty string — which fails every
    // ordered comparison under the numeric XPath 1.0 semantics of
    // ValuePred::Matches).
    std::erase_if(tuples, [&](const NodeRecord& rec) {
      std::string_view text =
          rec.data == kNullData ? std::string_view() : dict.Get(rec.data);
      return !part.value->Matches(text);
    });
  }
  SortByStartRunAware(&tuples);
  return tuples;
}

namespace {

/// Materializes part 0, then folds every other (non-skipped) part in with
/// one D-join. `skip` < 0 processes the whole plan; otherwise the (leaf)
/// part `skip` is left out and row columns follow processing order (part
/// index minus one past the skip) — see ColOf. Once the intermediate
/// result empties, remaining inputs are still fetched (they are part of
/// the plan's cost) but no further join work happens.
int ColOf(int part, int skip) {
  return skip >= 0 && part > skip ? part - 1 : part;
}

RowTable FoldJoins(const ExecPlan& plan, int skip, const NodeStore& store,
                   const StringDict& dict, ExecStats* local) {
  RowTable rows = [&] {
    std::vector<NodeRecord> tuples = FetchPartTuples(plan.parts[0], store,
                                                     dict);
    std::vector<DLabel> column;
    column.reserve(tuples.size());
    for (const NodeRecord& rec : tuples) column.push_back(rec.dlabel());
    return RowTable(std::move(column));
  }();

  std::vector<PerAltDeltas> alt_tables(plan.parts.size());
  bool dead = false;
  for (size_t i = 1; i < plan.parts.size(); ++i) {
    if (static_cast<int>(i) == skip) continue;
    const PlanPart& part = plan.parts[i];
    // The scan happens regardless of the intermediate result (a relational
    // engine materializes each base input of the join).
    std::vector<NodeRecord> tuples = FetchPartTuples(part, store, dict);
    ++local->d_joins;
    if (dead) continue;
    JoinPred pred;
    pred.kind = part.join;
    pred.delta = part.delta;
    if (part.join == PlanPart::Join::kContainPerAlt) {
      alt_tables[i] = BuildPerAltDeltas(part);
      pred.per_alt = &alt_tables[i];
    }
    rows = StructuralJoinRows(rows, ColOf(part.anchor, skip), tuples, pred);
    local->intermediate_rows += rows.size();
    if (rows.empty()) dead = true;
  }
  return rows;
}

}  // namespace

Result<std::vector<uint32_t>> RelationalExecutor::Execute(
    const ExecPlan& plan, ExecStats* stats) const {
  BLAS_ASSIGN_OR_RETURN(std::vector<DLabel> bindings,
                        ExecuteBindings(plan, stats));
  std::vector<uint32_t> result;
  result.reserve(bindings.size());
  for (const DLabel& binding : bindings) result.push_back(binding.start);
  return result;
}

Result<std::vector<DLabel>> RelationalExecutor::ExecuteBindings(
    const ExecPlan& plan, ExecStats* stats) const {
  if (plan.parts.empty()) {
    return Status::InvalidArgument("empty plan");
  }
  // Count exactly this query's storage accesses on this thread; the
  // store-wide counters keep accumulating globally, but diffing them
  // would attribute other threads' concurrent accesses to this query.
  ReadCounters counters;
  ReadCounterScope scope(&counters);
  ExecStats local;

  RowTable rows = FoldJoins(plan, /*skip=*/-1, *store_, *dict_, &local);
  std::vector<DLabel> result = rows.Column(plan.return_part);
  SortUniqueByStart(&result);

  if (stats != nullptr) {
    local.elements = counters.elements;
    local.page_fetches = counters.fetches;
    local.page_misses = counters.misses;
    local.io_reads = counters.io_reads;
    local.output_rows = result.size();
    *stats += local;
  }
  return result;
}

Result<std::vector<DLabel>> RelationalExecutor::MatchedAnchors(
    const ExecPlan& plan, size_t skip, ExecStats* stats) const {
  if (plan.parts.size() < 2 || skip == 0 || skip >= plan.parts.size()) {
    return Status::InvalidArgument("MatchedAnchors needs an anchored part");
  }
  ReadCounters counters;
  ReadCounterScope scope(&counters);
  ExecStats local;

  RowTable rows = FoldJoins(plan, static_cast<int>(skip), *store_, *dict_,
                            &local);
  std::vector<DLabel> anchors =
      rows.Column(ColOf(plan.parts[skip].anchor, static_cast<int>(skip)));
  SortUniqueByStart(&anchors);

  if (stats != nullptr) {
    local.elements = counters.elements;
    local.page_fetches = counters.fetches;
    local.page_misses = counters.misses;
    local.io_reads = counters.io_reads;
    *stats += local;
  }
  return anchors;
}

}  // namespace blas
