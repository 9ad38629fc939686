#include "translate/sql_render.h"

#include <cmath>

#include "common/string_util.h"
#include "common/u128.h"
#include "xpath/ast.h"

namespace blas {

namespace {

std::string Alias(size_t i) { return "T" + std::to_string(i + 1); }

/// SQL string literal with embedded single quotes doubled ('' escaping).
std::string SqlLiteral(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('\'');
  for (char c : text) {
    if (c == '\'') out.push_back('\'');
    out.push_back(c);
  }
  out.push_back('\'');
  return out;
}

std::string TableOf(const PlanPart& part) {
  return part.scan == PlanPart::Scan::kPlabelAlts ? "SP" : "SD";
}

/// Renders the selection predicate of one part ("" when it scans all).
std::string SelectionPredicate(const PlanPart& part, const std::string& t,
                               const TagRegistry& tags) {
  std::string out;
  auto add = [&](const std::string& clause) {
    if (!out.empty()) out.append(" AND ");
    out.append(clause);
  };

  switch (part.scan) {
    case PlanPart::Scan::kPlabelAlts: {
      if (part.alts.empty()) {
        add("FALSE /* tag not in document */");
        break;
      }
      std::string alts;
      for (size_t i = 0; i < part.alts.size(); ++i) {
        const PLabelRange& r = part.alts[i].range;
        if (i > 0) alts.append(" OR ");
        if (r.lo == r.hi) {
          alts.append(t + ".plabel = " + U128ToString(r.lo));
        } else {
          alts.append(t + ".plabel BETWEEN " + U128ToString(r.lo) + " AND " +
                      U128ToString(r.hi));
        }
      }
      add(part.alts.size() > 1 ? "(" + alts + ")" : alts);
      break;
    }
    case PlanPart::Scan::kTag:
      add(t + ".tag = " + SqlLiteral(tags.Name(part.tag)));
      break;
    case PlanPart::Scan::kAllTags:
      if (!part.skip_tags.empty()) add(t + ".tag NOT LIKE '@%'");
      break;
  }
  if (part.value.has_value()) {
    const ValuePred& value = *part.value;
    if (value.op == ValueOp::kEq || value.op == ValueOp::kNe) {
      add(t + ".data " + ValueOpText(value.op) + " " +
          SqlLiteral(value.literal));
    } else if (std::isnan(XPathNumber(value.literal))) {
      // Ordered comparison against a non-number matches nothing
      // (XPath 1.0 number() semantics, same as ValuePred::Matches).
      add("FALSE /* non-numeric literal */");
    } else {
      // XPath: non-numeric data is NaN and never matches; dialects that
      // CAST such text to 0 need those rows excluded by the consumer.
      add("CAST(" + t + ".data AS REAL) " + ValueOpText(value.op) + " " +
          std::string(Trim(value.literal)) +
          " /* non-numeric data never matches */");
    }
  }
  if (part.level_eq.has_value()) {
    add(t + ".level = " + std::to_string(*part.level_eq));
  }
  return out;
}

/// Renders the D-join predicate of one part against its anchor alias.
std::string JoinPredicate(const PlanPart& part, const std::string& t,
                          const std::string& anchor) {
  std::string out = anchor + ".start < " + t + ".start AND " + anchor +
                    ".end > " + t + ".end";
  switch (part.join) {
    case PlanPart::Join::kNone:
    case PlanPart::Join::kContain:
      break;
    case PlanPart::Join::kContainMin:
      out.append(" AND " + t + ".level >= " + anchor + ".level + " +
                 std::to_string(part.delta));
      break;
    case PlanPart::Join::kContainExact:
      out.append(" AND " + t + ".level = " + anchor + ".level + " +
                 std::to_string(part.delta));
      break;
    case PlanPart::Join::kContainPerAlt: {
      // One level-alignment disjunct per unfold alternative.
      std::string arms;
      bool all_trivial = true;
      for (const PlanAlt& alt : part.alts) {
        if (alt.anchor_deltas.size() != 1) all_trivial = false;
      }
      for (size_t i = 0; i < part.alts.size(); ++i) {
        const PlanAlt& alt = part.alts[i];
        if (i > 0) arms.append(" OR ");
        arms.append(t + ".plabel = " + U128ToString(alt.range.lo));
        if (!alt.anchor_deltas.empty()) {
          arms.append(" AND " + t + ".level - " + anchor + ".level IN (");
          for (size_t d = 0; d < alt.anchor_deltas.size(); ++d) {
            if (d > 0) arms.append(", ");
            arms.append(std::to_string(alt.anchor_deltas[d]));
          }
          arms.append(")");
        }
      }
      if (!part.alts.empty() && !(all_trivial && part.alts.size() == 1)) {
        out.append(" AND (" + arms + ")");
      } else if (part.alts.size() == 1 &&
                 part.alts[0].anchor_deltas.size() == 1) {
        out.append(" AND " + t + ".level = " + anchor + ".level + " +
                   std::to_string(part.alts[0].anchor_deltas[0]));
      }
      break;
    }
  }
  return out;
}

}  // namespace

std::string RenderSql(const ExecPlan& plan, const TagRegistry& tags) {
  std::string from;
  std::string where;
  auto add_where = [&](const std::string& clause) {
    if (clause.empty()) return;
    if (!where.empty()) where.append("\n  AND ");
    where.append(clause);
  };

  for (size_t i = 0; i < plan.parts.size(); ++i) {
    const PlanPart& part = plan.parts[i];
    if (!from.empty()) from.append(", ");
    from.append(TableOf(part) + " " + Alias(i));
    add_where(SelectionPredicate(part, Alias(i), tags));
    if (part.join != PlanPart::Join::kNone) {
      add_where(JoinPredicate(part, Alias(i), Alias(part.anchor)));
    }
  }

  std::string sql = "SELECT DISTINCT " +
                    Alias(plan.return_part) + ".start\nFROM " + from;
  if (!where.empty()) sql.append("\nWHERE " + where);
  return sql + ";";
}

std::string RenderAlgebra(const ExecPlan& plan, const TagRegistry& tags) {
  std::string out = "pi_{" + Alias(plan.return_part) + ".start}(\n";
  for (size_t i = 0; i < plan.parts.size(); ++i) {
    const PlanPart& part = plan.parts[i];
    std::string sel = SelectionPredicate(part, Alias(i), tags);
    std::string rel = "rho(" + Alias(i) + ", sigma_{" +
                      (sel.empty() ? "true" : sel) + "}(" + TableOf(part) +
                      "))";
    if (i == 0) {
      out.append("  " + rel + "\n");
    } else {
      out.append("  |X|_{" + JoinPredicate(part, Alias(i),
                                           Alias(part.anchor)) +
                 "}\n  " + rel + "\n");
    }
  }
  out.append(")");
  return out;
}

}  // namespace blas
