#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "blas/projection.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "exec/optimizer.h"
#include "labeling/labeler.h"
#include "labeling/plabel.h"
#include "labeling/tag_registry.h"
#include "storage/node_store.h"
#include "twig/twig.h"
#include "xml/sax_parser.h"
#include "xpath/parser.h"

namespace blasbench {

using blas::Engine;

namespace {

/// Parses without doing anything with the events: bare SAX cost.
class NullHandler : public blas::SaxHandler {
 public:
  void OnStartElement(std::string_view,
                      const std::vector<blas::XmlAttribute>&) override {}
  void OnEndElement(std::string_view) override {}
  void OnText(std::string_view) override {}
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

StorageCost CalibrateStorage(const blas::BufferPool& pool, uint64_t seed) {
  StorageCost cost;
  const size_t pages = pool.page_count();
  if (pages == 0) return cost;
  constexpr int kHits = 4000;
  { blas::PageRef warm = pool.Fetch(0); }
  Clock::time_point t = Clock::now();
  for (int i = 0; i < kHits; ++i) {
    blas::PageRef ref = pool.Fetch(0);
    if (!ref) break;
  }
  cost.hit_us = MicrosSince(t) / kHits;

  const size_t sweep = std::min<size_t>(4000, pages);
  blas::Rng rng(seed);
  const blas::BufferPool::Stats before = pool.stats();
  t = Clock::now();
  for (size_t i = 0; i < sweep; ++i) {
    blas::PageRef ref = pool.Fetch(static_cast<blas::PageId>(rng.Below(pages)));
    if (!ref) break;
  }
  const double sweep_us = MicrosSince(t);
  const blas::BufferPool::Stats after = pool.stats();
  const uint64_t misses = after.misses - before.misses;
  const uint64_t fetches = after.fetches - before.fetches;
  cost.miss_us =
      misses == 0
          ? cost.hit_us
          : std::max(cost.hit_us,
                     (sweep_us - static_cast<double>(fetches - misses) *
                                     cost.hit_us) /
                         static_cast<double>(misses));
  return cost;
}

DocReplay ReplayOnDocument(const blas::BlasSystem& sys,
                           const blas::QueryRequest& request,
                           const StorageCost& cost) {
  DocReplay d;
  const blas::QueryOptions& options = request.options;
  d.bounded = options.limit > 0 || options.offset > 0;

  Clock::time_point t = Clock::now();
  blas::Result<blas::Query> query = blas::ParseXPath(request.xpath);
  d.parse_us = MicrosSince(t);
  if (!query.ok()) return d;

  blas::TranslateContext ctx;
  ctx.tags = &sys.tags();
  ctx.codec = &sys.codec();
  ctx.summary = &sys.summary();
  t = Clock::now();
  blas::Result<blas::ExecPlan> plan =
      blas::Translate(*query, options.translator, ctx);
  d.translate_us = MicrosSince(t);
  if (!plan.ok()) return d;

  blas::CostModel model(&sys.summary(), &sys.dict());
  t = Clock::now();
  const Engine chosen = blas::ChooseEngine(*plan, model);
  d.choose_us = MicrosSince(t);
  d.engine = options.engine == Engine::kAuto ? chosen : options.engine;

  t = Clock::now();
  const blas::StreamPlanInfo info = sys.AnalyzeStreamability(*plan);
  d.analyze_us = MicrosSince(t);

  auto shared = std::make_shared<const blas::ExecPlan>(*plan);
  const blas::BufferPool& pool = sys.store().pool();
  const blas::BufferPool::Stats before = pool.stats();
  t = Clock::now();
  blas::Result<blas::ResultCursor> cursor =
      sys.OpenPlan(shared, d.engine, options, &info);
  d.open_us = MicrosSince(t);
  if (!cursor.ok()) return d;
  t = Clock::now();
  blas::QueryResult result = cursor->Drain();
  d.drain_us = MicrosSince(t);
  const blas::BufferPool::Stats after = pool.stats();
  d.storage_us = cost.Estimate(after.fetches - before.fetches,
                               after.misses - before.misses);

  if (d.bounded) {
    d.elements_bounded = result.stats.elements;
    blas::QueryOptions unbounded = options;
    unbounded.limit = 0;
    unbounded.offset = 0;
    blas::Result<blas::ResultCursor> full =
        sys.OpenPlan(shared, d.engine, unbounded, &info);
    if (full.ok()) d.elements_unbounded = full->Drain().stats.elements;
  }

  blas::RelationalExecutor relational(&sys.store(), &sys.dict());
  t = Clock::now();
  (void)relational.ExecuteBindings(*plan, &d.relational_stats);
  d.relational_us = MicrosSince(t);
  blas::TwigEngine twig(&sys.store(), &sys.dict());
  t = Clock::now();
  (void)twig.ExecuteBindings(*plan, &d.twig_stats);
  d.twig_us = MicrosSince(t);
  const blas::ExecStats& engine_stats =
      d.engine == Engine::kTwig ? d.twig_stats : d.relational_stats;
  d.engine_storage_us =
      cost.Estimate(engine_stats.page_fetches, engine_stats.page_misses);

  if (options.projection != blas::Projection::kDLabel) {
    blas::ContentProjector projector(&sys.store(), &sys.dict(), &sys.tags(),
                                     &sys.codec());
    t = Clock::now();
    for (uint32_t start : result.starts) {
      blas::Match m = projector.ProjectStart(start, options.projection);
      if (m.start != start) break;
    }
    d.project_us = MicrosSince(t);
    d.projected = result.starts.size();
  }
  return d;
}

BuildProbe ProbeBuild(std::string_view xml) {
  BuildProbe probe;
  probe.bytes = static_cast<double>(xml.size());
  blas::SaxParser parser;

  NullHandler null_handler;
  Clock::time_point t = Clock::now();
  (void)parser.Parse(xml, &null_handler);
  probe.parse_ms = MillisSince(t);

  blas::TagRegistry registry;
  blas::TagCollector collector(&registry);
  t = Clock::now();
  (void)parser.Parse(xml, &collector);
  probe.collect_ms = MillisSince(t);
  registry.Freeze();
  blas::Result<blas::PLabelCodec> codec =
      blas::PLabelCodec::Create(registry.size(), collector.max_depth());
  if (!codec.ok()) return probe;

  blas::Labeler labeler(registry, *codec);
  t = Clock::now();
  (void)parser.Parse(xml, &labeler);
  probe.label_ms = MillisSince(t);
  probe.nodes = labeler.records().size();

  t = Clock::now();
  blas::NodeStore store(labeler.records());
  probe.store_ms = MillisSince(t);
  return probe;
}

void Ledger::AddRequest(double e2e_us, double service_us, bool plan_missed,
                        uint64_t doc_misses,
                        const std::vector<DocReplay>& docs) {
  if (docs.empty()) return;
  ++requests_;
  double path_us = 0;
  double translate_mean = 0, choose_mean = 0, analyze_mean = 0;
  for (const DocReplay& d : docs) {
    const double path = d.open_us + d.drain_us;
    const double storage = std::min(d.storage_us, path);
    double engine_self = 0;
    if (!d.bounded) {
      const double engine =
          d.engine == Engine::kTwig ? d.twig_us : d.relational_us;
      engine_self = std::clamp(engine - std::min(d.engine_storage_us, engine),
                               0.0, path - storage);
    }
    (d.engine == Engine::kTwig ? twig_self_ : exec_self_) += engine_self;
    storage_self_ += storage;
    blas_self_ += path - storage - engine_self;
    path_us += path;

    ++doc_replays_;
    parse_us_ += d.parse_us;
    translate_us_ += d.translate_us;
    choose_us_ += d.choose_us;
    open_us_ += d.open_us;
    drain_us_ += d.drain_us;
    relational_us_ += d.relational_us;
    twig_us_ += d.twig_us;
    project_us_ += d.project_us;
    projected_ += d.projected;
    relational_stats_ += d.relational_stats;
    twig_stats_ += d.twig_stats;
    elements_bounded_ += d.elements_bounded;
    elements_unbounded_ += d.elements_unbounded;
    translate_mean += d.translate_us / static_cast<double>(docs.size());
    choose_mean += d.choose_us / static_cast<double>(docs.size());
    analyze_mean += d.analyze_us / static_cast<double>(docs.size());
  }

  service_self_ += service_us - path_us;
  double miss_path = 0;
  if (plan_missed) {
    xpath_self_ += docs.front().parse_us;
    miss_path += docs.front().parse_us;
  }
  const double misses = static_cast<double>(doc_misses);
  translate_self_ += translate_mean * misses;
  exec_self_ += choose_mean * misses;
  blas_self_ += analyze_mean * misses;
  miss_path += (translate_mean + choose_mean + analyze_mean) * misses;

  e2e_us_ += e2e_us;
  covered_us_ += service_us + miss_path;
}

EngineComparison CompareEngines(const blas::BlasSystem& sys,
                                const std::string& xpath,
                                blas::Translator translator) {
  EngineComparison out;
  blas::Result<blas::ExecPlan> plan = sys.Plan(xpath, translator);
  if (!plan.ok()) return out;
  auto shared = std::make_shared<const blas::ExecPlan>(std::move(*plan));
  blas::CostModel model(&sys.summary(), &sys.dict());
  out.chosen = blas::ChooseEngine(*shared, model);
  for (Engine engine : {Engine::kRelational, Engine::kTwig}) {
    const bool twig = engine == Engine::kTwig;
    double best = kInfinity;
    for (int rep = 0; rep < 3; ++rep) {
      const Clock::time_point t = Clock::now();
      blas::Result<blas::ResultCursor> cursor = sys.OpenPlan(shared, engine);
      if (!cursor.ok()) return out;
      blas::QueryResult result = cursor->Drain();
      best = std::min(best, MillisSince(t));
      (twig ? out.twig_starts : out.relational_starts) =
          std::move(result.starts);
    }
    (twig ? out.twig_ms : out.relational_ms) = best;
  }
  out.ok = true;
  return out;
}

void CheckEngineAnswers(const EngineComparison& comparison,
                        const std::vector<uint32_t>& expected,
                        const std::string& label, Report* report) {
  for (Engine engine : {Engine::kRelational, Engine::kTwig}) {
    report->Attempt();
    const std::vector<uint32_t>& got = engine == Engine::kTwig
                                           ? comparison.twig_starts
                                           : comparison.relational_starts;
    if (got != expected) {
      report->Fail(std::string("wrong answer from ") +
                   blas::EngineName(engine) + ": " + label);
    }
  }
}

void Ledger::AddRegret(const EngineComparison& c, const std::string& query) {
  const double auto_ms =
      c.chosen == Engine::kTwig ? c.twig_ms : c.relational_ms;
  regrets_.push_back(Regret{auto_ms, c.relational_ms, c.twig_ms, query});
}

void Ledger::PrintRegretOffenders(size_t n) const {
  std::vector<Regret> sorted = regrets_;
  auto ratio = [](const Regret& r) {
    return r.auto_ms / std::max(1e-9, std::min(r.relational_ms, r.twig_ms));
  };
  std::sort(sorted.begin(), sorted.end(),
            [&](const Regret& a, const Regret& b) {
              return ratio(a) > ratio(b);
            });
  for (size_t i = 0; i < std::min(n, sorted.size()); ++i) {
    const Regret& r = sorted[i];
    std::fprintf(stderr,
                 "regret %.2fx  auto %.3f ms  relational %.3f ms  twig %.3f "
                 "ms  %s\n",
                 ratio(r), r.auto_ms, r.relational_ms, r.twig_ms,
                 r.query.c_str());
  }
}

void Ledger::Emit(const LayerReadings& in, Report* report) const {
  const double n = std::max<double>(1, static_cast<double>(requests_));
  const double nd = std::max<double>(1, static_cast<double>(doc_replays_));
  const double rel_out = static_cast<double>(relational_stats_.output_rows);
  const double twig_out = static_cast<double>(twig_stats_.output_rows);

  double regret_auto = 0, regret_best = 0;
  for (const Regret& r : regrets_) {
    regret_auto += r.auto_ms;
    regret_best += std::min(r.relational_ms, r.twig_ms);
  }

  std::vector<double> parse, label, store, nodes_per_s, mb_per_s;
  for (const BuildProbe& b : builds_) {
    parse.push_back(b.parse_ms);
    const double label_ms = b.collect_ms + b.label_ms - 2 * b.parse_ms;
    label.push_back(label_ms);
    store.push_back(b.store_ms);
    nodes_per_s.push_back(Ratio(static_cast<double>(b.nodes),
                                label_ms / 1e3));
    mb_per_s.push_back(Ratio(b.bytes / 1e6, b.parse_ms / 1e3));
  }
  double ingest_self = 0;
  if (!prepare_ms_.empty()) {
    double build = 0;
    for (const BuildProbe& b : builds_) build += b.collect_ms + b.label_ms;
    build /= std::max<double>(1, static_cast<double>(builds_.size()));
    ingest_self = Mean(prepare_ms_) + Mean(publish_ms_) -
                  (build + Mean(store) + Mean(save_ms_) +
                   Mean(open_paged_ms_));
  }

  Report& r = *report;
  r.Add("service.plan_cache_hit_ratio", in.plan_cache_hit_ratio, "ratio");
  r.Add("service.doc_plan_hit_ratio", in.doc_plan_hit_ratio, "ratio");
  r.Add("service.wait_ms", in.wait_ms, "ms");
  // The service's self time is its overhead over the cursor it drives.
  r.Add("service.overhead_us", service_self_ / n, "us");
  r.Add("xpath.parse_us", parse_us_ / nd, "us");
  r.Add("xpath.self_us", xpath_self_ / n, "us");
  r.Add("translate.translate_us", translate_us_ / nd, "us");
  r.Add("translate.self_us", translate_self_ / n, "us");
  r.Add("exec.choose_us", choose_us_ / nd, "us");
  r.Add("exec.relational_us", relational_us_ / nd, "us");
  r.Add("exec.elements_per_result",
        Ratio(static_cast<double>(relational_stats_.elements), rel_out),
        "count");
  r.Add("exec.intermediate_per_result",
        Ratio(static_cast<double>(relational_stats_.intermediate_rows),
              rel_out),
        "count");
  r.Add("exec.djoins_per_query",
        static_cast<double>(relational_stats_.d_joins) / nd, "count");
  r.Add("exec.auto_regret", Ratio(regret_auto, regret_best), "ratio");
  r.Add("exec.self_us", exec_self_ / n, "us");
  r.Add("twig.twig_us", twig_us_ / nd, "us");
  r.Add("twig.elements_per_result",
        Ratio(static_cast<double>(twig_stats_.elements), twig_out), "count");
  r.Add("twig.self_us", twig_self_ / n, "us");
  r.Add("blas.open_us", open_us_ / nd, "us");
  r.Add("blas.drain_us", drain_us_ / nd, "us");
  r.Add("blas.project_us_per_match",
        Ratio(project_us_, static_cast<double>(projected_)), "us");
  r.Add("blas.limit_elements_ratio",
        Ratio(static_cast<double>(elements_bounded_),
              static_cast<double>(elements_unbounded_)),
        "ratio");
  r.Add("blas.offset_skipped_per_query", in.offset_skipped_per_query,
        "count");
  r.Add("blas.docs_cancelled_ratio", in.docs_cancelled_ratio, "ratio");
  r.Add("blas.self_us", blas_self_ / n, "us");
  r.Add("storage.fetches_per_query", in.fetches_per_query, "count");
  r.Add("storage.misses_per_query", in.misses_per_query, "count");
  r.Add("storage.hit_ratio", in.hit_ratio, "ratio");
  r.Add("storage.evictions_per_query", in.evictions_per_query, "count");
  r.Add("storage.io_reads_per_query", in.io_reads_per_query, "count");
  r.Add("storage.budget_peak_mb", in.budget_peak_mb, "MiB");
  r.Add("storage.budget_limit_mb", in.budget_limit_mb, "MiB");
  r.Add("storage.open_paged_ms", Mean(open_paged_ms_), "ms");
  r.Add("storage.save_paged_ms", Mean(save_ms_), "ms");
  r.Add("storage.build_ms", Mean(store), "ms");
  r.Add("storage.io_errors", in.io_errors, "count");
  r.Add("storage.self_us", storage_self_ / n, "us");
  r.Add("xml.parse_ms", Mean(parse), "ms");
  r.Add("xml.parse_mb_per_s", Mean(mb_per_s), "MB/s");
  r.Add("labeling.label_ms", Mean(label), "ms");
  r.Add("labeling.nodes_per_s", Mean(nodes_per_s), "1/s");
  r.Add("ingest.prepare_ms", Mean(prepare_ms_), "ms");
  r.Add("ingest.publish_ms", Mean(publish_ms_), "ms");
  r.Add("ingest.late_ms", in.late_ms, "ms");
  r.Add("ingest.files_reclaimed_ratio", in.files_reclaimed_ratio, "ratio");
  r.Add("ingest.self_ms", ingest_self, "ms");
  r.Add("server.scrape_ms", in.scrape_ms, "ms");
  r.Add("trace.coverage", Ratio(covered_us_, e2e_us_), "ratio");
  r.Add("trace.overhead_frac", in.overhead_frac, "ratio");
  r.Add("failed_frac", in.failed_frac, "ratio");
}

}  // namespace blasbench
