// xmark_hot: the cache-resident Auction corpus behind a single-document
// QueryService, queried by a Zipf-skewed stream over a few hundred query
// texts. Plan-cache misses exercise xpath and translate; every request
// exercises exec/twig and the kAuto engine chooser; storage sees only
// hits; ingest is idle.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "single_doc.h"
#include "workload_util.h"
#include "workloads.h"
#include "xpath/naive_eval.h"
#include "xpath/parser.h"

namespace blasbench {

namespace {

/// Runs AttributeWildcardQueries() once on both engines against the
/// reference evaluator and prints how many still disagree: a provenance
/// line on stdout and each disagreeing text on stderr.
void ReportAttributeWildcards(const blas::BlasSystem& reference) {
  const std::vector<QuerySpec> probes = AttributeWildcardQueries();
  size_t wrong = 0;
  for (const QuerySpec& probe : probes) {
    blas::Result<blas::Query> query = blas::ParseXPath(probe.xpath);
    if (!query.ok()) {
      throw std::runtime_error("query " + probe.xpath + ": " +
                               query.status().ToString());
    }
    const std::vector<uint32_t> want =
        blas::NaiveEvalStarts(*query, *reference.dom());
    for (blas::Engine engine :
         {blas::Engine::kRelational, blas::Engine::kTwig}) {
      blas::QueryOptions options;
      options.translator = probe.translator;
      options.engine = engine;
      blas::Result<blas::QueryResult> got =
          reference.Execute(probe.xpath, options);
      if (!got.ok() || got->starts != want) {
        std::fprintf(stderr,
                     "attribute wildcard disagrees: %s (%zu vs %zu)\n",
                     probe.xpath.c_str(), got.ok() ? got->starts.size() : 0,
                     want.size());
        ++wrong;
        break;
      }
    }
  }
  std::printf(
      "# xmark_hot attribute_wildcard_texts=%zu disagreeing=%zu "
      "(outside the measured mix)\n",
      probes.size(), wrong);
}

}  // namespace

void RunXmarkHot(const RunConfig& config, Report* report) {
  const int replicate = config.tiny ? 1 : 4;
  const std::string xml = AuctionXml(SubSeed(config.seed, 1), 1, replicate);
  const std::vector<QuerySpec> queries = HotQueries();

  // Expected answers from the reference evaluator over a DOM-keeping
  // build, once per distinct query, before anything is timed.
  std::vector<std::vector<uint32_t>> expected(queries.size());
  {
    blas::BlasOptions options;
    options.keep_dom = true;
    blas::Result<blas::BlasSystem> reference =
        blas::BlasSystem::FromXml(xml, options);
    if (!reference.ok()) {
      throw std::runtime_error("reference build: " +
                               reference.status().ToString());
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      blas::Result<blas::Query> query = blas::ParseXPath(queries[i].xpath);
      if (!query.ok()) {
        throw std::runtime_error("query " + queries[i].xpath + ": " +
                                 query.status().ToString());
      }
      expected[i] = blas::NaiveEvalStarts(*query, *reference->dom());
    }
    ReportAttributeWildcards(*reference);
  }
  TrimHeap();
  if (config.corrupt_expected) CorruptAnswer(&expected[0]);

  // One set-up: index build plus service start. The index build is this
  // workload's document ingest. Untraced, the run sets up a few times
  // before it serves and again, on throwaway copies, between slices of
  // the measured phase, so that setup_s and the build figures are medians
  // over the whole run.
  struct Served {
    std::shared_ptr<const blas::BlasSystem> system;
    std::unique_ptr<blas::QueryService> service;
  };
  TimedSamples setup_s, build_ms;
  auto set_up = [&] {
    TrimHeap();
    const StealMeter steal;
    const Clock::time_point t = Clock::now();
    blas::BlasOptions options;
    options.cache_pages = 8192;  // the whole index fits in the cache
    blas::Result<blas::BlasSystem> built =
        blas::BlasSystem::FromXml(xml, options);
    if (!built.ok()) {
      throw std::runtime_error("build: " + built.status().ToString());
    }
    build_ms.Add(MillisSince(t), steal);
    Served served;
    served.system =
        std::make_shared<const blas::BlasSystem>(std::move(*built));
    blas::ServiceOptions service_options;
    service_options.worker_threads = 4;
    served.service =
        std::make_unique<blas::QueryService>(served.system, service_options);
    setup_s.Add(MillisSince(t) / 1e3, steal);
    return served;
  };
  auto spare_set_up = [&] {
    set_up();
    TrimHeap();
  };
  const Served served = set_up();
  for (int r = 1; r < SetupRepetitions(config, 3); ++r) spare_set_up();
  const std::shared_ptr<const blas::BlasSystem>& system = served.system;
  blas::QueryService* const service = served.service.get();

  const blas::BlasSystem::DocStats stats = system->doc_stats();
  std::printf(
      "# xmark_hot seed=%llu xml_bytes=%zu nodes=%zu pages=%zu "
      "distinct_queries=%zu\n",
      static_cast<unsigned long long>(config.seed), xml.size(), stats.nodes,
      stats.pages, queries.size());

  // The request stream: Zipf(1) over the popularity order, 30% limit=10.
  blas::Rng rng(SubSeed(config.seed, 2));
  const Zipf zipf(queries.size(), 1.0);
  std::vector<blas::QueryRequest> stream;
  std::vector<size_t> stream_query;
  for (int k = 0; k < (1 << 16); ++k) {
    const size_t q = zipf.Draw(&rng);
    blas::QueryRequest request;
    request.xpath = queries[q].xpath;
    request.options.translator = queries[q].translator;
    request.options.limit = rng.Percent(30) ? 10 : 0;
    stream.push_back(std::move(request));
    stream_query.push_back(q);
  }
  SingleDocLoad load(system.get(), service, report);
  load.set_stream(stream, [&](size_t i, const blas::QueryResult& result) {
    const uint64_t limit = stream[i].options.limit;
    return SameWindow(result.starts, expected[stream_query[i]], 0,
                      limit == 0 ? SIZE_MAX : limit);
  });

  load.Run(kClients, config.tiny ? 0.2 : 1.0);  // warm-up: fills the plan cache

  if (!config.trace) {
    const PhaseSamples measured =
        load.RunWithSetups(config.seconds, 10, config.tiny ? 1 : 2,
                           spare_set_up);
    AddQueryMetrics(measured, report);
    AddSetupAndIngest(setup_s, build_ms, report);
    report->Add("rss_mb", Median(measured.rss_mb), "MiB");
    const std::string path = config.workdir + "/xmark_hot.blasidx";
    blas::Status saved = system->SavePagedIndex(path);
    if (!saved.ok()) throw std::runtime_error("save: " + saved.ToString());
    report->Add("disk_bytes_per_xml_byte",
                static_cast<double>(std::filesystem::file_size(path)) /
                    static_cast<double>(xml.size()),
                "ratio");
    std::filesystem::remove(path);
    return;
  }

  std::vector<blas::QueryRequest> distinct;
  for (const QuerySpec& q : queries) {
    blas::QueryRequest request;
    request.xpath = q.xpath;
    request.options.translator = q.translator;
    distinct.push_back(std::move(request));
  }
  load.set_distinct(std::move(distinct), expected);
  LayerReadings readings;
  Ledger ledger;
  load.Trace(config, &readings, &ledger);
  for (int i = 0; i < 2; ++i) ledger.AddBuild(ProbeBuild(xml));
  const std::string path = config.workdir + "/xmark_hot.blasidx";
  const Clock::time_point t = Clock::now();
  blas::Status saved = system->SavePagedIndex(path);
  if (!saved.ok()) throw std::runtime_error("save: " + saved.ToString());
  ledger.AddSave(MillisSince(t));
  std::filesystem::remove(path);
  readings.failed_frac = report->failed_frac();
  ledger.PrintRegretOffenders(5);
  ledger.Emit(readings, report);
}

}  // namespace blasbench
