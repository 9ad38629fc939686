// paged_browse: an Auction corpus about 3x larger (in working set) than
// its 8 MB frame budget, saved as BLASIDX2 and served demand-paged over
// pread. The eight fixed queries browse seeded offset windows with value
// projection, so storage and projection do most of the work and planning
// none (the eight plan-cache keys always hit).

#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "single_doc.h"
#include "storage/page.h"
#include "workload_util.h"
#include "workloads.h"

namespace blasbench {

void RunPagedBrowse(const RunConfig& config, Report* report) {
  const int replicate = config.tiny ? 2 : 16;
  const size_t budget = config.tiny ? (size_t{1} << 20) : (size_t{8} << 20);
  constexpr uint64_t kWindow = 100;
  const std::string xml = AuctionXml(SubSeed(config.seed, 1), 1, replicate);
  const std::vector<QuerySpec> queries = FixedQueries();
  const std::string path = config.workdir + "/paged_browse.blasidx";

  blas::StorageOptions storage;
  storage.memory_budget = budget;
  storage.backend = blas::StorageBackend::kPread;

  // One set-up: index build, save, paged open, service start. Build plus
  // save is this workload's document ingest. Untraced, the run sets up
  // again, on throwaway copies saved beside the served file, between
  // slices of the measured phase, so that setup_s and the ingest figures
  // are medians over the whole run.
  struct Served {
    std::unique_ptr<blas::BlasSystem> in_memory;
    std::shared_ptr<const blas::BlasSystem> paged;
    std::unique_ptr<blas::QueryService> service;
  };
  TimedSamples setup_s, ingest_ms;
  double save_ms = 0, open_ms = 0;
  auto set_up = [&](const std::string& file) {
    std::filesystem::remove(file);
    TrimHeap();
    const StealMeter steal;
    const Clock::time_point t = Clock::now();
    blas::Result<blas::BlasSystem> built = blas::BlasSystem::FromXml(xml);
    if (!built.ok()) {
      throw std::runtime_error("build: " + built.status().ToString());
    }
    Served served;
    served.in_memory = std::make_unique<blas::BlasSystem>(std::move(*built));
    Clock::time_point step = Clock::now();
    blas::Status saved = served.in_memory->SavePagedIndex(file);
    if (!saved.ok()) throw std::runtime_error("save: " + saved.ToString());
    save_ms = MillisSince(step);
    ingest_ms.Add(MillisSince(t), steal);
    step = Clock::now();
    blas::Result<blas::BlasSystem> opened =
        blas::BlasSystem::OpenPaged(file, storage);
    if (!opened.ok()) {
      throw std::runtime_error("open: " + opened.status().ToString());
    }
    open_ms = MillisSince(step);
    served.paged = std::make_shared<const blas::BlasSystem>(std::move(*opened));
    blas::ServiceOptions service_options;
    service_options.worker_threads = 4;
    served.service =
        std::make_unique<blas::QueryService>(served.paged, service_options);
    setup_s.Add(MillisSince(t) / 1e3, steal);
    return served;
  };
  const std::string spare_path = path + ".spare";
  auto spare_set_up = [&] {
    set_up(spare_path);
    std::filesystem::remove(spare_path);
    TrimHeap();
  };
  Served served = set_up(path);
  const std::shared_ptr<const blas::BlasSystem>& paged = served.paged;
  blas::QueryService* const service = served.service.get();

  // Expected answers (starts and values) from the in-memory system; the
  // request windows are cut from them. The in-memory system is then freed
  // so resident memory reflects the paged system only.
  std::vector<std::vector<uint32_t>> starts(queries.size());
  std::vector<std::vector<std::string>> values(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    blas::QueryOptions options;
    options.projection = blas::Projection::kValue;
    blas::Result<blas::QueryResult> result =
        served.in_memory->Execute(queries[i].xpath, options);
    if (!result.ok()) {
      throw std::runtime_error("expected " + queries[i].xpath + ": " +
                               result.status().ToString());
    }
    starts[i] = result->starts;
    for (const blas::Match& m : result->matches) values[i].push_back(m.content);
  }
  const blas::BlasSystem::DocStats stats = served.in_memory->doc_stats();
  served.in_memory.reset();
  TrimHeap();
  if (config.corrupt_expected) CorruptAnswer(&starts[0]);

  std::printf(
      "# paged_browse seed=%llu xml_bytes=%zu nodes=%zu pages=%zu "
      "budget_bytes=%zu file_bytes=%llu\n",
      static_cast<unsigned long long>(config.seed), xml.size(), stats.nodes,
      stats.pages, budget,
      static_cast<unsigned long long>(std::filesystem::file_size(path)));

  // The request stream: a uniform query, a uniform offset within its
  // answer count, limit 100, values projected.
  blas::Rng rng(SubSeed(config.seed, 2));
  std::vector<blas::QueryRequest> stream;
  std::vector<size_t> stream_query;
  for (int k = 0; k < (1 << 16); ++k) {
    const size_t q = rng.Below(queries.size());
    blas::QueryRequest request;
    request.xpath = queries[q].xpath;
    request.options.limit = kWindow;
    request.options.offset =
        starts[q].empty() ? 0 : rng.Below(starts[q].size());
    request.options.projection = blas::Projection::kValue;
    stream.push_back(std::move(request));
    stream_query.push_back(q);
  }
  SingleDocLoad load(paged.get(), service, report);
  load.set_stream(stream, [&](size_t i, const blas::QueryResult& result) {
    const size_t q = stream_query[i];
    const size_t offset = stream[i].options.offset;
    if (!SameWindow(result.starts, starts[q], offset, kWindow)) return false;
    if (result.matches.size() != result.starts.size()) return false;
    for (size_t j = 0; j < result.matches.size(); ++j) {
      if (result.matches[j].content != values[q][offset + j]) return false;
    }
    return true;
  });

  load.Run(kClients, config.tiny ? 0.2 : 1.0);  // warm-up: fills the budget

  const blas::BufferPool& pool = paged->store().pool();
  if (!config.trace) {
    const PhaseSamples measured =
        load.RunWithSetups(config.seconds, 10, 1, spare_set_up);
    AddQueryMetrics(measured, report);
    AddSetupAndIngest(setup_s, ingest_ms, report);
    report->Add("rss_mb", Median(measured.rss_mb), "MiB");
    report->Add("disk_bytes_per_xml_byte",
                static_cast<double>(std::filesystem::file_size(path)) /
                    static_cast<double>(xml.size()),
                "ratio");
    const uint64_t io_errors = pool.stats().io_errors;
    if (io_errors > 0) {
      report->Fail(std::to_string(io_errors) + " storage read errors");
    }
    return;
  }

  std::vector<blas::QueryRequest> distinct;
  for (const QuerySpec& q : queries) {
    blas::QueryRequest request;
    request.xpath = q.xpath;
    distinct.push_back(std::move(request));
  }
  load.set_distinct(std::move(distinct), starts);
  LayerReadings readings;
  Ledger ledger;
  load.Trace(config, &readings, &ledger);
  readings.budget_peak_mb = static_cast<double>(pool.peak_frames()) *
                            static_cast<double>(blas::kPageSize) /
                            (1024.0 * 1024.0);
  readings.budget_limit_mb = static_cast<double>(budget) / (1024.0 * 1024.0);
  if (readings.io_errors > 0) report->Fail("storage read errors");
  ledger.AddBuild(ProbeBuild(xml));
  ledger.AddSave(save_ms);
  ledger.AddOpenPaged(open_ms);
  readings.failed_frac = report->failed_frac();
  ledger.PrintRegretOffenders(5);
  ledger.Emit(readings, report);
}

}  // namespace blasbench
