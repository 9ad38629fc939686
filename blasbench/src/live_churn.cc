// live_churn: collection queries over a LiveCollection of Auction shards
// while one open-loop writer replaces a shard eight times a second and the
// main thread scrapes /metrics once a second. xml, labeling, persistence and
// ingest work only here; so do scatter/cancel, epoch pinning and the
// admin server. It shows whether ingest costs the readers.

#include <array>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>

#include "ingest/live_collection.h"
#include "obs/snapshot.h"
#include "server/admin_handlers.h"
#include "server/admin_server.h"
#include "workload_util.h"
#include "workloads.h"
#include "xpath/naive_eval.h"
#include "xpath/parser.h"

namespace blasbench {
namespace {

using CollectionFuture =
    std::future<blas::Result<blas::BlasCollection::CollectionResult>>;
/// expected[query][shard][generation]
using Expected =
    std::vector<std::vector<std::array<std::vector<uint32_t>, 2>>>;

constexpr auto kWritePeriod = std::chrono::milliseconds(125);  // 8 docs/s
constexpr auto kScrapePeriod = std::chrono::seconds(1);

/// The epoch invariant under a collection-wide limit: walking the shards
/// in name order, each shard's matches are its generation-A or -B answer,
/// cut to what is left of the limit.
bool CheckCollection(const blas::BlasCollection::CollectionResult& result,
                     const std::vector<std::array<std::vector<uint32_t>, 2>>&
                         want,
                     const std::vector<std::string>& names, uint64_t limit) {
  static const std::vector<uint32_t> kNone;
  size_t remaining = limit == 0 ? SIZE_MAX : limit;
  size_t d = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    const std::vector<uint32_t>* got = &kNone;
    if (d < result.docs.size() && result.docs[d].name == names[i]) {
      got = &result.docs[d++].starts;
    }
    if (!SameWindow(*got, want[i][0], 0, remaining) &&
        !SameWindow(*got, want[i][1], 0, remaining)) {
      return false;
    }
    remaining -= got->size();
  }
  return d == result.docs.size();
}

/// Live collection, its service and the admin server, torn down in
/// dependency order.
struct Stack {
  std::string dir;
  std::unique_ptr<blas::LiveCollection> live;
  std::unique_ptr<blas::QueryService> service;
  std::unique_ptr<blas::server::AdminServer> admin;
  std::unique_ptr<blas::obs::MetricsSnapshotter> snapshotter;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    if (admin != nullptr) admin->Stop();
    snapshotter.reset();
    if (service != nullptr) service->Shutdown();
    service.reset();
    live.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

/// The fixed-rate writer and the once-a-second scraper, both run from the
/// main thread while the query clients run.
class SideTraffic : public SideWork {
 public:
  SideTraffic(Stack* stack, const std::vector<std::string>* names,
              const std::vector<std::array<std::string, 2>>* xml,
              std::vector<int>* generation, Report* report)
      : stack_(stack),
        names_(names),
        xml_(xml),
        generation_(generation),
        report_(report) {}

  void Start() {
    next_write_ = Clock::now();
    next_scrape_ = next_write_ + kScrapePeriod;
    on_ = true;
  }

  Clock::time_point Tick(Clock::time_point now) override {
    if (on_) {
      while (now >= next_write_) {
        const size_t shard = writes_++ % names_->size();
        int& gen = (*generation_)[shard];
        gen ^= 1;
        late_ms.push_back(MillisBetween(next_write_, Clock::now()));
        const StealMeter steal;
        pending_.push_back(
            Pending{next_write_,
                    stack_->service->SubmitReplaceDocument(
                        (*names_)[shard], (*xml_)[shard][gen]),
                    steal});
        report_->Attempt();
        next_write_ += kWritePeriod;
      }
      if (now >= next_scrape_) {
        const Clock::time_point t = Clock::now();
        const long bytes = HttpGet(stack_->admin->port(), "/metrics");
        scrape_ms.push_back(MillisSince(t));
        report_->Attempt();
        if (bytes <= 0) report_->Fail("GET /metrics failed");
        next_scrape_ += kScrapePeriod;
      }
    }
    SettleReady();
    return on_ ? std::min(next_write_, next_scrape_)
               : Clock::time_point::max();
  }

  /// Replacements publish one at a time, so the oldest in flight is the
  /// next to settle: park on it.
  void Wait(Clock::time_point deadline) override {
    if (pending_.empty()) {
      std::this_thread::sleep_until(deadline);
      return;
    }
    pending_.front().future.wait_until(deadline);
    SettleReady();
  }

  /// Stops sending and waits for every replacement in flight.
  void Stop() {
    on_ = false;
    while (!pending_.empty()) {
      pending_.front().future.wait();
      Settle();
    }
    stack_->service->DrainIngest();
  }

  TimedSamples ingest_ms;
  std::vector<double> late_ms, scrape_ms;

 private:
  struct Pending {
    Clock::time_point due;
    std::future<blas::Status> future;
    StealMeter steal;
  };

  void SettleReady() {
    while (!pending_.empty() &&
           pending_.front().future.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      Settle();
    }
  }

  void Settle() {
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    const blas::Status status = p.future.get();
    if (status.ok()) {
      ingest_ms.Add(MillisSince(p.due), p.steal);
    } else {
      report_->Fail("replace: " + status.ToString());
    }
  }

  Stack* stack_;
  const std::vector<std::string>* names_;
  const std::vector<std::array<std::string, 2>>* xml_;
  std::vector<int>* generation_;
  Report* report_;
  bool on_ = false;
  uint64_t writes_ = 0;
  Clock::time_point next_write_, next_scrape_;
  std::deque<Pending> pending_;
};

/// Evictions and read errors summed over the pools of the documents in
/// the current snapshot.
struct PoolTotals {
  std::map<const blas::BlasSystem*, uint64_t> evictions;
  uint64_t io_errors = 0;

  static PoolTotals Of(const blas::LiveCollection& live) {
    PoolTotals out;
    std::shared_ptr<const blas::CollectionState> state = live.Snapshot();
    for (const std::string& name : state->collection.names()) {
      const blas::BlasSystem* sys = state->collection.Find(name);
      const blas::BufferPool::Stats s = sys->store().pool().stats();
      out.evictions[sys] = s.evictions;
      out.io_errors += s.io_errors;
    }
    return out;
  }
};

}  // namespace

void RunLiveChurn(const RunConfig& config, Report* report) {
  const size_t shards = config.tiny ? 2 : 4;
  const std::vector<QuerySpec> queries = FixedQueries();
  std::vector<std::string> names;
  std::vector<std::array<std::string, 2>> xml(shards);
  for (size_t i = 0; i < shards; ++i) {
    names.push_back("shard-" + std::to_string(i));
    for (int g = 0; g < 2; ++g) {
      xml[i][g] = AuctionXml(SubSeed(config.seed, 10 + 2 * i + g), 1, 1);
    }
  }

  // Expected answers per query, shard and generation from the reference
  // evaluator over DOM-keeping builds.
  Expected expected(queries.size(),
                    std::vector<std::array<std::vector<uint32_t>, 2>>(shards));
  for (size_t i = 0; i < shards; ++i) {
    for (int g = 0; g < 2; ++g) {
      blas::BlasOptions options;
      options.keep_dom = true;
      blas::Result<blas::BlasSystem> reference =
          blas::BlasSystem::FromXml(xml[i][g], options);
      if (!reference.ok()) {
        throw std::runtime_error("reference build: " +
                                 reference.status().ToString());
      }
      for (size_t q = 0; q < queries.size(); ++q) {
        blas::Result<blas::Query> query = blas::ParseXPath(queries[q].xpath);
        if (!query.ok()) throw std::runtime_error("query " + queries[q].xpath);
        expected[q][i][g] = blas::NaiveEvalStarts(*query, *reference->dom());
      }
    }
  }
  TrimHeap();
  if (config.corrupt_expected) {
    CorruptAnswer(&expected[0][0][0]);
    CorruptAnswer(&expected[0][0][1]);
  }

  // Set-up, repeated: open the live collection, start the service, add
  // every shard's generation A, start the admin server.
  const int reps = SetupRepetitions(config, 15);
  TimedSamples setup_s;
  std::unique_ptr<Stack> stack;
  for (int r = 0; r < reps; ++r) {
    stack.reset();
    TrimHeap();
    const StealMeter steal;
    const Clock::time_point t = Clock::now();
    stack = std::make_unique<Stack>();
    stack->dir = config.workdir + "/live-" + std::to_string(r);
    std::filesystem::create_directories(stack->dir);
    blas::LiveOptions live_options;
    live_options.storage.memory_budget = size_t{32} << 20;
    live_options.storage.backend = blas::StorageBackend::kPread;
    auto opened = blas::LiveCollection::Open(stack->dir, live_options);
    if (!opened.ok()) {
      throw std::runtime_error("live open: " + opened.status().ToString());
    }
    stack->live = std::move(*opened);
    blas::ServiceOptions service_options;
    service_options.worker_threads = 4;
    stack->service = std::make_unique<blas::QueryService>(stack->live.get(),
                                                           service_options);
    std::vector<std::future<blas::Status>> adds;
    for (size_t i = 0; i < shards; ++i) {
      adds.push_back(stack->service->SubmitAddDocument(names[i], xml[i][0]));
    }
    for (auto& add : adds) {
      const blas::Status status = add.get();
      if (!status.ok()) throw std::runtime_error("add: " + status.ToString());
    }
    stack->admin = std::make_unique<blas::server::AdminServer>();
    stack->snapshotter = blas::server::InstallAdminEndpoints(
        stack->admin.get(), stack->service.get());
    const blas::Status started = stack->admin->Start();
    if (!started.ok()) {
      throw std::runtime_error("admin start: " + started.ToString());
    }
    setup_s.Add(MillisSince(t) / 1e3, steal);
  }
  blas::QueryService& service = *stack->service;
  blas::LiveCollection& live = *stack->live;
  std::printf(
      "# live_churn seed=%llu shards=%zu shard_xml_bytes=%zu "
      "budget_bytes=%zu write_hz=8\n",
      static_cast<unsigned long long>(config.seed), shards, xml[0][0].size(),
      live.budget()->limit());

  // The request stream: a uniform query of the eight; half with limit 20.
  blas::Rng rng(SubSeed(config.seed, 2));
  std::vector<blas::QueryRequest> stream;
  std::vector<size_t> stream_query;
  for (int k = 0; k < (1 << 16); ++k) {
    const size_t q = rng.Below(queries.size());
    blas::QueryRequest request;
    request.xpath = queries[q].xpath;
    request.options.limit = rng.Percent(50) ? 20 : 0;
    stream.push_back(std::move(request));
    stream_query.push_back(q);
  }
  auto check = [&](size_t i,
                   const blas::BlasCollection::CollectionResult& result) {
    return CheckCollection(result, expected[stream_query[i]], names,
                           stream[i].options.limit);
  };

  bool traced = false;
  ClosedLoop<CollectionFuture> loop(
      [&](uint64_t seq) {
        blas::QueryRequest request = stream[seq % stream.size()];
        request.options.trace = traced;
        return service.SubmitCollection(std::move(request));
      },
      [&](uint64_t seq, CollectionFuture& future) {
        report->Attempt();
        const size_t i = seq % stream.size();
        auto result = future.get();
        if (!result.ok()) {
          report->Fail(stream[i].xpath + ": " + result.status().ToString());
          return Outcome::kFailed;
        }
        if (!check(i, *result)) {
          report->Fail("epoch invariant broken: " + stream[i].xpath);
          return Outcome::kWrong;
        }
        return Outcome::kOk;
      });
  // Warm-up: fills the plan caches.
  loop.Run(kClients, config.tiny ? 0.2 : 0.5);

  std::vector<int> generation(shards, 0);
  SideTraffic side(stack.get(), &names, &xml, &generation, report);
  loop.set_side(&side);

  if (!config.trace) {
    side.Start();
    const PhaseSamples measured = loop.Run(kClients, config.seconds);
    side.Stop();
    AddQueryMetrics(measured, report);
    AddSetupAndIngest(setup_s, side.ingest_ms, report);
    report->Add("rss_mb", Median(measured.rss_mb), "MiB");
    double live_xml = 0;
    for (size_t i = 0; i < shards; ++i) {
      live_xml += static_cast<double>(xml[i][generation[i]].size());
    }
    report->Add("disk_bytes_per_xml_byte",
                static_cast<double>(DirectoryBytes(stack->dir)) / live_xml,
                "ratio");
    const uint64_t io_errors = PoolTotals::Of(live).io_errors;
    if (io_errors > 0) {
      report->Fail(std::to_string(io_errors) + " storage read errors");
    }
    return;
  }

  // ------------------------------------------------------ traced run ---
  const double s = config.seconds;
  LayerReadings readings;
  Ledger ledger;

  ServiceDelta delta;
  delta.before = service.stats();
  const blas::LiveCollection::Stats live_before = live.stats();
  const PoolTotals pools_before = PoolTotals::Of(live);
  side.Start();
  // Untraced and traced slices alternate, so that drift in the machine's
  // speed hits both sides alike.
  PhaseSamples untraced, traced_phase;
  for (int slice = 0; slice < 4; ++slice) {
    untraced.Append(loop.Run(kClients, s * 0.35 / 4));
    traced = true;
    traced_phase.Append(loop.Run(kClients, s * 0.2 / 4));
    traced = false;
  }
  delta.after = service.stats();
  delta.Fill(&readings);
  const PoolTotals pools_after = PoolTotals::Of(live);
  uint64_t evictions = 0;
  for (const auto& [sys, count] : pools_after.evictions) {
    auto it = pools_before.evictions.find(sys);
    evictions += count - (it == pools_before.evictions.end() ? 0 : it->second);
  }
  const double queries_done = static_cast<double>(delta.completed());
  readings.evictions_per_query =
      queries_done > 0 ? static_cast<double>(evictions) / queries_done : 0;
  const PhaseSamples single = loop.Run(1, s * 0.15);
  side.Stop();
  const blas::LiveCollection::Stats live_after = live.stats();
  readings.overhead_frac =
      untraced.qps() > 0 ? 1.0 - traced_phase.qps() / untraced.qps() : 0.0;
  readings.wait_ms = Quantile(untraced.latency_ms, 0.5) -
                     Quantile(single.latency_ms, 0.5);
  readings.late_ms = Mean(side.late_ms);
  readings.scrape_ms = Mean(side.scrape_ms);
  const double replaced = static_cast<double>(live_after.docs_ingested -
                                              live_before.docs_ingested);
  readings.files_reclaimed_ratio =
      replaced > 0 ? static_cast<double>(live_after.files_reclaimed -
                                         live_before.files_reclaimed) /
                         replaced
                   : 0.0;
  readings.budget_peak_mb =
      static_cast<double>(live.budget()->peak_used()) / (1024.0 * 1024.0);
  readings.budget_limit_mb =
      static_cast<double>(live.budget()->limit()) / (1024.0 * 1024.0);

  // Ingest probe: two replacements driven through Prepare + PublishBatch,
  // each next to the pass-by-pass build of the same document.
  blas::StorageOptions probe_storage;
  probe_storage.backend = blas::StorageBackend::kPread;
  for (size_t i = 0; i < std::min<size_t>(2, shards); ++i) {
    const int next = generation[i] ^ 1;
    const std::string& doc = xml[i][next];
    ledger.AddBuild(ProbeBuild(doc));
    blas::Result<blas::BlasSystem> built = blas::BlasSystem::FromXml(doc);
    if (!built.ok()) throw std::runtime_error("probe build");
    const std::string path = config.workdir + "/probe.blasidx";
    Clock::time_point t = Clock::now();
    if (!built->SavePagedIndex(path).ok()) {
      throw std::runtime_error("probe save");
    }
    ledger.AddSave(MillisSince(t));
    t = Clock::now();
    if (!blas::BlasSystem::OpenPaged(path, probe_storage).ok()) {
      throw std::runtime_error("probe open");
    }
    ledger.AddOpenPaged(MillisSince(t));
    std::filesystem::remove(path);

    report->Attempt();
    t = Clock::now();
    auto prepared = live.Prepare(doc);
    const double prepare_ms = MillisSince(t);
    if (!prepared.ok()) {
      report->Fail("prepare: " + prepared.status().ToString());
      continue;
    }
    std::vector<blas::LiveCollection::BatchOp> ops(1);
    ops[0].kind = blas::ManifestOp::Kind::kReplace;
    ops[0].name = names[i];
    ops[0].doc = std::move(*prepared);
    t = Clock::now();
    const blas::Status published = live.PublishBatch(std::move(ops));
    const double publish_ms = MillisSince(t);
    if (!published.ok()) {
      report->Fail("publish: " + published.ToString());
      continue;
    }
    generation[i] = next;
    ledger.AddIngest(prepare_ms, publish_ms);
  }

  // Engine-regret probe over every document of the current epoch.
  std::shared_ptr<const blas::CollectionState> state = live.Snapshot();
  for (size_t i = 0; i < shards; ++i) {
    const blas::BlasSystem* sys = state->collection.Find(names[i]);
    for (size_t q = 0; q < queries.size(); ++q) {
      const EngineComparison comparison =
          CompareEngines(*sys, queries[q].xpath, queries[q].translator);
      if (!comparison.ok) continue;
      const std::string label = queries[q].xpath + " on " + names[i];
      CheckEngineAnswers(comparison, expected[q][i][generation[i]], label,
                         report);
      ledger.AddRegret(comparison, label);
    }
  }
  const StorageCost cost = CalibrateStorage(
      state->collection.Find(names[0])->store().pool(), config.seed);
  state.reset();

  // Ledger: one outstanding collection query at a time, replayed per
  // document of the epoch it ran on.
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s * 0.2));
  for (uint64_t k = 0; Clock::now() < until; ++k) {
    const size_t i = k % stream.size();
    const blas::QueryRequest& request = stream[i];
    const blas::ServiceStats before = service.stats();
    Clock::time_point t = Clock::now();
    auto result = service.SubmitCollection(request).get();
    const double e2e_us = MicrosSince(t);
    const blas::ServiceStats after = service.stats();
    report->Attempt();
    if (!result.ok() || !check(i, *result)) {
      report->Fail("wrong answer in ledger: " + request.xpath);
      continue;
    }
    t = Clock::now();
    (void)service.ExecuteCollection(request);
    const double service_us = MicrosSince(t);
    std::shared_ptr<const blas::CollectionState> epoch = live.Snapshot();
    std::vector<DocReplay> replays;
    for (const std::string& name : epoch->collection.names()) {
      replays.push_back(
          ReplayOnDocument(*epoch->collection.Find(name), request, cost));
    }
    ledger.AddRequest(e2e_us, service_us,
                      after.plan_cache_misses > before.plan_cache_misses,
                      after.doc_plan_misses - before.doc_plan_misses,
                      replays);
  }

  const uint64_t io_errors = PoolTotals::Of(live).io_errors;
  readings.io_errors = static_cast<double>(io_errors);
  if (io_errors > 0) report->Fail("storage read errors");
  readings.failed_frac = report->failed_frac();
  ledger.PrintRegretOffenders(5);
  ledger.Emit(readings, report);
}

}  // namespace blasbench
