#include "single_doc.h"

#include <string>

#include "workload_util.h"

namespace blasbench {

SingleDocLoad::SingleDocLoad(const blas::BlasSystem* system,
                             blas::QueryService* service, Report* report)
    : system_(system),
      service_(service),
      report_(report),
      loop_(
          [this](uint64_t seq) {
            blas::QueryRequest request = stream_[seq % stream_.size()];
            request.options.trace = traced_;
            return service_->Submit(std::move(request));
          },
          [this](uint64_t seq, Future& future) {
            report_->Attempt();
            const size_t i = seq % stream_.size();
            blas::Result<blas::QueryResult> result = future.get();
            if (!result.ok()) {
              report_->Fail(stream_[i].xpath + ": " +
                            result.status().ToString());
              return Outcome::kFailed;
            }
            if (!check_(i, *result)) {
              report_->Fail("wrong answer: " + stream_[i].xpath);
              return Outcome::kWrong;
            }
            return Outcome::kOk;
          }) {}

PhaseSamples SingleDocLoad::Run(size_t depth, double seconds, bool traced) {
  traced_ = traced;
  return loop_.Run(depth, seconds);
}

PhaseSamples SingleDocLoad::RunWithSetups(
    double seconds, int slices, int between,
    const std::function<void()>& set_up) {
  PhaseSamples out;
  for (int slice = 0; slice < slices; ++slice) {
    out.Append(Run(kClients, seconds / slices));
    for (int k = 0; k < between; ++k) set_up();
  }
  return out;
}

void SingleDocLoad::RegretProbe(Ledger* ledger) {
  for (size_t i = 0; i < distinct_.size(); ++i) {
    const blas::QueryRequest& request = distinct_[i];
    const EngineComparison comparison = CompareEngines(
        *system_, request.xpath, request.options.translator);
    if (!comparison.ok) continue;
    CheckEngineAnswers(comparison, distinct_expected_[i], request.xpath,
                       report_);
    ledger->AddRegret(comparison, request.xpath);
  }
}

void SingleDocLoad::Trace(const RunConfig& config, LayerReadings* readings,
                          Ledger* ledger) {
  const double s = config.seconds;
  const blas::BufferPool& pool = system_->store().pool();

  ServiceDelta delta;
  delta.before = service_->stats();
  const blas::BufferPool::Stats pool_before = pool.stats();
  // Untraced and traced slices alternate, so that drift in the machine's
  // speed hits both sides alike.
  PhaseSamples untraced, traced;
  for (int slice = 0; slice < 4; ++slice) {
    untraced.Append(Run(kClients, s * 0.3 / 4));
    traced.Append(Run(kClients, s * 0.2 / 4, /*traced=*/true));
  }
  delta.after = service_->stats();
  const blas::BufferPool::Stats pool_after = pool.stats();
  delta.Fill(readings);
  const double queries = static_cast<double>(delta.completed());
  readings->evictions_per_query =
      queries > 0 ? static_cast<double>(pool_after.evictions -
                                        pool_before.evictions) /
                        queries
                  : 0.0;
  readings->overhead_frac =
      untraced.qps() > 0 ? 1.0 - traced.qps() / untraced.qps() : 0.0;
  const PhaseSamples single = Run(1, s * 0.15);
  readings->wait_ms = Quantile(untraced.latency_ms, 0.5) -
                      Quantile(single.latency_ms, 0.5);

  RegretProbe(ledger);
  const StorageCost cost = CalibrateStorage(pool, config.seed);

  // Ledger: one outstanding request at a time, each followed by its
  // layer-by-layer replay.
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s * 0.25));
  for (uint64_t k = 0; Clock::now() < until; ++k) {
    const size_t i = k % stream_.size();
    const blas::QueryRequest& request = stream_[i];
    const blas::ServiceStats before = service_->stats();
    Clock::time_point t = Clock::now();
    blas::Result<blas::QueryResult> result = service_->Submit(request).get();
    const double e2e_us = MicrosSince(t);
    const blas::ServiceStats after = service_->stats();
    report_->Attempt();
    if (!result.ok() || !check_(i, *result)) {
      report_->Fail("wrong answer in ledger: " + request.xpath);
      continue;
    }
    const bool missed = after.plan_cache_misses > before.plan_cache_misses;
    t = Clock::now();
    (void)service_->Execute(request);
    const double service_us = MicrosSince(t);
    ledger->AddRequest(e2e_us, service_us, missed, missed ? 1 : 0,
                       {ReplayOnDocument(*system_, request, cost)});
  }
  readings->io_errors = static_cast<double>(pool.stats().io_errors);
}

}  // namespace blasbench
