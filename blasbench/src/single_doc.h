// Load shared by the two single-document workloads (xmark_hot,
// paged_browse): the closed request loop over a QueryService, and the
// traced run's phases, engine-regret probe and ledger replays.

#ifndef BLASBENCH_SINGLE_DOC_H_
#define BLASBENCH_SINGLE_DOC_H_

#include <functional>
#include <future>
#include <vector>

#include "blas/blas.h"
#include "harness.h"
#include "ledger.h"
#include "service/query_service.h"

namespace blasbench {

class SingleDocLoad {
 public:
  using Future = std::future<blas::Result<blas::QueryResult>>;
  /// True when `result` is the right answer to stream entry `i`.
  using CheckFn =
      std::function<bool(size_t i, const blas::QueryResult& result)>;

  SingleDocLoad(const blas::BlasSystem* system, blas::QueryService* service,
                  Report* report);
  SingleDocLoad(const SingleDocLoad&) = delete;
  SingleDocLoad& operator=(const SingleDocLoad&) = delete;

  /// The request stream (entry i is sent as request seq % size) and its
  /// answer check.
  void set_stream(std::vector<blas::QueryRequest> stream, CheckFn check) {
    stream_ = std::move(stream);
    check_ = std::move(check);
  }
  /// Distinct unbounded queries with their full expected answers, for
  /// the engine-regret probe.
  void set_distinct(std::vector<blas::QueryRequest> distinct,
                    std::vector<std::vector<uint32_t>> expected) {
    distinct_ = std::move(distinct);
    distinct_expected_ = std::move(expected);
  }

  /// Closed loop at `depth` outstanding for `seconds`; with `traced`, every
  /// request asks the service for its span tree.
  PhaseSamples Run(size_t depth, double seconds, bool traced = false);

  /// The measured phase: `slices` equal slices of the closed loop at
  /// kClients outstanding, `seconds` in all, with `between` calls of
  /// `set_up` after each slice. The set-up samples then span the same
  /// stretch of the run as the query windows, so that a slow stretch of a
  /// shared machine weighs on both alike.
  PhaseSamples RunWithSetups(double seconds, int slices, int between,
                             const std::function<void()>& set_up);

  /// The traced run: untraced, traced and single-outstanding phases, the
  /// engine-regret probe and the ledger replays.
  void Trace(const RunConfig& config, LayerReadings* readings,
             Ledger* ledger);

 private:
  void RegretProbe(Ledger* ledger);

  const blas::BlasSystem* system_;
  blas::QueryService* service_;
  Report* report_;
  std::vector<blas::QueryRequest> stream_;
  CheckFn check_;
  std::vector<blas::QueryRequest> distinct_;
  std::vector<std::vector<uint32_t>> distinct_expected_;
  bool traced_ = false;
  ClosedLoop<Future> loop_;
};

}  // namespace blasbench

#endif  // BLASBENCH_SINGLE_DOC_H_
