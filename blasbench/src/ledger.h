// The traced run's per-layer ledger. The spans are the benchmark's own:
// each one wraps a call into one module's public functions (ParseXPath,
// Translate, ChooseEngine, RelationalExecutor / TwigEngine, the
// BlasSystem cursor, ContentProjector, BufferPool, SaxParser /
// TagCollector / Labeler, NodeStore, SavePagedIndex / OpenPaged,
// LiveCollection::Prepare / PublishBatch). Spans inside the program are
// out of scope: a layer whose time the public API cannot separate is
// estimated from its counters (see StorageCost) and says so.

#ifndef BLASBENCH_LEDGER_H_
#define BLASBENCH_LEDGER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "blas/blas.h"
#include "harness.h"
#include "service/query_service.h"
#include "storage/buffer_pool.h"

namespace blasbench {

/// Calibrated cost of one page fetch on one pool: a hit (resident frame)
/// and a miss (brought in from the backend). Storage self time of a
/// request is its fetch and miss counts priced at these costs, because
/// the public API cannot time page accesses inside a scan.
struct StorageCost {
  double hit_us = 0.0;
  double miss_us = 0.0;

  double Estimate(uint64_t fetches, uint64_t misses) const {
    const uint64_t hits = fetches > misses ? fetches - misses : 0;
    return static_cast<double>(hits) * hit_us +
           static_cast<double>(misses) * miss_us;
  }
};

/// Times BufferPool::Fetch on `pool`: repeated fetches of one page for the
/// hit cost, a seeded random sweep over the whole page range for the miss
/// cost (misses counted from the pool's own stats).
StorageCost CalibrateStorage(const blas::BufferPool& pool, uint64_t seed);

/// One request replayed through the layer functions on one document.
struct DocReplay {
  blas::Engine engine = blas::Engine::kRelational;
  bool bounded = false;
  double parse_us = 0, translate_us = 0, choose_us = 0, analyze_us = 0;
  double open_us = 0, drain_us = 0;
  double relational_us = 0, twig_us = 0;
  double project_us = 0;
  uint64_t projected = 0;
  /// Storage self time estimated from the pool's counters over the
  /// cursor's open + drain.
  double storage_us = 0;
  /// Storage time inside the chosen engine's direct run.
  double engine_storage_us = 0;
  blas::ExecStats relational_stats, twig_stats;
  /// Elements the request's own cursor visited, and an unbounded cursor
  /// over the same plan (bounded requests only).
  uint64_t elements_bounded = 0, elements_unbounded = 0;
};

/// Replays `request` on `sys` layer by layer. Every call is timed on its
/// own; engines are run unbounded on both sides so their costs compare.
DocReplay ReplayOnDocument(const blas::BlasSystem& sys,
                           const blas::QueryRequest& request,
                           const StorageCost& cost);

/// One unbounded query run on both engines (best of three each), with the
/// engine kAuto picks and each engine's answer.
struct EngineComparison {
  bool ok = false;
  blas::Engine chosen = blas::Engine::kRelational;
  double relational_ms = 0, twig_ms = 0;
  std::vector<uint32_t> relational_starts, twig_starts;
};

EngineComparison CompareEngines(const blas::BlasSystem& sys,
                                const std::string& xpath,
                                blas::Translator translator);

/// Counts both engines' answers as operations; a mismatch with `expected`
/// is a failure.
void CheckEngineAnswers(const EngineComparison& comparison,
                        const std::vector<uint32_t>& expected,
                        const std::string& label, Report* report);

/// Times of building one document's index, pass by pass.
struct BuildProbe {
  double bytes = 0;
  uint64_t nodes = 0;
  double parse_ms = 0;     // SaxParser into a handler that ignores events
  double collect_ms = 0;   // pass 1: TagCollector
  double label_ms = 0;     // pass 2: Labeler
  double store_ms = 0;     // NodeStore bulk load of the labeled records
};

BuildProbe ProbeBuild(std::string_view xml);

/// Per-layer readings a workload takes itself, from service, pool, budget,
/// live-collection and server counters over its measured phases. Fields
/// of layers the workload does not exercise stay 0.
struct LayerReadings {
  double plan_cache_hit_ratio = 0;
  double doc_plan_hit_ratio = 0;
  /// p50 at four outstanding minus p50 at one outstanding.
  double wait_ms = 0;
  double offset_skipped_per_query = 0;
  double docs_cancelled_ratio = 0;
  double fetches_per_query = 0;
  double misses_per_query = 0;
  double hit_ratio = 0;
  double evictions_per_query = 0;
  double io_reads_per_query = 0;
  double budget_peak_mb = 0;
  double budget_limit_mb = 0;
  double io_errors = 0;
  double late_ms = 0;
  double files_reclaimed_ratio = 0;
  double scrape_ms = 0;
  /// 1 - traced / untraced throughput at four outstanding.
  double overhead_frac = 0;
  double failed_frac = 0;
};

/// Accumulates replays and probes into the per-layer metrics.
class Ledger {
 public:
  /// One request: `e2e_us` from Submit to ready at one outstanding,
  /// `service_us` of QueryService::Execute on the now-cached plan. The
  /// miss path (parse, translate, choose, analyze) is charged only when
  /// the service missed its plan cache for this request; `doc_misses` is
  /// the number of per-document translations it did (collections).
  void AddRequest(double e2e_us, double service_us, bool plan_missed,
                  uint64_t doc_misses, const std::vector<DocReplay>& docs);

  void AddBuild(const BuildProbe& probe) { builds_.push_back(probe); }
  void AddSave(double ms) { save_ms_.push_back(ms); }
  void AddOpenPaged(double ms) { open_paged_ms_.push_back(ms); }
  /// One ingest through LiveCollection::Prepare + PublishBatch, with the
  /// build probe of the same document.
  void AddIngest(double prepare_ms, double publish_ms) {
    prepare_ms_.push_back(prepare_ms);
    publish_ms_.push_back(publish_ms);
  }
  void AddRegret(const EngineComparison& comparison,
                 const std::string& query);

  /// Emits every per-layer metric, in one fixed order: the ledger's own
  /// plus the workload's `readings`. Metrics of layers the workload never
  /// exercised read 0.
  void Emit(const LayerReadings& readings, Report* report) const;

  /// Worst engine choices (auto time / best time), for the log.
  void PrintRegretOffenders(size_t n) const;

 private:
  struct Regret {
    double auto_ms, relational_ms, twig_ms;
    std::string query;
  };

  uint64_t requests_ = 0;
  double e2e_us_ = 0, covered_us_ = 0;
  double service_self_ = 0, xpath_self_ = 0, translate_self_ = 0;
  double exec_self_ = 0, twig_self_ = 0, blas_self_ = 0, storage_self_ = 0;
  uint64_t doc_replays_ = 0;
  double parse_us_ = 0, translate_us_ = 0, choose_us_ = 0;
  double open_us_ = 0, drain_us_ = 0, relational_us_ = 0, twig_us_ = 0;
  double project_us_ = 0;
  uint64_t projected_ = 0;
  blas::ExecStats relational_stats_, twig_stats_;
  uint64_t elements_bounded_ = 0, elements_unbounded_ = 0;

  std::vector<BuildProbe> builds_;
  std::vector<double> save_ms_, open_paged_ms_, prepare_ms_, publish_ms_;
  std::vector<Regret> regrets_;
};

}  // namespace blasbench

#endif  // BLASBENCH_LEDGER_H_
