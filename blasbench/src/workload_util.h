// Inputs and checks shared by the workloads: seed derivation, the Auction
// corpus, the query sets, the Zipf popularity draw, answer comparison and
// the readings every workload takes from the service's counters.

#ifndef BLASBENCH_WORKLOAD_UTIL_H_
#define BLASBENCH_WORKLOAD_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "blas/blas.h"
#include "common/rng.h"
#include "harness.h"
#include "ledger.h"
#include "service/query_service.h"

namespace blasbench {

/// Independent sub-seed `stream` of the run seed: every input (corpus,
/// request stream, offsets, shard generations) draws from its own one.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// XMark-like Auction document text (figure 12's Auction corpus).
std::string AuctionXml(uint64_t gen_seed, int scale, int replicate);

/// One distinct query text and the translator it runs under.
struct QuerySpec {
  std::string xpath;
  blas::Translator translator = blas::Translator::kPushUp;
};

/// The eight fixed Auction queries: figure 10's QA1-QA3 and the XMark
/// Q1, Q2, Q4, Q5, Q6 twig analogues.
std::vector<QuerySpec> FixedQueries();

/// The xmark_hot query texts: figure 10 / XMark shapes generated over the
/// Auction schema (region paths, branch children, leaves, descendant
/// steps, value predicates) plus wildcard probes under Unfold. The list
/// is in popularity order, a fixed order independent of the run seed so
/// that runs with different seeds see the same mix.
std::vector<QuerySpec> HotQueries();

/// Wildcard probes whose '*' step sits under an element that carries
/// attributes. XPath's '*' selects element children only, and the
/// reference evaluator skips attributes, but the index answers '*'
/// through the path summary and the tag scan, which also hold the
/// attribute nodes, so both engines return those too. These texts are
/// kept out of the measured mix; xmark_hot checks them once per run and
/// reports whether the engines still disagree with the reference.
std::vector<QuerySpec> AttributeWildcardQueries();

/// Zipf(s) draw over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(blas::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// True when `got` equals want[begin, begin + count) clipped to want's end.
bool SameWindow(const std::vector<uint32_t>& got,
                const std::vector<uint32_t>& want, size_t begin,
                size_t count);

/// Applies the self-test's deliberate corruption to an expected answer:
/// every start moves off its node and the answer gains one no node has,
/// so every window of it is wrong.
void CorruptAnswer(std::vector<uint32_t>* answer);

/// Service counters over one phase.
struct ServiceDelta {
  blas::ServiceStats before, after;

  uint64_t completed() const;
  /// Fills the service-, blas- and storage-counter fields of `out` (per
  /// completed query).
  void Fill(LayerReadings* out) const;
};

/// Set-up repetitions per run: several, so that setup_s is a median.
int SetupRepetitions(const RunConfig& config, int full);

/// setup_s, the median of the quiet set-ups, plus ingest_p50_ms and
/// ingest_p90_ms over the quiet ingests (TimedSamples::Quiet).
void AddSetupAndIngest(const TimedSamples& setup_s,
                       const TimedSamples& ingest_ms, Report* report);

/// Adds the query metrics of a measured phase. The phase is cut into
/// one-second windows and each metric is the median of its per-window
/// values over the quiet windows (QuietIndexes of each window's stolen
/// share of CPU time).
void AddQueryMetrics(const PhaseSamples& phase, Report* report);

}  // namespace blasbench

#endif  // BLASBENCH_WORKLOAD_UTIL_H_
