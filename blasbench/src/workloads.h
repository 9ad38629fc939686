// The three workloads. Each builds its inputs from the run seed, sets up
// the system through its public entry points, computes the expected
// answers outside the timed region, and then either measures the
// end-to-end metrics (trace off) or runs the per-layer ledger (trace on).

#ifndef BLASBENCH_WORKLOADS_H_
#define BLASBENCH_WORKLOADS_H_

#include "harness.h"

namespace blasbench {

/// In-memory Auction x4 behind a single-document QueryService; a Zipf
/// stream over a few hundred query texts (planning and engine choice).
void RunXmarkHot(const RunConfig& config, Report* report);

/// Auction x16 saved as BLASIDX2 and opened demand-paged on pread with an
/// 8 MB budget; the eight fixed queries at seeded offset windows with
/// value projection (storage and projection).
void RunPagedBrowse(const RunConfig& config, Report* report);

/// Four Auction shards in a LiveCollection with a fixed-rate replacing
/// writer, collection queries and /metrics scrapes (ingest beside reads).
void RunLiveChurn(const RunConfig& config, Report* report);

}  // namespace blasbench

#endif  // BLASBENCH_WORKLOADS_H_
