#ifndef BLAS_SERVICE_QUERY_SERVICE_H_
#define BLAS_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "blas/blas.h"
#include "blas/collection.h"
#include "ingest/ingest_queue.h"
#include "ingest/live_collection.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "service/plan_cache.h"
#include "service/thread_pool.h"

namespace blas {

/// Construction options for QueryService.
struct ServiceOptions {
  /// Worker threads executing queries. 0 means hardware concurrency.
  size_t worker_threads = 4;
  /// Bounded submission queue; Submit blocks (backpressure) when full.
  size_t queue_capacity = 1024;
  /// LRU entries of the plan cache. 0 disables caching entirely.
  size_t plan_cache_capacity = 256;
  /// Trace every Nth completed query in addition to explicit
  /// QueryOptions::trace requests (1 = every query, 0 = explicit only).
  /// Finished traces land in recent_traces().
  size_t trace_sample_every = 0;
  /// Finished traces kept for recent_traces() (oldest evicted first).
  size_t trace_ring_capacity = 32;
  /// Completed queries slower than this (wall milliseconds) land in the
  /// slow-query log with their per-stage breakdown; <= 0 disables it.
  double slow_query_millis = 0.0;
  /// Most recent slow-query entries kept.
  size_t slow_query_log_capacity = 64;
};

/// One client request: an XPath query plus the unified per-query knobs
/// (translator, engine, exec, limit/offset, projection).
struct QueryRequest {
  std::string xpath;
  QueryOptions options;
  /// Skip the plan cache for this request (both lookup and insert).
  bool bypass_plan_cache = false;
};

/// Final measurements of a streamed (callback) query.
struct StreamSummary {
  ExecStats stats;
  ExecPlan::Shape shape;
  double millis = 0.0;
  /// Matches handed to the callback.
  uint64_t delivered = 0;
  /// True when the callback stopped the stream early.
  bool cancelled = false;
};

/// Service-wide counters, monotonically increasing since construction.
/// Every field is a counter in the service's metric registry, named
/// `blas_service_<field>` (`blas_service_exec_<field>` for the roll-up),
/// so Statsz(), StatszPrometheus() and SnapshotMetrics() export exactly
/// what `stats()` returns. `stats()` is a consistent-enough view of those
/// counters (each is read atomically, the set is not fenced).
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;  // queries run to completion by the service
  uint64_t failed = 0;     // parse/translate/execute errors
  uint64_t rejected = 0;   // submissions refused after Shutdown
  /// Cursors handed out via SubmitCursor/SubmitCollectionCursor. Counted
  /// separately from `completed`: an escaped cursor executes on the
  /// client's thread, so its ExecStats never enter the `exec` roll-up
  /// below and must not dilute per-completed-query averages.
  uint64_t cursors_opened = 0;
  /// Streaming submissions whose callback cancelled mid-stream. Counted
  /// separately from `completed` for the same reason: their truncated
  /// ExecStats stay out of the exec roll-up.
  uint64_t cancelled = 0;
  // Plan-cache accounting, read through from the two plan caches (only
  // the one matching the service's constructor sees traffic).
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t plan_cache_evictions = 0;
  /// Per-document plan reuse inside cached collection entries: a hot
  /// collection query pays one parse plus one translation per document
  /// (doc_plan_misses), then only doc_plan_hits. An epoch-mismatched
  /// lookup (the document was replaced since the plan was translated)
  /// counts as a miss — stale plans are structurally unservable.
  uint64_t doc_plan_hits = 0;
  uint64_t doc_plan_misses = 0;
  // Churn counters, read through from the live collection
  // (live-collection services; all 0 otherwise).
  /// Documents published by SubmitAdd/ReplaceDocument — or by anything
  /// else driving the same LiveCollection.
  uint64_t docs_ingested = 0;
  uint64_t docs_removed = 0;
  /// Epoch publishes on the fronted live collection since it opened.
  uint64_t epochs_published = 0;
  /// Current durable manifest size in bytes.
  uint64_t manifest_bytes = 0;
  /// Completed collection queries that overlapped at least one publish:
  /// the epoch they pinned was superseded by the time they drained. The
  /// headline number of the live-ingestion design — readers kept
  /// streaming while the data changed under them.
  uint64_t queries_served_during_churn = 0;
  /// Scatter-side collection accounting, summed over completed collection
  /// queries (see CollectionCursor::ScatterStats): documents whose
  /// per-document cursor actually ran, and documents cancelled while
  /// still queued because the limit budget was already spent.
  uint64_t docs_executed = 0;
  uint64_t docs_cancelled = 0;
  // Roll-up of every completed query's ExecStats.
  struct ExecRollup {
    uint64_t elements = 0;
    uint64_t page_fetches = 0;
    uint64_t page_misses = 0;
    /// Real disk reads (demand-paged documents; 0 for in-memory).
    uint64_t io_reads = 0;
    uint64_t d_joins = 0;
    uint64_t intermediate_rows = 0;
    uint64_t output_rows = 0;
    /// Matches consumed by `offset` before the first delivered one,
    /// summed over completed queries (single-document and collection).
    uint64_t offset_skipped = 0;
  };
  ExecRollup exec;
};

/// \brief Concurrent query front door over one indexed document or a
/// whole document collection.
///
/// Owns (or borrows) a BlasSystem — or borrows a BlasCollection or a
/// LiveCollection — and serves XPath queries from many clients at once:
/// requests enter a bounded queue, a fixed pool of workers translates and
/// executes them against the shared read path (safe for concurrent
/// readers), and results come back through futures. Repeat queries hit an
/// LRU plan cache keyed by normalized query text and skip the whole
/// parse/decompose/translate/optimize pipeline; collection entries cache
/// the parsed query once plus one translated plan per document.
///
/// Both kinds of source run the same front half: one plan build (Plan ->
/// OptimizeJoinOrder -> ChooseEngine -> AnalyzeStreamability), one plan
/// open (engine resolution, OpenPlan) and one completion hook that does
/// every completed query's accounting. A collection query runs the plan
/// build and open once per document on the scatter workers.
///
/// Collection submissions scatter per-document cursors across the same
/// worker pool and gather them through a merge cursor (see
/// BlasCollection::OpenCursor), so one collection query can occupy
/// several workers while bounded queues cap its memory.
///
/// \code
///   QueryService service(&sys, {.worker_threads = 4});
///   auto f1 = service.Submit({.xpath = "/site/regions//item"});
///   auto f2 = service.Submit({.xpath = "//person[name]"});
///   Result<QueryResult> r1 = f1.get();
/// \endcode
class QueryService {
 public:
  /// Serves queries against a system owned by the caller, which must
  /// outlive the service.
  explicit QueryService(const BlasSystem* system,
                        const ServiceOptions& options = {});
  /// Shares ownership of the system.
  explicit QueryService(std::shared_ptr<const BlasSystem> system,
                        const ServiceOptions& options = {});
  /// Serves collection queries against a collection owned by the caller,
  /// which must outlive the service and stay unmodified while served.
  explicit QueryService(const BlasCollection* collection,
                        const ServiceOptions& options = {});
  /// Serves collection queries against a live (continuously-ingesting)
  /// collection owned by the caller, which must outlive the service.
  /// Every query pins the epoch current at its open and drains it to the
  /// end regardless of concurrent publishes; the admin Submit*Document
  /// methods below feed the same worker pool. The service installs
  /// itself as the collection's change listener (per-document plan
  /// invalidation) — don't overwrite it while the service is alive.
  explicit QueryService(LiveCollection* live,
                        const ServiceOptions& options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Per-match delivery callback of the streaming Submit overload. Return
  /// false to cancel the stream. For bounded requests (limit > 0) the
  /// incremental producer then abandons its remaining scans; an unbounded
  /// request has already materialized the full result by the time the
  /// first match is delivered, so cancelling only stops delivery.
  using MatchCallback = std::function<bool(const Match&)>;
  /// Collection flavor: the match plus its owning document's name.
  /// Cancelling additionally cancels still-queued documents.
  using CollectionMatchCallback = std::function<bool(const CollectionMatch&)>;

  /// Enqueues one query; blocks only when the submission queue is full.
  /// After Shutdown the returned future holds a kUnsupported error.
  std::future<Result<QueryResult>> Submit(QueryRequest request);

  /// Streaming overload: a worker opens a cursor and pushes each match
  /// into `on_match` as it is produced (bounded requests terminate their
  /// scans early); the future completes with the final measurements. The
  /// callback runs on the worker thread and must be thread-compatible
  /// with the caller.
  std::future<Result<StreamSummary>> Submit(QueryRequest request,
                                            MatchCallback on_match);

  /// Cursor overload: the worker runs the setup phase (parse / plan cache
  /// / translate / streaming prefix) and hands the cursor back through the
  /// future; the caller then pulls matches on its own thread. The cursor
  /// borrows the service's system and must not outlive it.
  std::future<Result<ResultCursor>> SubmitCursor(QueryRequest request);

  /// Enqueues a batch; futures are in request order.
  std::vector<std::future<Result<QueryResult>>> SubmitBatch(
      std::vector<QueryRequest> requests);

  /// Runs one query on the calling thread (same plan cache and stats).
  Result<QueryResult> Execute(const QueryRequest& request);

  // ------------------------------------------ collection front door ---
  // These require the collection constructor; on a single-document
  // service they fail with InvalidArgument (and vice versa for the
  // single-document methods on a collection service).

  /// Enqueues one collection-wide query: a worker runs the merge while
  /// per-document producers scatter across the same pool.
  std::future<Result<BlasCollection::CollectionResult>> SubmitCollection(
      QueryRequest request);

  /// Streaming overload: matches arrive in (document name, doc order)
  /// through `on_match` on a worker thread.
  std::future<Result<StreamSummary>> SubmitCollection(
      QueryRequest request, CollectionMatchCallback on_match);

  /// Cursor overload: the worker opens the scatter-gather cursor (plan
  /// cache, producer fan-out) and hands it back; the caller pulls the
  /// merged stream on its own thread. The cursor borrows the service's
  /// collection and pool and must not outlive the service.
  std::future<Result<CollectionCursor>> SubmitCollectionCursor(
      QueryRequest request);

  /// Runs one collection query on the calling thread (the merge runs
  /// here; producers still scatter onto the worker pool).
  Result<BlasCollection::CollectionResult> ExecuteCollection(
      const QueryRequest& request);

  // --------------------------------------------------- admin (live) ---
  // Document mutations on a live-collection service. Each runs the full
  // ingestion pipeline (parse -> label -> paged snapshot -> durable
  // publish) on a worker thread and settles the future with the publish
  // outcome. On a non-live service the future holds InvalidArgument.

  std::future<Status> SubmitAddDocument(std::string name, std::string xml);
  std::future<Status> SubmitReplaceDocument(std::string name,
                                            std::string xml);
  std::future<Status> SubmitRemoveDocument(std::string name);
  /// Publishes the whole batch as one epoch (one manifest record).
  std::future<Status> SubmitIngestBatch(std::vector<IngestQueue::DocOp> ops);
  /// Blocks until every admin submission so far has published or failed.
  void DrainIngest();

  /// Stops accepting work, drains queued queries, joins the workers.
  void Shutdown();

  ServiceStats stats() const;

  // ---------------------------------------------------- observability ---

  /// Machine-readable status page, one JSON object:
  /// {"service":<this service's registry>,"process":<process registry>}.
  /// The service registry holds every ServiceStats counter
  /// (`blas_service_*`) and the query/stage latency histograms with
  /// percentiles; the process registry holds storage and ingest metrics.
  std::string Statsz() const;

  /// Prometheus text exposition (format 0.0.4) of the same two registries.
  std::string StatszPrometheus() const;

  /// Cumulative snapshot of the same two registries, merged, for the
  /// windowed layer (obs/snapshot.h). This is the capture callback a
  /// MetricsSnapshotter should ring — two of these subtract into an exact
  /// per-window view.
  obs::MetricsSnapshot SnapshotMetrics() const;

  /// This service's metric registry (ServiceStats counters, query and
  /// per-stage latency, plan-cache gauge). Stable pointers; safe to read
  /// concurrently.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Recently finished traces, oldest first (sampled via
  /// ServiceOptions::trace_sample_every or requested via
  /// QueryOptions::trace).
  std::vector<std::shared_ptr<const obs::Trace>> recent_traces() const {
    return trace_ring_.Recent();
  }
  const obs::TraceRing& trace_ring() const { return trace_ring_; }
  const obs::SlowQueryLog& slow_query_log() const { return slow_query_log_; }

  const PlanCache& plan_cache() const { return plan_cache_; }
  size_t worker_threads() const { return pool_.thread_count(); }

 private:
  /// One query from its start to its accounting (query_service.cc).
  struct Flight;

  /// The constructor the public ones delegate to: exactly one of
  /// `system`, `collection` and `live` is non-null.
  QueryService(std::shared_ptr<const BlasSystem> owned_system,
               const BlasSystem* system, const BlasCollection* collection,
               LiveCollection* live, const ServiceOptions& options);

  /// Parse stage (span "parse", blas_stage_parse_ns).
  Result<Query> Parse(std::string_view xpath, obs::TraceContext* trace);
  /// The plan build every source runs: Plan -> OptimizeJoinOrder ->
  /// ChooseEngine -> AnalyzeStreamability, recording the translate and
  /// optimize stages. `cached` means the plan will serve later requests,
  /// so both plan verdicts are computed even when this one needs neither.
  Result<std::shared_ptr<const CachedPlan>> BuildPlan(
      const BlasSystem& sys, const Query& query, const QueryOptions& options,
      bool cached, obs::TraceContext* trace);
  /// The plan open every source runs: resolves Engine::kAuto, opens the
  /// cursor over an alias of the cached plan and records the execute
  /// stage.
  Result<ResultCursor> OpenCachedPlan(const BlasSystem& sys,
                                      std::shared_ptr<const CachedPlan> plan,
                                      const QueryOptions& options,
                                      obs::TraceContext* trace);
  /// Opens a ResultCursor (single document) or a CollectionCursor: plan
  /// cache, parse, then the plan build and open above — once for a single
  /// document, once per document on the scatter workers for a collection.
  /// A live service opens over the pinned current snapshot and reports
  /// its epoch through `epoch_at_open` (optional). With a non-null
  /// `trace` each stage records a span; a collection's per-document work
  /// records one "open_doc" span per document instead.
  template <typename Cursor>
  Result<Cursor> Open(const QueryRequest& request,
                      const std::shared_ptr<obs::TraceContext>& trace,
                      uint64_t* epoch_at_open);

  Result<QueryResult> Run(const QueryRequest& request);
  Result<BlasCollection::CollectionResult> RunCollection(
      const QueryRequest& request);
  /// The stream loop of both streaming Submit flavors.
  template <typename Cursor, typename Callback>
  Result<StreamSummary> Stream(const QueryRequest& request,
                               const Callback& on_match);
  /// Opens a cursor for the client to pull on its own thread.
  template <typename Cursor>
  Result<Cursor> HandOut(const QueryRequest& request);

  /// Completion hook of every query that ran to its end: counts a
  /// cancelled stream as `cancelled`; otherwise counts it `completed`,
  /// rolls its ExecStats (and a collection's scatter and churn
  /// accounting) up, records its latency, seals and rings its trace and
  /// feeds the slow-query log. Returns the sealed trace (null when
  /// untraced or cancelled).
  template <typename Cursor>
  std::shared_ptr<const obs::Trace> Complete(const Flight& flight,
                                             const Cursor& cursor,
                                             const ExecStats& stats,
                                             uint64_t output_rows,
                                             bool cancelled = false);
  /// Counts a failed query and passes its status on.
  Status Failed(Status status);

  /// A new trace context when this query is traced (explicit
  /// QueryOptions::trace or every-Nth sampling); null otherwise.
  std::shared_ptr<obs::TraceContext> MaybeStartTrace(
      const QueryRequest& request);

  /// Plan-cache totals over both caches.
  PlanCache::Stats PlanCacheTotals() const;
  /// The live collection's counters (zero without one).
  LiveCollection::Stats LiveStats() const;

  template <typename T>
  std::future<Result<T>> SubmitTask(
      std::function<Result<T>()> work);

  std::shared_ptr<const BlasSystem> owned_system_;
  const BlasSystem* system_ = nullptr;
  const BlasCollection* collection_ = nullptr;
  LiveCollection* live_ = nullptr;
  PlanCache plan_cache_;
  CollectionPlanCache collection_plan_cache_;
  /// Declared before pool_: the pool's shutdown (which runs queued
  /// ingest tasks) must happen while the queue still exists.
  std::unique_ptr<IngestQueue> ingest_;
  ThreadPool pool_;

  // Observability state. The registry member keeps metric pointers stable
  // for the service's lifetime; the constructor caches the hot ones below.
  obs::MetricsRegistry metrics_;
  obs::TraceRing trace_ring_;
  obs::SlowQueryLog slow_query_log_;
  const size_t trace_sample_every_;
  std::atomic<uint64_t> trace_ticker_{0};
  obs::Histogram* query_latency_ns_ = nullptr;
  obs::Histogram* collection_latency_ns_ = nullptr;
  obs::Histogram* stage_parse_ns_ = nullptr;
  obs::Histogram* stage_translate_ns_ = nullptr;
  obs::Histogram* stage_optimize_ns_ = nullptr;
  obs::Histogram* stage_execute_ns_ = nullptr;

  // The ServiceStats counters the service keeps itself, registered as
  // blas_service_<field>.
  obs::Counter* submitted_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* failed_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* cursors_opened_ = nullptr;
  obs::Counter* cancelled_ = nullptr;
  obs::Counter* doc_plan_hits_ = nullptr;
  obs::Counter* doc_plan_misses_ = nullptr;
  obs::Counter* churn_queries_ = nullptr;
  obs::Counter* docs_executed_ = nullptr;
  obs::Counter* docs_cancelled_ = nullptr;
  obs::Counter* elements_ = nullptr;
  obs::Counter* page_fetches_ = nullptr;
  obs::Counter* page_misses_ = nullptr;
  obs::Counter* io_reads_ = nullptr;
  obs::Counter* d_joins_ = nullptr;
  obs::Counter* intermediate_rows_ = nullptr;
  obs::Counter* output_rows_ = nullptr;
  obs::Counter* offset_skipped_ = nullptr;
};

}  // namespace blas

#endif  // BLAS_SERVICE_QUERY_SERVICE_H_
