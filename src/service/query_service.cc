#include "service/query_service.h"

#include <type_traits>
#include <utility>

#include "common/stopwatch.h"
#include "exec/optimizer.h"
#include "obs/snapshot.h"
#include "service/normalize.h"
#include "xpath/parser.h"

namespace blas {

namespace {

Status WrongBackend(const char* wanted) {
  return Status::InvalidArgument(
      std::string("service does not front a ") + wanted +
      "; use the matching constructor");
}

/// Attributes the counters `now` gained over `base` to a trace span.
void SetSpanCounters(obs::SpanTimer* span, const ExecStats& now,
                     const ExecStats& base = {}) {
  span->set_counters(now.elements - base.elements,
                     now.page_fetches - base.page_fetches,
                     now.page_misses - base.page_misses,
                     now.io_reads - base.io_reads);
}

/// Plan-cache lookup shared by both caches (span "plan_cache", noted hit
/// or miss). Sets `key` only when the request may use the cache: it is
/// the key a freshly built entry is put under.
template <typename V>
std::shared_ptr<const V> LookUp(internal::LruCache<V>& cache,
                                const QueryRequest& request,
                                obs::TraceContext* trace, std::string* key) {
  if (request.bypass_plan_cache || cache.capacity() == 0) return nullptr;
  *key = PlanCacheKey(request.xpath, request.options.translator,
                      request.options.exec.optimize_join_order);
  obs::SpanTimer span(trace, "plan_cache");
  std::shared_ptr<const V> hit = cache.Get(*key);
  if (trace != nullptr) span.set_note(hit != nullptr ? "hit" : "miss");
  return hit;
}

}  // namespace

/// One query from its start to its accounting in Complete(): the request,
/// its wall clock, and its trace (installed on this thread for the
/// flight's lifetime).
struct QueryService::Flight {
  Flight(QueryService* service, const QueryRequest& request)
      : request(request),
        trace(service->MaybeStartTrace(request)),
        scope(trace.get()) {}

  const QueryRequest& request;
  Stopwatch watch;
  std::shared_ptr<obs::TraceContext> trace;
  obs::TraceContext::Scope scope;
  /// Live collections: the epoch the cursor pinned at open.
  uint64_t epoch_at_open = 0;
};

QueryService::QueryService(const BlasSystem* system,
                           const ServiceOptions& options)
    : QueryService(nullptr, system, nullptr, nullptr, options) {}

QueryService::QueryService(std::shared_ptr<const BlasSystem> system,
                           const ServiceOptions& options)
    : QueryService(system, system.get(), nullptr, nullptr, options) {}

QueryService::QueryService(const BlasCollection* collection,
                           const ServiceOptions& options)
    : QueryService(nullptr, nullptr, collection, nullptr, options) {}

QueryService::QueryService(LiveCollection* live, const ServiceOptions& options)
    : QueryService(nullptr, nullptr, nullptr, live, options) {}

QueryService::QueryService(std::shared_ptr<const BlasSystem> owned_system,
                           const BlasSystem* system,
                           const BlasCollection* collection,
                           LiveCollection* live, const ServiceOptions& options)
    : owned_system_(std::move(owned_system)),
      system_(system),
      collection_(collection),
      live_(live),
      plan_cache_(options.plan_cache_capacity),
      collection_plan_cache_(options.plan_cache_capacity),
      pool_(options.worker_threads, options.queue_capacity),
      trace_ring_(options.trace_ring_capacity),
      slow_query_log_(options.slow_query_millis,
                      options.slow_query_log_capacity),
      trace_sample_every_(options.trace_sample_every) {
  query_latency_ns_ = metrics_.GetHistogram(
      "blas_query_latency_ns",
      "Wall time of completed single-document queries");
  collection_latency_ns_ = metrics_.GetHistogram(
      "blas_collection_query_latency_ns",
      "Wall time of completed collection queries (scatter + merge)");
  stage_parse_ns_ =
      metrics_.GetHistogram("blas_stage_parse_ns", "XPath parse stage");
  stage_translate_ns_ = metrics_.GetHistogram(
      "blas_stage_translate_ns", "Query-to-plan translation stage");
  stage_optimize_ns_ = metrics_.GetHistogram(
      "blas_stage_optimize_ns",
      "Join-order optimization, engine choice and streamability analysis");
  stage_execute_ns_ = metrics_.GetHistogram(
      "blas_stage_execute_ns",
      "Cursor open (engine execution / streaming prefix)");
  metrics_.RegisterCallbackGauge(
      "blas_plan_cache_hit_percent",
      "Plan-cache hit ratio over the service's lifetime, in percent",
      [this] {
        PlanCache::Stats cache = PlanCacheTotals();
        uint64_t total = cache.hits + cache.misses;
        return total == 0 ? int64_t{0}
                          : static_cast<int64_t>(cache.hits * 100 / total);
      });

  // Every ServiceStats field is a registry counter: the ones the service
  // keeps itself, then the ones read through from their owners.
  auto counter = [this](const char* field, const char* help) {
    return metrics_.GetCounter(std::string("blas_service_") + field, help);
  };
  submitted_ = counter("submitted", "Queries submitted");
  completed_ = counter("completed", "Queries run to completion");
  failed_ = counter("failed", "Queries failed in parse, translate or execute");
  rejected_ = counter("rejected", "Submissions refused after Shutdown");
  cursors_opened_ = counter("cursors_opened", "Cursors handed to clients");
  cancelled_ = counter("cancelled", "Streams cancelled by their callback");
  doc_plan_hits_ = counter("doc_plan_hits", "Per-document plan-cache hits");
  doc_plan_misses_ =
      counter("doc_plan_misses", "Per-document plan-cache misses");
  churn_queries_ = counter("queries_served_during_churn",
                           "Collection queries that overlapped a publish");
  docs_executed_ =
      counter("docs_executed", "Documents run by collection queries");
  docs_cancelled_ = counter("docs_cancelled",
                            "Documents cancelled while queued (limit spent)");
  elements_ = counter("exec_elements", "Elements read by completed queries");
  page_fetches_ = counter("exec_page_fetches", "Page fetches");
  page_misses_ = counter("exec_page_misses", "Page-cache misses");
  io_reads_ = counter("exec_io_reads", "Disk reads");
  d_joins_ = counter("exec_d_joins", "D-joins executed");
  intermediate_rows_ =
      counter("exec_intermediate_rows", "Intermediate rows produced");
  output_rows_ = counter("exec_output_rows", "Output rows produced");
  offset_skipped_ =
      counter("exec_offset_skipped", "Matches consumed by offset");
  auto read_through = [this](const char* field, const char* help,
                             std::function<uint64_t()> fn) {
    metrics_.RegisterCallbackCounter(std::string("blas_service_") + field,
                                     help, std::move(fn));
  };
  read_through("plan_cache_hits", "Plan-cache hits",
               [this] { return PlanCacheTotals().hits; });
  read_through("plan_cache_misses", "Plan-cache misses",
               [this] { return PlanCacheTotals().misses; });
  read_through("plan_cache_evictions", "Plan-cache evictions",
               [this] { return PlanCacheTotals().evictions; });
  read_through("docs_ingested", "Documents published by the live collection",
               [this] { return LiveStats().docs_ingested; });
  read_through("docs_removed", "Documents removed from the live collection",
               [this] { return LiveStats().docs_removed; });
  read_through("epochs_published", "Live-collection epoch publishes",
               [this] { return LiveStats().epochs_published; });
  read_through("manifest_bytes", "Durable manifest size in bytes",
               [this] { return LiveStats().manifest_bytes; });

  if (live_ == nullptr) return;
  // The queue needs the pool; the pool initializes after it (see the
  // member-order note in the header), so wire it up in the body.
  ingest_ = std::make_unique<IngestQueue>(live_, &pool_);
  // Epoch tags already make stale per-document plans unservable; the
  // listener reclaims their memory eagerly and keeps the cache honest.
  live_->SetChangeListener(
      [this](const std::string& name, ManifestOp::Kind kind, uint64_t) {
        if (kind != ManifestOp::Kind::kAdd) {
          collection_plan_cache_.InvalidateDocument(name);
        }
      });
}

QueryService::~QueryService() {
  Shutdown();
  // The listener captures `this`; the collection outlives the service.
  if (live_ != nullptr) live_->SetChangeListener(nullptr);
}

void QueryService::Shutdown() { pool_.Shutdown(); }

std::shared_ptr<obs::TraceContext> QueryService::MaybeStartTrace(
    const QueryRequest& request) {
  bool traced = request.options.trace;
  if (!traced && trace_sample_every_ > 0) {
    traced = trace_ticker_.fetch_add(1, std::memory_order_relaxed) %
                 trace_sample_every_ ==
             0;
  }
  if (!traced) return nullptr;
  return std::make_shared<obs::TraceContext>(NormalizeXPath(request.xpath));
}

// ------------------------------------------------------------ front half ---

Result<Query> QueryService::Parse(std::string_view xpath,
                                  obs::TraceContext* trace) {
  obs::SpanTimer span(trace, "parse");
  Stopwatch timer;
  Result<Query> query = ParseXPath(xpath);
  stage_parse_ns_->Record(timer.ElapsedNanos());
  return query;
}

Result<std::shared_ptr<const CachedPlan>> QueryService::BuildPlan(
    const BlasSystem& sys, const Query& query, const QueryOptions& options,
    bool cached, obs::TraceContext* trace) {
  CachedPlan fresh;
  {
    obs::SpanTimer span(trace, "translate");
    if (trace != nullptr) span.set_note(TranslatorName(options.translator));
    Stopwatch timer;
    Result<ExecPlan> planned = sys.Plan(query, options.translator);
    stage_translate_ns_->Record(timer.ElapsedNanos());
    if (!planned.ok()) return std::move(planned).status();
    fresh.plan = std::move(planned).value();
  }
  obs::SpanTimer span(trace, "optimize");
  Stopwatch timer;
  CostModel model(&sys.summary(), &sys.dict());
  if (options.exec.optimize_join_order) {
    fresh.plan = OptimizeJoinOrder(fresh.plan, model);
  }
  // Both verdicts walk the path summary per part: an uncached plan skips
  // the one this request cannot use (pinned engine, unbounded request).
  if (cached || options.engine == Engine::kAuto) {
    fresh.auto_engine = ChooseEngine(fresh.plan, model);
  }
  if (cached || options.limit > 0) {
    fresh.stream_info = sys.AnalyzeStreamability(fresh.plan);
  }
  stage_optimize_ns_->Record(timer.ElapsedNanos());
  return std::make_shared<const CachedPlan>(std::move(fresh));
}

Result<ResultCursor> QueryService::OpenCachedPlan(
    const BlasSystem& sys, std::shared_ptr<const CachedPlan> plan,
    const QueryOptions& options, obs::TraceContext* trace) {
  const Engine engine =
      options.engine == Engine::kAuto ? plan->auto_engine : options.engine;
  // Alias the cached entry so the plan outlives any eviction while this
  // cursor is still streaming.
  std::shared_ptr<const ExecPlan> shared_plan(plan, &plan->plan);
  obs::SpanTimer span(trace, "execute");
  if (trace != nullptr) span.set_note(EngineName(engine));
  Stopwatch timer;
  Result<ResultCursor> cursor = sys.OpenPlan(std::move(shared_plan), engine,
                                             options, &plan->stream_info);
  stage_execute_ns_->Record(timer.ElapsedNanos());
  // Open runs the engine (or the streaming prefix); attribute the
  // counters it accumulated to this stage.
  if (cursor.ok()) SetSpanCounters(&span, cursor->stats());
  return cursor;
}

template <>
Result<ResultCursor> QueryService::Open<ResultCursor>(
    const QueryRequest& request,
    const std::shared_ptr<obs::TraceContext>& trace,
    uint64_t* /*epoch_at_open*/) {
  if (system_ == nullptr) return WrongBackend("single document");
  std::string key;
  std::shared_ptr<const CachedPlan> plan =
      LookUp(plan_cache_, request, trace.get(), &key);
  if (plan == nullptr) {
    BLAS_ASSIGN_OR_RETURN(Query query, Parse(request.xpath, trace.get()));
    BLAS_ASSIGN_OR_RETURN(plan, BuildPlan(*system_, query, request.options,
                                          !key.empty(), trace.get()));
    if (!key.empty()) plan_cache_.Put(key, plan);
  }
  return OpenCachedPlan(*system_, std::move(plan), request.options,
                        trace.get());
}

template <>
Result<CollectionCursor> QueryService::Open<CollectionCursor>(
    const QueryRequest& request,
    const std::shared_ptr<obs::TraceContext>& trace,
    uint64_t* epoch_at_open) {
  if (collection_ == nullptr && live_ == nullptr) {
    return WrongBackend("collection");
  }
  // A live service pins the epoch current right now; the cursor drains
  // exactly this generation no matter what publishes meanwhile (each
  // per-document producer holds its document via shared_ptr).
  std::shared_ptr<const CollectionState> state =
      live_ != nullptr ? live_->Snapshot() : nullptr;
  const BlasCollection* collection =
      state != nullptr ? &state->collection : collection_;
  if (epoch_at_open != nullptr) {
    *epoch_at_open = state != nullptr ? state->epoch : 0;
  }
  std::string key;
  std::shared_ptr<const CachedCollectionPlan> entry =
      LookUp(collection_plan_cache_, request, trace.get(), &key);
  if (entry == nullptr) {
    BLAS_ASSIGN_OR_RETURN(Query query, Parse(request.xpath, trace.get()));
    entry = std::make_shared<const CachedCollectionPlan>(std::move(query));
    if (!key.empty()) collection_plan_cache_.Put(key, entry);
  }

  // Per-document opener: the scatter workers consult the cached
  // per-document plans and build (then publish) one on first touch.
  // Plans are tagged with the document's last-changed epoch, so a
  // replaced document can never serve its predecessor's plan (static
  // collections tag everything 0).
  BlasCollection::DocCursorOpener opener =
      [this, entry, state, trace, cached = !key.empty()](
          const std::string& name, const BlasSystem& sys, const Query& query,
          const QueryOptions& doc_options) -> Result<ResultCursor> {
    // The opener runs on scatter workers: install the trace context so
    // this document's page reads attribute to the query, and record the
    // open (plan build + engine run) as one span named for the document;
    // its stages record their histograms but no spans of their own.
    obs::TraceContext::Scope trace_scope(trace.get());
    obs::SpanTimer span(trace.get(), "open_doc");
    if (trace != nullptr) span.set_note(name);
    uint64_t doc_epoch = 0;
    if (state != nullptr) {
      auto it = state->doc_epochs.find(name);
      if (it != state->doc_epochs.end()) doc_epoch = it->second;
    }
    std::shared_ptr<const CachedPlan> plan = entry->ForDoc(name, doc_epoch);
    if (plan != nullptr) {
      doc_plan_hits_->Increment();
    } else {
      doc_plan_misses_->Increment();
      BLAS_ASSIGN_OR_RETURN(
          plan, BuildPlan(sys, query, doc_options, cached, nullptr));
      entry->PutDoc(name, doc_epoch, plan);
    }
    Result<ResultCursor> cursor =
        OpenCachedPlan(sys, std::move(plan), doc_options, nullptr);
    if (cursor.ok()) SetSpanCounters(&span, cursor->stats());
    return cursor;
  };

  obs::SpanTimer span(trace.get(), "open_scatter");
  return collection->OpenCursor(entry->query(), request.options,
                                ScatterOptions{.pool = &pool_},
                                std::move(opener));
}

// ------------------------------------------------------------- back half ---

template <typename Cursor>
std::shared_ptr<const obs::Trace> QueryService::Complete(
    const Flight& flight, const Cursor& cursor, const ExecStats& stats,
    uint64_t output_rows, bool cancelled) {
  if (cancelled) {
    // An abandoned scan's truncated stats would skew the
    // per-completed-query roll-up.
    cancelled_->Increment();
    return nullptr;
  }
  completed_->Increment();
  elements_->Add(stats.elements);
  page_fetches_->Add(stats.page_fetches);
  page_misses_->Add(stats.page_misses);
  io_reads_->Add(stats.io_reads);
  d_joins_->Add(stats.d_joins);
  intermediate_rows_->Add(stats.intermediate_rows);
  output_rows_->Add(stats.output_rows);
  offset_skipped_->Add(cursor.offset_skipped());
  const QueryRequest& request = flight.request;
  const char* engine;
  obs::Histogram* latency;
  if constexpr (std::is_same_v<Cursor, CollectionCursor>) {
    const CollectionCursor::ScatterStats scatter = cursor.scatter_stats();
    docs_executed_->Add(scatter.docs_executed);
    docs_cancelled_->Add(scatter.docs_cancelled);
    // The epoch it pinned was superseded by the time it drained.
    if (live_ != nullptr && live_->epoch() != flight.epoch_at_open) {
      churn_queries_->Increment();
    }
    engine = EngineName(request.options.engine);
    latency = collection_latency_ns_;
  } else {
    engine = EngineName(cursor.engine());
    latency = query_latency_ns_;
  }

  const double millis = flight.watch.ElapsedMillis();
  latency->Record(static_cast<uint64_t>(millis * 1e6));
  std::shared_ptr<const obs::Trace> sealed;
  if (flight.trace != nullptr) {
    sealed = flight.trace->Finish();
    trace_ring_.Push(sealed);
  }
  if (slow_query_log_.enabled() &&
      millis >= slow_query_log_.threshold_millis()) {
    obs::SlowQueryEntry entry;
    entry.query = NormalizeXPath(request.xpath);
    entry.translator = TranslatorName(request.options.translator);
    entry.engine = engine;
    entry.millis = millis;
    entry.elements = stats.elements;
    entry.page_fetches = stats.page_fetches;
    entry.page_misses = stats.page_misses;
    entry.io_reads = stats.io_reads;
    entry.output_rows = output_rows;
    entry.trace = sealed;
    slow_query_log_.MaybeRecord(std::move(entry));
  }
  return sealed;
}

Status QueryService::Failed(Status status) {
  failed_->Increment();
  return status;
}

Result<QueryResult> QueryService::Run(const QueryRequest& request) {
  Flight flight(this, request);
  Result<ResultCursor> cursor =
      Open<ResultCursor>(request, flight.trace, nullptr);
  if (!cursor.ok()) return Failed(std::move(cursor).status());
  const ExecStats open_stats = cursor->stats();
  QueryResult result;
  {
    obs::SpanTimer span(flight.trace.get(), "drain");
    result = cursor->Drain();
    SetSpanCounters(&span, result.stats, open_stats);
  }
  result.trace =
      Complete(flight, *cursor, result.stats, result.stats.output_rows);
  return result;
}

Result<BlasCollection::CollectionResult> QueryService::RunCollection(
    const QueryRequest& request) {
  Flight flight(this, request);
  Result<CollectionCursor> cursor =
      Open<CollectionCursor>(request, flight.trace, &flight.epoch_at_open);
  if (!cursor.ok()) return Failed(std::move(cursor).status());
  Result<BlasCollection::CollectionResult> result = [&] {
    obs::SpanTimer span(flight.trace.get(), "merge");
    Result<BlasCollection::CollectionResult> drained = cursor->Drain();
    if (drained.ok()) SetSpanCounters(&span, drained->stats);
    return drained;
  }();
  if (!result.ok()) return Failed(std::move(result).status());
  Complete(flight, *cursor, result->stats, result->total_matches);
  return result;
}

template <typename Cursor, typename Callback>
Result<StreamSummary> QueryService::Stream(const QueryRequest& request,
                                           const Callback& on_match) {
  constexpr bool kCollection = std::is_same_v<Cursor, CollectionCursor>;
  Flight flight(this, request);
  Result<Cursor> cursor =
      Open<Cursor>(request, flight.trace, &flight.epoch_at_open);
  if (!cursor.ok()) return Failed(std::move(cursor).status());
  StreamSummary summary;
  {
    // A single document's counters so far belong to the execute span; a
    // collection's merge span carries everything its documents read.
    ExecStats base;
    if constexpr (!kCollection) base = cursor->stats();
    obs::SpanTimer span(flight.trace.get(), kCollection ? "merge" : "stream");
    while (auto match = cursor->Next()) {
      ++summary.delivered;
      if (!on_match(*match)) {
        summary.cancelled = true;
        break;
      }
    }
    if constexpr (kCollection) {
      if (!cursor->status().ok()) return Failed(cursor->status());
      summary.stats = cursor->SettledStats();
      summary.millis = flight.watch.ElapsedMillis();
    } else {
      summary.stats = cursor->stats();
      summary.shape = cursor->shape();
      summary.millis = cursor->millis();
    }
    SetSpanCounters(&span, summary.stats, base);
  }
  Complete(flight, *cursor, summary.stats, summary.delivered,
           summary.cancelled);
  return summary;
}

template <typename Cursor>
Result<Cursor> QueryService::HandOut(const QueryRequest& request) {
  // The cursor escapes the service and executes on the client's thread,
  // so it is tallied as an opened cursor, not a completed query, and its
  // ExecStats stay out of the exec roll-up.
  Result<Cursor> cursor = Open<Cursor>(request, nullptr, nullptr);
  if (!cursor.ok()) return Failed(std::move(cursor).status());
  cursors_opened_->Increment();
  return cursor;
}

// ----------------------------------------------------------- front door ---

template <typename T>
std::future<Result<T>> QueryService::SubmitTask(
    std::function<Result<T>()> work) {
  submitted_->Increment();
  auto task = std::make_shared<std::packaged_task<Result<T>()>>(
      std::move(work));
  std::future<Result<T>> future = task->get_future();
  if (!pool_.Submit([task] { (*task)(); })) {
    rejected_->Increment();
    std::promise<Result<T>> refused;
    refused.set_value(Status::Unsupported("service is shut down"));
    return refused.get_future();
  }
  return future;
}

std::future<Result<QueryResult>> QueryService::Submit(QueryRequest request) {
  return SubmitTask<QueryResult>(
      [this, request = std::move(request)]() { return Run(request); });
}

std::future<Result<StreamSummary>> QueryService::Submit(
    QueryRequest request, MatchCallback on_match) {
  return SubmitTask<StreamSummary>(
      [this, request = std::move(request), on_match = std::move(on_match)]() {
        return Stream<ResultCursor>(request, on_match);
      });
}

std::future<Result<ResultCursor>> QueryService::SubmitCursor(
    QueryRequest request) {
  return SubmitTask<ResultCursor>([this, request = std::move(request)]() {
    return HandOut<ResultCursor>(request);
  });
}

std::vector<std::future<Result<QueryResult>>> QueryService::SubmitBatch(
    std::vector<QueryRequest> requests) {
  std::vector<std::future<Result<QueryResult>>> futures;
  futures.reserve(requests.size());
  for (QueryRequest& request : requests) {
    futures.push_back(Submit(std::move(request)));
  }
  return futures;
}

Result<QueryResult> QueryService::Execute(const QueryRequest& request) {
  submitted_->Increment();
  return Run(request);
}

std::future<Result<BlasCollection::CollectionResult>>
QueryService::SubmitCollection(QueryRequest request) {
  return SubmitTask<BlasCollection::CollectionResult>(
      [this, request = std::move(request)]() { return RunCollection(request); });
}

std::future<Result<StreamSummary>> QueryService::SubmitCollection(
    QueryRequest request, CollectionMatchCallback on_match) {
  return SubmitTask<StreamSummary>(
      [this, request = std::move(request), on_match = std::move(on_match)]() {
        return Stream<CollectionCursor>(request, on_match);
      });
}

std::future<Result<CollectionCursor>> QueryService::SubmitCollectionCursor(
    QueryRequest request) {
  return SubmitTask<CollectionCursor>([this, request = std::move(request)]() {
    return HandOut<CollectionCursor>(request);
  });
}

Result<BlasCollection::CollectionResult> QueryService::ExecuteCollection(
    const QueryRequest& request) {
  submitted_->Increment();
  return RunCollection(request);
}

// ------------------------------------------------------- admin (live) ---

namespace {

std::future<Status> NotLive() {
  std::promise<Status> refused;
  refused.set_value(Status::InvalidArgument(
      "service does not front a live collection; use the LiveCollection "
      "constructor"));
  return refused.get_future();
}

}  // namespace

std::future<Status> QueryService::SubmitAddDocument(std::string name,
                                                    std::string xml) {
  if (ingest_ == nullptr) return NotLive();
  return ingest_->SubmitAdd(std::move(name), std::move(xml));
}

std::future<Status> QueryService::SubmitReplaceDocument(std::string name,
                                                        std::string xml) {
  if (ingest_ == nullptr) return NotLive();
  return ingest_->SubmitReplace(std::move(name), std::move(xml));
}

std::future<Status> QueryService::SubmitRemoveDocument(std::string name) {
  if (ingest_ == nullptr) return NotLive();
  return ingest_->SubmitRemove(std::move(name));
}

std::future<Status> QueryService::SubmitIngestBatch(
    std::vector<IngestQueue::DocOp> ops) {
  if (ingest_ == nullptr) return NotLive();
  return ingest_->SubmitBatch(std::move(ops));
}

void QueryService::DrainIngest() {
  if (ingest_ != nullptr) ingest_->Drain();
}

// ---------------------------------------------------------------- stats ---

PlanCache::Stats QueryService::PlanCacheTotals() const {
  // Only one of the two caches sees traffic (the service fronts either a
  // system or a collection); summing keeps the report uniform.
  PlanCache::Stats cache = plan_cache_.stats();
  CollectionPlanCache::Stats coll = collection_plan_cache_.stats();
  cache.hits += coll.hits;
  cache.misses += coll.misses;
  cache.insertions += coll.insertions;
  cache.evictions += coll.evictions;
  return cache;
}

LiveCollection::Stats QueryService::LiveStats() const {
  return live_ != nullptr ? live_->stats() : LiveCollection::Stats{};
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  s.submitted = submitted_->value();
  s.completed = completed_->value();
  s.failed = failed_->value();
  s.rejected = rejected_->value();
  s.cursors_opened = cursors_opened_->value();
  s.cancelled = cancelled_->value();
  const PlanCache::Stats cache = PlanCacheTotals();
  s.plan_cache_hits = cache.hits;
  s.plan_cache_misses = cache.misses;
  s.plan_cache_evictions = cache.evictions;
  s.doc_plan_hits = doc_plan_hits_->value();
  s.doc_plan_misses = doc_plan_misses_->value();
  const LiveCollection::Stats live = LiveStats();
  s.docs_ingested = live.docs_ingested;
  s.docs_removed = live.docs_removed;
  s.epochs_published = live.epochs_published;
  s.manifest_bytes = live.manifest_bytes;
  s.queries_served_during_churn = churn_queries_->value();
  s.docs_executed = docs_executed_->value();
  s.docs_cancelled = docs_cancelled_->value();
  s.exec.elements = elements_->value();
  s.exec.page_fetches = page_fetches_->value();
  s.exec.page_misses = page_misses_->value();
  s.exec.io_reads = io_reads_->value();
  s.exec.d_joins = d_joins_->value();
  s.exec.intermediate_rows = intermediate_rows_->value();
  s.exec.output_rows = output_rows_->value();
  s.exec.offset_skipped = offset_skipped_->value();
  return s;
}

std::string QueryService::Statsz() const {
  return "{\"service\":" + metrics_.DumpJson() +
         ",\"process\":" + obs::DefaultRegistry().DumpJson() + "}";
}

std::string QueryService::StatszPrometheus() const {
  return metrics_.DumpPrometheus() + obs::DefaultRegistry().DumpPrometheus();
}

obs::MetricsSnapshot QueryService::SnapshotMetrics() const {
  obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  snapshot.Merge(obs::DefaultRegistry().Snapshot());
  return snapshot;
}

}  // namespace blas
