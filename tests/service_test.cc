#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "gen/queries.h"
#include "ingest/live_collection.h"
#include "obs/snapshot.h"
#include "service/normalize.h"
#include "service/plan_cache.h"
#include "service/query_service.h"
#include "service/thread_pool.h"
#include "tests/test_util.h"

namespace blas {
namespace {

// ----------------------------------------------------------- normalize ---

TEST(NormalizeTest, StripsDecorativeWhitespace) {
  EXPECT_EQ(NormalizeXPath("  / site / regions // item  "),
            "/site/regions//item");
  EXPECT_EQ(NormalizeXPath("/a/b"), NormalizeXPath("  /a  /  b\t\n"));
}

TEST(NormalizeTest, KeepsTokenSeparators) {
  // "and" between two relative paths needs its separating spaces.
  EXPECT_EQ(NormalizeXPath("//a[ b and c ]"), "//a[b and c]");
  EXPECT_EQ(NormalizeXPath("//a[b   and   c]"), "//a[b and c]");
}

TEST(NormalizeTest, PreservesQuotedLiterals) {
  EXPECT_EQ(NormalizeXPath("//a[ b = \"x  y\" ]"), "//a[b=\"x  y\"]");
  EXPECT_EQ(NormalizeXPath("//a[b='  spaced  ']"), "//a[b='  spaced  ']");
}

TEST(NormalizeTest, KeyNormalizesItsInput) {
  EXPECT_EQ(PlanCacheKey(" /a / b ", Translator::kPushUp, false),
            PlanCacheKey("/a/b", Translator::kPushUp, false));
}

TEST(NormalizeTest, KeyIncludesTranslatorAndOptimizerFlag) {
  std::string norm = NormalizeXPath("/a//b");
  EXPECT_NE(PlanCacheKey(norm, Translator::kPushUp, false),
            PlanCacheKey(norm, Translator::kSplit, false));
  EXPECT_NE(PlanCacheKey(norm, Translator::kPushUp, false),
            PlanCacheKey(norm, Translator::kPushUp, true));
}

// ---------------------------------------------------------- plan cache ---

std::shared_ptr<const CachedPlan> DummyPlan() {
  auto plan = std::make_shared<CachedPlan>();
  plan->plan.parts.emplace_back();
  return plan;
}

TEST(PlanCacheTest, HitAndMissAccounting) {
  PlanCache cache(4);
  EXPECT_EQ(cache.Get("k1"), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  auto plan = DummyPlan();
  cache.Put("k1", plan);
  EXPECT_EQ(cache.Get("k1"), plan);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(3);
  cache.Put("a", DummyPlan());
  cache.Put("b", DummyPlan());
  cache.Put("c", DummyPlan());
  // Touch "a" so "b" becomes the LRU entry.
  EXPECT_NE(cache.Get("a"), nullptr);
  cache.Put("d", DummyPlan());  // evicts "b"

  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  std::vector<std::string> keys = cache.KeysMruToLru();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "c");  // just touched
  EXPECT_EQ(keys[1], "d");
  EXPECT_EQ(keys[2], "a");
}

TEST(PlanCacheTest, ZeroCapacityDisables) {
  PlanCache cache(0);
  cache.Put("a", DummyPlan());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get("a"), nullptr);
}

TEST(PlanCacheTest, PutRefreshesExistingKey) {
  PlanCache cache(2);
  auto first = DummyPlan();
  auto second = DummyPlan();
  cache.Put("a", first);
  cache.Put("a", second);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get("a"), second);
}

// ---------------------------------------------------------- thread pool ---

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(4, 8);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(pool.Submit([&done] { ++done; }));
    }
  }  // destructor drains
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, TrySubmitRespectsQueueBound) {
  // One paused worker plus a full queue: the next TrySubmit must refuse.
  std::atomic<bool> worker_busy{false};
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ThreadPool pool(1, 2);
  ASSERT_TRUE(pool.Submit([&worker_busy, gate] {
    worker_busy = true;
    gate.wait();
  }));
  while (!worker_busy) std::this_thread::yield();
  ASSERT_TRUE(pool.TrySubmit([] {}));   // queue slot 1
  ASSERT_TRUE(pool.TrySubmit([] {}));   // queue slot 2
  EXPECT_FALSE(pool.TrySubmit([] {}));  // full
  release.set_value();
  pool.Shutdown();
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(2, 4);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
  EXPECT_FALSE(pool.TrySubmit([] {}));
}

TEST(ThreadPoolTest, WaitIdleSettlesQueuedAndRunningWork) {
  std::atomic<int> done{0};
  ThreadPool pool(3, 64);
  // Tasks that spawn follow-up tasks: WaitIdle must cover work submitted
  // by still-running work, not just the queue it first observed.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pool.Submit([&pool, &done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ASSERT_TRUE(pool.Submit([&done] { ++done; }));
      ++done;
    }));
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 40);
  EXPECT_EQ(pool.queue_size(), 0u);

  // Idempotent on an idle pool, and non-blocking after shutdown.
  pool.WaitIdle();
  pool.Shutdown();
  pool.WaitIdle();
}

// -------------------------------------------------------- query service ---

constexpr char kDoc[] =
    "<site><regions><region><item><name>lamp</name>"
    "<description>old lamp</description></item>"
    "<item><name>vase</name><description>blue vase</description></item>"
    "</region></regions>"
    "<people><person><name>alice</name></person>"
    "<person><name>bob</name></person></people></site>";

TEST(QueryServiceTest, ExecutesAndMatchesFacade) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService service(&sys, ServiceOptions{.worker_threads = 2});

  QueryRequest request;
  request.xpath = "/site/regions//item/name";
  request.options.engine = Engine::kRelational;
  Result<QueryResult> via_service = service.Submit(request).get();
  ASSERT_TRUE(via_service.ok()) << via_service.status().ToString();

  Result<QueryResult> via_facade =
      sys.Execute(request.xpath, request.options.translator, Engine::kRelational);
  ASSERT_TRUE(via_facade.ok());
  EXPECT_EQ(via_service->starts, via_facade->starts);
  EXPECT_EQ(via_service->stats.elements, via_facade->stats.elements);
}

TEST(QueryServiceTest, PlanCacheHitsOnRepeatAndNormalizedText) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService service(&sys, ServiceOptions{.worker_threads = 1});

  QueryRequest request;
  request.xpath = "/site/people/person/name";
  ASSERT_TRUE(service.Submit(request).get().ok());
  EXPECT_EQ(service.stats().plan_cache_misses, 1u);
  EXPECT_EQ(service.stats().plan_cache_hits, 0u);

  // Same text: hit. Whitespace-decorated text: also a hit.
  ASSERT_TRUE(service.Submit(request).get().ok());
  QueryRequest spaced = request;
  spaced.xpath = "  /site / people/  person /name ";
  ASSERT_TRUE(service.Submit(spaced).get().ok());
  EXPECT_EQ(service.stats().plan_cache_hits, 2u);
  EXPECT_EQ(service.stats().plan_cache_misses, 1u);
  EXPECT_EQ(service.plan_cache().size(), 1u);
}

TEST(QueryServiceTest, BypassFlagSkipsCache) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService service(&sys, ServiceOptions{.worker_threads = 1});

  QueryRequest request;
  request.xpath = "//person/name";
  request.bypass_plan_cache = true;
  ASSERT_TRUE(service.Submit(request).get().ok());
  ASSERT_TRUE(service.Submit(request).get().ok());
  EXPECT_EQ(service.stats().plan_cache_hits, 0u);
  EXPECT_EQ(service.stats().plan_cache_misses, 0u);
  EXPECT_EQ(service.plan_cache().size(), 0u);

  // Non-bypassed requests still populate it.
  request.bypass_plan_cache = false;
  ASSERT_TRUE(service.Submit(request).get().ok());
  EXPECT_EQ(service.plan_cache().size(), 1u);
}

TEST(QueryServiceTest, ParseErrorsCountAsFailed) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService service(&sys, ServiceOptions{.worker_threads = 1});
  Result<QueryResult> bad = service.Submit({.xpath = "not an xpath"}).get();
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(service.stats().failed, 1u);
  EXPECT_EQ(service.stats().completed, 0u);
}

TEST(QueryServiceTest, SubmitAfterShutdownReturnsError) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService service(&sys, ServiceOptions{.worker_threads = 1});
  service.Shutdown();
  Result<QueryResult> refused =
      service.Submit({.xpath = "//person/name"}).get();
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(service.stats().rejected, 1u);
}

TEST(QueryServiceTest, OwnsSharedSystem) {
  Result<BlasSystem> sys = BlasSystem::FromXml(kDoc);
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  auto service = std::make_unique<QueryService>(
      std::make_shared<const BlasSystem>(std::move(sys).value()));
  Result<QueryResult> result = service->Submit({.xpath = "//item/name"}).get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->starts.size(), 2u);
}

// --------------------------------------------------------- concurrency ---

/// N worker threads x M client threads x the auction query suite must
/// produce byte-identical results to the single-threaded engines, and the
/// per-query stats must attribute exactly this query's storage accesses.
TEST(QueryServiceConcurrencyTest, MatchesSingleThreadedBaselines) {
  GenOptions gen_options;
  Result<BlasSystem> built = BlasSystem::FromEvents(
      [&](SaxHandler* h) { GenerateAuction(gen_options, h); });
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  BlasSystem sys = std::move(built).value();

  std::vector<BenchQuery> suite = Figure10Queries('A');
  for (const BenchQuery& q : XMarkBenchmarkQueries()) suite.push_back(q);

  // Single-threaded baselines, both engines, cold service-free run.
  struct Baseline {
    std::vector<uint32_t> starts;
    uint64_t elements = 0;
  };
  std::map<std::pair<std::string, Engine>, Baseline> expected;
  for (const BenchQuery& q : suite) {
    for (Engine engine : {Engine::kRelational, Engine::kTwig}) {
      Result<QueryResult> r =
          sys.Execute(q.xpath, Translator::kPushUp, engine);
      ASSERT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
      expected[{q.xpath, engine}] =
          Baseline{r->starts, r->stats.elements};
    }
  }

  ASSERT_GE(suite.size(), 6u);
  QueryService service(
      &sys, ServiceOptions{.worker_threads = 4,
                           .plan_cache_capacity = suite.size() - 2});

  // 4 client threads, each submitting every query several times with both
  // engines; the small cache forces eviction traffic while queries run.
  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::future<Result<QueryResult>>> futures;
        std::vector<std::pair<std::string, Engine>> keys;
        for (const BenchQuery& q : suite) {
          Engine engine = (c + round) % 2 == 0 ? Engine::kRelational
                                               : Engine::kTwig;
          QueryRequest request;
          request.xpath = q.xpath;
          request.options.engine = engine;
          futures.push_back(service.Submit(std::move(request)));
          keys.emplace_back(q.xpath, engine);
        }
        for (size_t i = 0; i < futures.size(); ++i) {
          Result<QueryResult> r = futures[i].get();
          // .at(): the map is shared across threads and must stay
          // read-only; a missing key should throw, not insert.
          const Baseline& base = expected.at(keys[i]);
          if (!r.ok() || r->starts != base.starts ||
              r->stats.elements != base.elements) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  ServiceStats stats = service.stats();
  uint64_t total = static_cast<uint64_t>(kClients) * kRounds * suite.size();
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.completed, total);
  EXPECT_EQ(stats.failed, 0u);
  // Cycling suite.size() distinct keys through a cache two entries
  // smaller guarantees eviction traffic; whether any concurrent lookup
  // hits depends on interleaving, so assert hits deterministically with a
  // quiet back-to-back repeat instead.
  EXPECT_GT(stats.plan_cache_evictions, 0u);
  EXPECT_GT(stats.exec.elements, 0u);
  QueryRequest warm;
  warm.xpath = suite.front().xpath;
  ASSERT_TRUE(service.Execute(warm).ok());
  ASSERT_TRUE(service.Execute(warm).ok());
  EXPECT_GT(service.stats().plan_cache_hits, stats.plan_cache_hits);
}

/// Service-wide element roll-up equals the store's own global counter when
/// the service is the only reader (ExecStats aggregation is exact).
TEST(QueryServiceConcurrencyTest, StatsRollUpMatchesStoreCounters) {
  BlasSystem sys = MustBuild(kDoc);
  sys.ResetCounters();
  QueryService service(&sys, ServiceOptions{.worker_threads = 4});

  std::vector<QueryRequest> batch;
  for (int i = 0; i < 40; ++i) {
    QueryRequest request;
    request.xpath = i % 2 == 0 ? "//item/name" : "/site/people/person/name";
    request.options.engine = i % 3 == 0 ? Engine::kTwig : Engine::kRelational;
    batch.push_back(std::move(request));
  }
  for (auto& future : service.SubmitBatch(std::move(batch))) {
    ASSERT_TRUE(future.get().ok());
  }
  EXPECT_EQ(service.stats().exec.elements, sys.store().stats().elements);
  EXPECT_EQ(service.stats().exec.page_fetches,
            sys.store().stats().page_fetches);
}

// ------------------------------------------------------- observability ---

/// Statsz()'s exec roll-up must equal the sum of the per-query ExecStats
/// the callers saw — no double count, no leak.
TEST(QueryServiceObsTest, StatszCountersMatchPerQueryExecStatsSums) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService service(&sys, ServiceOptions{.worker_threads = 2});

  ExecStats sum;
  uint64_t completed = 0;
  for (int i = 0; i < 12; ++i) {
    QueryRequest request;
    request.xpath = i % 2 == 0 ? "//item/name" : "//person/name";
    Result<QueryResult> result = service.Execute(request);
    ASSERT_TRUE(result.ok());
    sum.elements += result->stats.elements;
    sum.page_fetches += result->stats.page_fetches;
    sum.output_rows += result->stats.output_rows;
    ++completed;
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.exec.elements, sum.elements);
  EXPECT_EQ(stats.exec.page_fetches, sum.page_fetches);
  EXPECT_EQ(stats.exec.output_rows, sum.output_rows);

  // The latency histogram saw exactly one sample per completed query.
  const obs::Histogram* latency =
      service.metrics().GetHistogram("blas_query_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), completed);

  // Both exporters carry the same numbers.
  const std::string json = service.Statsz();
  EXPECT_NE(json.find("\"blas_service_completed\":" +
                      std::to_string(completed)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"blas_service_exec_elements\":" +
                      std::to_string(sum.elements)),
            std::string::npos)
      << json;
  const std::string prom = service.StatszPrometheus();
  EXPECT_NE(prom.find("blas_service_completed " + std::to_string(completed)),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("blas_query_latency_ns_bucket"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("blas_query_latency_ns_count " +
                      std::to_string(completed)),
            std::string::npos)
      << prom;
}

/// QueryOptions::trace yields the full stage span tree on a cold plan:
/// plan_cache(miss) -> parse -> translate -> optimize -> execute -> drain.
TEST(QueryServiceObsTest, ExplicitTraceYieldsStageSpans) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService service(&sys, ServiceOptions{.worker_threads = 1});

  QueryRequest request;
  request.xpath = "//item/name";
  request.options.trace = true;
  Result<QueryResult> result = service.Execute(request);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->trace, nullptr);
  EXPECT_EQ(result->trace->label, NormalizeXPath(request.xpath));
  EXPECT_GT(result->trace->total_ns, 0u);

  std::map<std::string, const obs::TraceSpan*> by_name;
  for (const obs::TraceSpan& span : result->trace->spans) {
    by_name[span.name] = &span;
  }
  for (const char* stage :
       {"plan_cache", "parse", "translate", "optimize", "execute", "drain"}) {
    ASSERT_TRUE(by_name.count(stage)) << "missing span " << stage << "\n"
                                      << result->trace->Render();
  }
  EXPECT_EQ(by_name["plan_cache"]->note, "miss");
  // Stages run in order.
  EXPECT_LE(by_name["parse"]->start_ns, by_name["translate"]->start_ns);
  EXPECT_LE(by_name["translate"]->start_ns, by_name["optimize"]->start_ns);
  EXPECT_LE(by_name["optimize"]->start_ns, by_name["execute"]->start_ns);
  EXPECT_LE(by_name["execute"]->start_ns, by_name["drain"]->start_ns);
  // The engine ran during execute: its counter delta is attributed there.
  EXPECT_GT(by_name["execute"]->elements, 0u);

  // Warm plan: the cache hit skips parse/translate/optimize entirely.
  Result<QueryResult> warm = service.Execute(request);
  ASSERT_TRUE(warm.ok());
  ASSERT_NE(warm->trace, nullptr);
  bool saw_parse = false;
  for (const obs::TraceSpan& span : warm->trace->spans) {
    if (span.name == "parse") saw_parse = true;
    if (span.name == "plan_cache") EXPECT_EQ(span.note, "hit");
  }
  EXPECT_FALSE(saw_parse);

  // Both traces landed in the ring, oldest first.
  auto recent = service.recent_traces();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0], result->trace);
  EXPECT_EQ(recent[1], warm->trace);
}

/// Sampling traces every query without the per-request flag, and the ring
/// stays bounded.
TEST(QueryServiceObsTest, SampledTracesStayInBoundedRing) {
  BlasSystem sys = MustBuild(kDoc);
  ServiceOptions options;
  options.worker_threads = 1;
  options.trace_sample_every = 1;
  options.trace_ring_capacity = 3;
  QueryService service(&sys, options);

  for (int i = 0; i < 7; ++i) {
    QueryRequest request;
    request.xpath = "//person/name";
    ASSERT_TRUE(service.Execute(request).ok());
  }
  EXPECT_EQ(service.recent_traces().size(), 3u);
  EXPECT_EQ(service.trace_ring().total_pushed(), 7u);
}

TEST(QueryServiceObsTest, SlowQueryLogCapturesBreakdown) {
  BlasSystem sys = MustBuild(kDoc);
  ServiceOptions options;
  options.worker_threads = 1;
  // Every query is "slow" at a 0+ threshold, so one completed query must
  // produce one entry.
  options.slow_query_millis = 1e-9;
  options.slow_query_log_capacity = 2;
  QueryService service(&sys, options);

  QueryRequest request;
  request.xpath = "  //item/name  ";
  request.options.trace = true;
  ASSERT_TRUE(service.Execute(request).ok());
  auto entries = service.slow_query_log().Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].query, "//item/name");  // normalized
  EXPECT_GT(entries[0].output_rows, 0u);
  ASSERT_NE(entries[0].trace, nullptr);
  EXPECT_NE(entries[0].ToString().find("translate"), std::string::npos);

  // The ring stays bounded.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.Execute(request).ok());
  }
  EXPECT_EQ(service.slow_query_log().Entries().size(), 2u);
  EXPECT_EQ(service.slow_query_log().total_recorded(), 6u);
}

/// The offset satellite: matches consumed by `offset` surface in the exec
/// roll-up instead of vanishing.
TEST(QueryServiceObsTest, OffsetSkippedReachesRollup) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService service(&sys, ServiceOptions{.worker_threads = 1});

  QueryRequest request;
  request.xpath = "//person/name";  // two matches
  request.options.offset = 1;
  Result<QueryResult> result = service.Execute(request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->offset_skipped, 1u);
  EXPECT_EQ(service.stats().exec.offset_skipped, 1u);
}

/// Collection queries report scatter accounting (docs_executed) and
/// feed the collection latency histogram.
TEST(QueryServiceObsTest, CollectionQueryRecordsScatterStats) {
  BlasCollection coll;
  ASSERT_TRUE(coll.AddXml("a", kDoc).ok());
  ASSERT_TRUE(coll.AddXml("b", kDoc).ok());
  QueryService service(&coll, ServiceOptions{.worker_threads = 2});

  QueryRequest request;
  request.xpath = "//item/name";
  request.options.trace = true;
  Result<BlasCollection::CollectionResult> result =
      service.ExecuteCollection(request);
  ASSERT_TRUE(result.ok());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.docs_executed, 2u);
  EXPECT_EQ(stats.docs_cancelled, 0u);
  const obs::Histogram* latency =
      service.metrics().GetHistogram("blas_collection_query_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 1u);

  // The trace carries one open_doc span per scattered document plus the
  // gather-side merge span.
  auto recent = service.recent_traces();
  ASSERT_EQ(recent.size(), 1u);
  size_t open_docs = 0;
  bool merged = false;
  for (const obs::TraceSpan& span : recent[0]->spans) {
    if (span.name == "open_doc") ++open_docs;
    if (span.name == "merge") merged = true;
  }
  EXPECT_EQ(open_docs, 2u);
  EXPECT_TRUE(merged);
}


/// Collection queries record every stage histogram: the per-document plan
/// build records translate and optimize once per document, and every
/// per-document open records execute.
TEST(QueryServiceObsTest, CollectionQueriesRecordEveryStage) {
  BlasCollection coll;
  ASSERT_TRUE(coll.AddXml("a", "<r><x/></r>").ok());
  ASSERT_TRUE(coll.AddXml("b", "<r><x/><x/></r>").ok());
  QueryService service(&coll, ServiceOptions{.worker_threads = 2});

  QueryRequest request;
  request.xpath = "//x";
  for (int i = 0; i < 2; ++i) {
    Result<BlasCollection::CollectionResult> result =
        service.ExecuteCollection(request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_matches, 3u);
  }
  auto count = [&service](const char* name) {
    const obs::Histogram* h = service.metrics().GetHistogram(name);
    return h == nullptr ? uint64_t{0} : h->count();
  };
  EXPECT_EQ(count("blas_stage_parse_ns"), 1u);
  EXPECT_EQ(count("blas_stage_translate_ns"), 2u);
  EXPECT_EQ(count("blas_stage_optimize_ns"), 2u);
  EXPECT_EQ(count("blas_stage_execute_ns"), 4u);
}

/// Every ServiceStats field under its exported name.
std::vector<std::pair<std::string, uint64_t>> StatsFields(
    const ServiceStats& s) {
  return {
      {"submitted", s.submitted},
      {"completed", s.completed},
      {"failed", s.failed},
      {"rejected", s.rejected},
      {"cursors_opened", s.cursors_opened},
      {"cancelled", s.cancelled},
      {"plan_cache_hits", s.plan_cache_hits},
      {"plan_cache_misses", s.plan_cache_misses},
      {"plan_cache_evictions", s.plan_cache_evictions},
      {"doc_plan_hits", s.doc_plan_hits},
      {"doc_plan_misses", s.doc_plan_misses},
      {"docs_ingested", s.docs_ingested},
      {"docs_removed", s.docs_removed},
      {"epochs_published", s.epochs_published},
      {"manifest_bytes", s.manifest_bytes},
      {"queries_served_during_churn", s.queries_served_during_churn},
      {"docs_executed", s.docs_executed},
      {"docs_cancelled", s.docs_cancelled},
      {"exec_elements", s.exec.elements},
      {"exec_page_fetches", s.exec.page_fetches},
      {"exec_page_misses", s.exec.page_misses},
      {"exec_io_reads", s.exec.io_reads},
      {"exec_d_joins", s.exec.d_joins},
      {"exec_intermediate_rows", s.exec.intermediate_rows},
      {"exec_output_rows", s.exec.output_rows},
      {"exec_offset_skipped", s.exec.offset_skipped},
  };
}

/// Drives `service` through every front-door method (the ones that do not
/// match its source fail), ending with one Submit after Shutdown.
void DriveEveryFrontDoor(QueryService& service) {
  QueryRequest request;
  request.xpath = "//item/name";
  request.options.offset = 1;
  QueryRequest bounded = request;
  bounded.options.limit = 1;
  bounded.options.offset = 0;

  (void)service.Execute(request);
  (void)service.Submit(request).get();
  (void)service.Submit({.xpath = "not an xpath"}).get();
  (void)service.Submit(request, [](const Match&) { return true; }).get();
  (void)service.Submit(bounded, [](const Match&) { return false; }).get();
  {
    Result<ResultCursor> cursor = service.SubmitCursor(request).get();
    if (cursor.ok()) (void)cursor->Drain();
  }
  (void)service.ExecuteCollection(request);
  (void)service.SubmitCollection(request).get();
  (void)service.SubmitCollection({.xpath = "not an xpath"}).get();
  (void)service
      .SubmitCollection(request, [](const CollectionMatch&) { return true; })
      .get();
  (void)service
      .SubmitCollection(bounded, [](const CollectionMatch&) { return false; })
      .get();
  {
    Result<CollectionCursor> cursor =
        service.SubmitCollectionCursor(request).get();
    if (cursor.ok()) (void)cursor->Drain();
  }
  service.Shutdown();
  EXPECT_FALSE(service.Submit(request).get().ok());
}

/// stats(), Statsz(), StatszPrometheus() and SnapshotMetrics() are views
/// of the same registry counters and agree on every field.
void ExpectExportParity(const QueryService& service) {
  const ServiceStats stats = service.stats();
  const std::string json = service.Statsz();
  const std::string prom = service.StatszPrometheus();
  const obs::MetricsSnapshot snapshot = service.SnapshotMetrics();
  const std::string counters_open = "{\"service\":{\"counters\":{";
  ASSERT_EQ(json.rfind(counters_open, 0), 0u) << json;
  const size_t counters_end = json.find('}', counters_open.size());
  for (const auto& [field, value] : StatsFields(stats)) {
    const std::string name = "blas_service_" + field;
    const std::string v = std::to_string(value);
    const size_t at = json.find("\"" + name + "\":" + v + ",");
    const size_t last = json.find("\"" + name + "\":" + v + "}");
    EXPECT_LT(std::min(at, last), counters_end) << name << " != " << v;
    EXPECT_NE(prom.find("# TYPE " + name + " counter\n" + name + " " + v +
                        "\n"),
              std::string::npos)
        << name << " != " << v;
    auto it = snapshot.counters.find(name);
    ASSERT_NE(it, snapshot.counters.end()) << name;
    EXPECT_EQ(it->second, value) << name;
  }
}

TEST(QueryServiceObsTest, EveryStatsFieldIsExportedAsARegistryCounter) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService single(&sys, ServiceOptions{.worker_threads = 2});
  DriveEveryFrontDoor(single);
  ExpectExportParity(single);
  const ServiceStats s = single.stats();
  EXPECT_GT(s.completed, 0u);
  EXPECT_GT(s.failed, 0u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.cursors_opened, 1u);
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_GT(s.exec.offset_skipped, 0u);

  BlasCollection coll;
  ASSERT_TRUE(coll.AddXml("a", kDoc).ok());
  ASSERT_TRUE(coll.AddXml("b", kDoc).ok());
  QueryService collection(&coll, ServiceOptions{.worker_threads = 2});
  DriveEveryFrontDoor(collection);
  ExpectExportParity(collection);
  const ServiceStats c = collection.stats();
  EXPECT_GT(c.completed, 0u);
  EXPECT_EQ(c.cursors_opened, 1u);
  EXPECT_EQ(c.cancelled, 1u);
  EXPECT_GT(c.doc_plan_hits, 0u);
  EXPECT_GT(c.docs_executed, 0u);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("blas_service_parity_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    Result<std::unique_ptr<LiveCollection>> live =
        LiveCollection::Open(dir.string());
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    QueryService service(live->get(), ServiceOptions{.worker_threads = 2});
    ASSERT_TRUE(service.SubmitAddDocument("a", kDoc).get().ok());
    ASSERT_TRUE(service.SubmitAddDocument("b", kDoc).get().ok());
    ASSERT_TRUE(service.SubmitReplaceDocument("b", kDoc).get().ok());
    ASSERT_TRUE(service.SubmitRemoveDocument("a").get().ok());
    service.DrainIngest();
    DriveEveryFrontDoor(service);
    ExpectExportParity(service);
    const ServiceStats l = service.stats();
    EXPECT_GT(l.completed, 0u);
    EXPECT_EQ(l.docs_ingested, 3u);
    EXPECT_EQ(l.docs_removed, 1u);
    EXPECT_GT(l.epochs_published, 0u);
    EXPECT_GT(l.manifest_bytes, 0u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace blas
