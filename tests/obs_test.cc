// Tests of the observability layer (src/obs): histogram bucketing and
// percentiles against a sorted-vector oracle, concurrent recording,
// trace span nesting, the slow-query log's threshold and ring bounds,
// and both machine-readable exporters.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/snapshot.h"
#include "obs/trace.h"

namespace blas {
namespace obs {
namespace {

// ------------------------------------------------------------ histogram ---

TEST(HistogramBuckets, SmallValuesAreExact) {
  for (uint64_t v = 0; v < 16; ++v) {
    const size_t i = Histogram::BucketIndex(v);
    EXPECT_EQ(i, v);
    EXPECT_EQ(Histogram::BucketLo(i), v);
    EXPECT_EQ(Histogram::BucketHi(i), v + 1);
  }
}

TEST(HistogramBuckets, EveryValueLandsInItsBucket) {
  Rng rng(42);
  for (int trial = 0; trial < 10000; ++trial) {
    // Spread samples across the full magnitude range, not just small ints.
    const int shift = static_cast<int>(rng.Next() % 63);
    const uint64_t v = rng.Next() >> shift;
    const size_t i = Histogram::BucketIndex(v);
    ASSERT_LT(i, Histogram::kBuckets);
    EXPECT_GE(v, Histogram::BucketLo(i)) << "value " << v;
    if (Histogram::BucketHi(i) != UINT64_MAX) {
      EXPECT_LT(v, Histogram::BucketHi(i)) << "value " << v;
    }
  }
}

TEST(HistogramBuckets, BoundsAreContiguousAndMonotonic) {
  for (size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketHi(i), Histogram::BucketLo(i + 1));
    EXPECT_LT(Histogram::BucketLo(i), Histogram::BucketLo(i + 1));
  }
}

TEST(Histogram, CountSumMax) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  ASSERT_NE(h, nullptr);
  h->Record(1);
  h->Record(10);
  h->Record(100);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->sum(), 111u);
  EXPECT_EQ(h->max_recorded(), 100u);
}

TEST(Histogram, PercentilesMatchSortedVectorOracle) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  Rng rng(7);
  std::vector<uint64_t> samples;
  samples.reserve(50000);
  for (int i = 0; i < 50000; ++i) {
    // Log-uniform latencies from ~100 ns to ~100 ms.
    const double exponent =
        2.0 + 4.0 * static_cast<double>(rng.Below(1000000)) / 1e6;
    samples.push_back(static_cast<uint64_t>(std::pow(10.0, exponent)));
    h->Record(samples.back());
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    uint64_t rank = static_cast<uint64_t>(
        q * static_cast<double>(samples.size()));
    if (rank < 1) rank = 1;
    const uint64_t oracle = samples[rank - 1];
    const uint64_t estimate = h->ValueAtQuantile(q);
    // One 1/8-octave sub-bucket of error, plus midpoint rounding: 13%.
    EXPECT_NEAR(static_cast<double>(estimate), static_cast<double>(oracle),
                0.13 * static_cast<double>(oracle))
        << "q=" << q;
  }
}

TEST(Histogram, EmptyPercentilesAreZero) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  EXPECT_EQ(h->p50(), 0u);
  EXPECT_EQ(h->p999(), 0u);
  EXPECT_EQ(h->count(), 0u);
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Record(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kPerThread);
  // Sum of 0..N-1.
  const uint64_t n = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(h->sum(), n * (n - 1) / 2);
  EXPECT_EQ(h->max_recorded(), n - 1);
}

// ------------------------------------------------------------- registry ---

TEST(MetricsRegistry, PointersAreStableAndShared) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("requests", "help text");
  Counter* c2 = registry.GetCounter("requests");
  EXPECT_EQ(c1, c2);
  c1->Add(3);
  EXPECT_EQ(c2->value(), 3u);
}

TEST(MetricsRegistry, KindMismatchReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("x"), nullptr);
  EXPECT_EQ(registry.GetGauge("x"), nullptr);
  EXPECT_EQ(registry.GetHistogram("x"), nullptr);
}

TEST(MetricsRegistry, PrometheusGolden) {
  MetricsRegistry registry;
  registry.GetCounter("reqs_total", "Requests served")->Add(5);
  registry.GetGauge("depth")->Set(-2);
  registry.RegisterCallbackCounter("docs", "", [] { return uint64_t{4}; });
  Histogram* h = registry.GetHistogram("lat_ns");
  h->Record(3);
  h->Record(3);
  h->Record(20);
  // Bucket 3 holds [3,4) -> le="3"; value 20 lands in [20,22) -> le="21".
  const std::string expected =
      "# TYPE depth gauge\n"
      "depth -2\n"
      "# TYPE docs counter\n"
      "docs 4\n"
      "# TYPE lat_ns histogram\n"
      "lat_ns_bucket{le=\"3\"} 2\n"
      "lat_ns_bucket{le=\"21\"} 3\n"
      "lat_ns_bucket{le=\"+Inf\"} 3\n"
      "lat_ns_sum 26\n"
      "lat_ns_count 3\n"
      "# HELP reqs_total Requests served\n"
      "# TYPE reqs_total counter\n"
      "reqs_total 5\n";
  EXPECT_EQ(registry.DumpPrometheus(), expected);
}

TEST(MetricsRegistry, JsonGolden) {
  MetricsRegistry registry;
  registry.GetCounter("hits")->Add(7);
  registry.GetGauge("frames")->Set(12);
  registry.GetHistogram("lat");  // empty histogram still listed
  registry.RegisterCallbackGauge("cb", "", [] { return int64_t{9}; });
  registry.RegisterCallbackCounter("read", "", [] { return uint64_t{3}; });
  const std::string expected =
      "{\"counters\":{\"hits\":7,\"read\":3},"
      "\"gauges\":{\"cb\":9,\"frames\":12},"
      "\"histograms\":{\"lat\":{\"count\":0,\"sum\":0,\"max\":0,"
      "\"p50\":0,\"p90\":0,\"p99\":0,\"p999\":0}}}";
  EXPECT_EQ(registry.DumpJson(), expected);
}

TEST(MetricsRegistry, PrometheusHistogramBucketsAreCumulative) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  for (uint64_t v = 0; v < 10; ++v) h->Record(v);
  const std::string dump = registry.DumpPrometheus();
  // Ten exact buckets, each cumulative count one higher than the last.
  for (uint64_t v = 0; v < 10; ++v) {
    char line[64];
    std::snprintf(line, sizeof(line), "h_bucket{le=\"%llu\"} %llu\n",
                  static_cast<unsigned long long>(v),
                  static_cast<unsigned long long>(v + 1));
    EXPECT_NE(dump.find(line), std::string::npos) << dump;
  }
  EXPECT_NE(dump.find("h_bucket{le=\"+Inf\"} 10\n"), std::string::npos);
}

// ---------------------------------------------------------------- trace ---

TEST(Trace, SpansNestAndOrder) {
  TraceContext context("//item");
  {
    SpanTimer outer(&context, "execute");
    outer.set_note("twig");
    {
      SpanTimer inner(&context, "scan");
      inner.set_counters(100, 4, 1, 1);
    }
    { SpanTimer inner2(&context, "join"); }
  }
  std::shared_ptr<const Trace> trace = context.Finish();
  ASSERT_EQ(trace->spans.size(), 3u);
  // Sorted by start: outer starts first, then its children in order.
  EXPECT_EQ(trace->spans[0].name, "execute");
  EXPECT_EQ(trace->spans[0].depth, 0);
  EXPECT_EQ(trace->spans[0].note, "twig");
  EXPECT_EQ(trace->spans[1].name, "scan");
  EXPECT_EQ(trace->spans[1].depth, 1);
  EXPECT_EQ(trace->spans[1].elements, 100u);
  EXPECT_EQ(trace->spans[2].name, "join");
  EXPECT_EQ(trace->spans[2].depth, 1);
  EXPECT_LE(trace->spans[1].start_ns, trace->spans[2].start_ns);
  // Children start within the parent's window.
  EXPECT_GE(trace->spans[1].start_ns, trace->spans[0].start_ns);
  EXPECT_LE(trace->spans[2].start_ns + trace->spans[2].duration_ns,
            trace->spans[0].start_ns + trace->spans[0].duration_ns);
  EXPECT_EQ(trace->label, "//item");
  EXPECT_GT(trace->total_ns, 0u);
  // Render shows every span, indented.
  const std::string rendered = trace->Render();
  EXPECT_NE(rendered.find("execute [twig]"), std::string::npos);
  EXPECT_NE(rendered.find("    scan"), std::string::npos);
}

TEST(Trace, NullSpanTimerIsNoop) {
  // Must not crash nor record anything anywhere.
  SpanTimer timer(nullptr, "ignored");
  timer.set_note("x");
  timer.set_counters(1, 2, 3, 4);
}

TEST(Trace, PageReadsAggregateIntoOneSpan) {
  TraceContext context("q");
  context.RecordPageRead(1000);
  context.RecordPageRead(2000);
  context.RecordPageRead(500);
  std::shared_ptr<const Trace> trace = context.Finish();
  ASSERT_EQ(trace->spans.size(), 1u);
  const TraceSpan& io = trace->spans[0];
  EXPECT_EQ(io.name, "page_io");
  EXPECT_EQ(io.note, "3 preads");
  EXPECT_EQ(io.io_reads, 3u);
  EXPECT_EQ(io.duration_ns, 3500u);
  EXPECT_EQ(io.depth, 1);
}

TEST(Trace, CurrentFollowsScopeNesting) {
  EXPECT_EQ(TraceContext::Current(), nullptr);
  TraceContext outer("outer");
  {
    TraceContext::Scope scope(&outer);
    EXPECT_EQ(TraceContext::Current(), &outer);
    {
      // Null install keeps the outer context visible.
      TraceContext::Scope noop(nullptr);
      EXPECT_EQ(TraceContext::Current(), &outer);
    }
    TraceContext inner("inner");
    {
      TraceContext::Scope nested(&inner);
      EXPECT_EQ(TraceContext::Current(), &inner);
    }
    EXPECT_EQ(TraceContext::Current(), &outer);
  }
  EXPECT_EQ(TraceContext::Current(), nullptr);
}

TEST(Trace, ConcurrentAddSpan) {
  TraceContext context("fanout");
  constexpr int kThreads = 8;
  constexpr int kSpans = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&context] {
      for (int i = 0; i < kSpans; ++i) {
        SpanTimer span(&context, "worker");
        context.RecordPageRead(10);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::shared_ptr<const Trace> trace = context.Finish();
  // kThreads * kSpans worker spans plus the aggregated page_io span.
  EXPECT_EQ(trace->spans.size(),
            static_cast<size_t>(kThreads) * kSpans + 1);
}

TEST(TraceRing, BoundedOldestFirst) {
  TraceRing ring(3);
  for (int i = 0; i < 5; ++i) {
    TraceContext context("q" + std::to_string(i));
    ring.Push(context.Finish());
  }
  std::vector<std::shared_ptr<const Trace>> recent = ring.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0]->label, "q2");
  EXPECT_EQ(recent[2]->label, "q4");
  EXPECT_EQ(ring.total_pushed(), 5u);
}

// ------------------------------------------------------- slow-query log ---

TEST(SlowQueryLog, ThresholdGates) {
  SlowQueryLog log(/*threshold_millis=*/10.0, /*capacity=*/4);
  EXPECT_TRUE(log.enabled());
  SlowQueryEntry fast;
  fast.query = "//fast";
  fast.millis = 9.99;
  EXPECT_FALSE(log.MaybeRecord(fast));
  SlowQueryEntry slow;
  slow.query = "//slow";
  slow.millis = 10.0;
  EXPECT_TRUE(log.MaybeRecord(slow));
  ASSERT_EQ(log.Entries().size(), 1u);
  EXPECT_EQ(log.Entries()[0].query, "//slow");
  EXPECT_EQ(log.total_recorded(), 1u);
}

TEST(SlowQueryLog, DisabledByZeroThreshold) {
  SlowQueryLog log(0.0, 4);
  EXPECT_FALSE(log.enabled());
  SlowQueryEntry entry;
  entry.millis = 1e9;
  EXPECT_FALSE(log.MaybeRecord(entry));
  EXPECT_TRUE(log.Entries().empty());
}

TEST(SlowQueryLog, RingKeepsMostRecent) {
  SlowQueryLog log(1.0, 2);
  for (int i = 0; i < 5; ++i) {
    SlowQueryEntry entry;
    entry.query = "q" + std::to_string(i);
    entry.millis = 2.0;
    EXPECT_TRUE(log.MaybeRecord(entry));
  }
  std::vector<SlowQueryEntry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].query, "q3");
  EXPECT_EQ(entries[1].query, "q4");
  EXPECT_EQ(log.total_recorded(), 5u);
}

TEST(SlowQueryLog, ToStringCarriesBreakdown) {
  SlowQueryEntry entry;
  entry.query = "//item[price]";
  entry.translator = "pushup";
  entry.engine = "twig";
  entry.millis = 12.5;
  entry.elements = 1000;
  entry.page_fetches = 40;
  entry.page_misses = 5;
  entry.io_reads = 5;
  entry.output_rows = 17;
  TraceContext context("//item[price]");
  { SpanTimer span(&context, "execute"); }
  entry.trace = context.Finish();
  const std::string text = entry.ToString();
  EXPECT_NE(text.find("12.5"), std::string::npos);
  EXPECT_NE(text.find("//item[price]"), std::string::npos);
  EXPECT_NE(text.find("translator=pushup"), std::string::npos);
  EXPECT_NE(text.find("engine=twig"), std::string::npos);
  EXPECT_NE(text.find("execute"), std::string::npos);
}

// ------------------------------------------------------------ snapshots ---

TEST(MetricsSnapshot, RegistryCapturesEveryKind) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(41);
  registry.GetGauge("g")->Set(-7);
  registry.RegisterCallbackGauge("cb", "", [] { return int64_t{13}; });
  registry.RegisterCallbackCounter("rc", "", [] { return uint64_t{8}; });
  Histogram* h = registry.GetHistogram("h");
  h->Record(5);
  h->Record(500);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GT(snap.captured_mono_ns, 0u);
  EXPECT_EQ(snap.counters.at("c"), 41u);
  EXPECT_EQ(snap.gauges.at("g"), -7);
  EXPECT_EQ(snap.gauges.at("cb"), 13);
  EXPECT_EQ(snap.counters.at("rc"), 8u);
  const HistogramSnapshot& hs = snap.histograms.at("h");
  EXPECT_EQ(hs.count, 2u);
  EXPECT_EQ(hs.sum, 505u);
  EXPECT_EQ(hs.max, 500u);
  // Sparse: two samples -> two non-empty buckets, not 496.
  EXPECT_EQ(hs.buckets.size(), 2u);
}

TEST(MetricsSnapshot, SubtractIsTheWindowDistribution) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat");
  Counter* c = registry.GetCounter("reqs");
  Rng rng(7);
  auto log_uniform = [&rng] {
    const double exponent =
        2.0 + 4.0 * static_cast<double>(rng.Below(1000000)) / 1e6;
    return static_cast<uint64_t>(std::pow(10.0, exponent));
  };

  // Warm-up samples that must NOT appear in the window.
  for (int i = 0; i < 20000; ++i) h->Record(log_uniform());
  c->Add(100);
  MetricsSnapshot before = registry.Snapshot();

  // The window under test.
  std::vector<uint64_t> window;
  window.reserve(30000);
  for (int i = 0; i < 30000; ++i) {
    window.push_back(log_uniform());
    h->Record(window.back());
  }
  c->Add(250);
  MetricsSnapshot after = registry.Snapshot();

  MetricsSnapshot delta = after.Subtract(before);
  EXPECT_EQ(delta.counters.at("reqs"), 250u);
  const HistogramSnapshot& hs = delta.histograms.at("lat");
  EXPECT_EQ(hs.count, window.size());

  std::sort(window.begin(), window.end());
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    uint64_t rank =
        static_cast<uint64_t>(q * static_cast<double>(window.size()));
    if (rank < 1) rank = 1;
    const uint64_t oracle = window[rank - 1];
    const uint64_t estimate = hs.ValueAtQuantile(q);
    // Same 1/8-octave + midpoint error envelope as the live histogram.
    EXPECT_NEAR(static_cast<double>(estimate), static_cast<double>(oracle),
                0.13 * static_cast<double>(oracle))
        << "q=" << q;
  }
}

TEST(MetricsSnapshot, SubtractSaturatesInsteadOfWrapping) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetCounter("c")->Add(10);
  b.GetCounter("c")->Add(99);
  a.GetHistogram("h")->Record(5);
  Histogram* hb = b.GetHistogram("h");
  hb->Record(5);
  hb->Record(5);
  // Subtracting a *larger* earlier snapshot (as after a registry reset)
  // degrades to zero, never wraps to ~2^64.
  MetricsSnapshot delta = a.Snapshot().Subtract(b.Snapshot());
  EXPECT_EQ(delta.counters.at("c"), 0u);
  EXPECT_EQ(delta.histograms.at("h").count, 0u);
}

TEST(MetricsSnapshot, MergeAddsCountersAndKeepsOwnGauges) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetCounter("shared")->Add(5);
  b.GetCounter("shared")->Add(7);
  b.GetCounter("only_b")->Add(3);
  a.GetGauge("g")->Set(1);
  b.GetGauge("g")->Set(2);
  a.GetHistogram("h")->Record(4);
  b.GetHistogram("h")->Record(4);

  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.counters.at("shared"), 12u);
  EXPECT_EQ(merged.counters.at("only_b"), 3u);
  EXPECT_EQ(merged.gauges.at("g"), 1);  // own value wins
  EXPECT_EQ(merged.histograms.at("h").count, 2u);
  EXPECT_EQ(merged.histograms.at("h").buckets.size(), 1u);
  EXPECT_EQ(merged.histograms.at("h").buckets[0].second, 2u);
}

/// DumpJson regression: quantiles/counts/sums must be bare JSON numbers
/// (scrapers compute rates from them), never strings.
TEST(MetricsRegistry, JsonQuantilesAreNumbersNotStrings) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat");
  for (int i = 1; i <= 100; ++i) h->Record(static_cast<uint64_t>(i));
  const std::string json = registry.DumpJson();
  for (const char* key : {"\"count\":", "\"sum\":", "\"max\":", "\"p50\":",
                          "\"p90\":", "\"p99\":", "\"p999\":"}) {
    const size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    const char next = json[at + std::string(key).size()];
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(next)))
        << key << " is followed by '" << next << "' — a string, not a number";
  }
}

// ----------------------------------------------------------- snapshotter ---

/// Capture callback with hand-authored timestamps: one snapshot per call,
/// one "second" apart, counter advancing 100/s.
struct FakeCapture {
  uint64_t calls = 0;
  MetricsSnapshot operator()() {
    MetricsSnapshot snap;
    ++calls;
    snap.captured_mono_ns = calls * 1000000000ull;
    snap.counters["c"] = calls * 100;
    HistogramSnapshot h;
    h.buckets = {{static_cast<uint32_t>(calls % 16), 10}};
    h.count = 10;
    h.sum = 10 * (calls % 16);
    snap.histograms["h"] = h;
    return snap;
  }
};

TEST(MetricsSnapshotter, RingIsBoundedAndOldestFirst) {
  MetricsSnapshotter::Options options;
  options.ring_capacity = 5;
  MetricsSnapshotter snaps(FakeCapture{}, options);
  for (int i = 0; i < 12; ++i) snaps.CaptureNow();
  EXPECT_EQ(snaps.ring_size(), 5u);
  EXPECT_EQ(snaps.ring_capacity(), 5u);
  const std::vector<MetricsSnapshot> ring = snaps.Ring();
  ASSERT_EQ(ring.size(), 5u);
  // FakeCapture is copied into the snapshotter; calls 1..12 happened, the
  // ring keeps the newest five in arrival order.
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].counters.at("c"), (8 + i) * 100);
  }
}

TEST(MetricsSnapshotter, WindowDeltaPicksTheRightBase) {
  MetricsSnapshotter snaps(FakeCapture{});
  MetricsSnapshot delta;
  double span = 0;
  EXPECT_FALSE(snaps.WindowDelta(10, &delta));  // empty ring
  snaps.CaptureNow();
  EXPECT_FALSE(snaps.WindowDelta(10, &delta));  // one snapshot
  for (int i = 0; i < 7; ++i) snaps.CaptureNow();  // timestamps 1s..8s

  ASSERT_TRUE(snaps.WindowDelta(3, &delta, &span));
  EXPECT_DOUBLE_EQ(span, 3.0);  // base = snapshot at 5s, tip at 8s
  EXPECT_EQ(delta.counters.at("c"), 300u);

  // Window wider than the ring: honest span over what exists (7s).
  ASSERT_TRUE(snaps.WindowDelta(60, &delta, &span));
  EXPECT_DOUBLE_EQ(span, 7.0);
  EXPECT_EQ(delta.counters.at("c"), 700u);
}

TEST(MetricsSnapshotter, WindowsJsonShapes) {
  MetricsSnapshotter snaps(FakeCapture{});
  // No data at all: every window renders as {}.
  EXPECT_EQ(snaps.WindowsJson({10, 60}), "{\"10s\":{},\"60s\":{}}");
  for (int i = 0; i < 5; ++i) snaps.CaptureNow();
  const std::string json = snaps.WindowsJson({2});
  EXPECT_NE(json.find("\"2s\":{\"span_seconds\":2.000"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"rates\":{\"c\":100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\":{\"h\":{\"count\":"), std::string::npos)
      << json;
}

TEST(MetricsSnapshotter, BackgroundThreadCapturesAndStops) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("ticks");
  MetricsSnapshotter::Options options;
  options.interval_ms = 5;
  options.ring_capacity = 8;
  MetricsSnapshotter snaps([&registry] { return registry.Snapshot(); },
                           options);
  snaps.Start();
  snaps.Start();  // idempotent
  c->Add(1);
  // Wait (bounded) for the thread to capture at least twice.
  for (int i = 0; i < 400 && snaps.ring_size() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(snaps.ring_size(), 2u);
  EXPECT_LE(snaps.ring_size(), 8u);
  snaps.Stop();
  snaps.Stop();  // idempotent
  const size_t after_stop = snaps.ring_size();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(snaps.ring_size(), after_stop);  // thread really stopped
}

// ------------------------------------------------------------ stopwatch ---

TEST(Stopwatch, ElapsedNanosIsMonotonicAndConsistent) {
  Stopwatch watch;
  const uint64_t a = watch.ElapsedNanos();
  const uint64_t b = watch.ElapsedNanos();
  EXPECT_LE(a, b);
  // Nanos and millis come off the same clock: within 10 ms of each other
  // even on a loaded machine.
  const double millis = watch.ElapsedMillis();
  const double from_nanos = static_cast<double>(watch.ElapsedNanos()) / 1e6;
  EXPECT_LT(millis - 10.0, from_nanos);
  EXPECT_GE(from_nanos + 10.0, millis);
}

}  // namespace
}  // namespace obs
}  // namespace blas
