#include "obs/snapshot.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace blas {
namespace obs {

// -------------------------------------------------- histogram snapshot ---

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  std::vector<std::pair<uint32_t, uint64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  size_t i = 0, j = 0;
  while (i < buckets.size() || j < other.buckets.size()) {
    if (j >= other.buckets.size() ||
        (i < buckets.size() && buckets[i].first < other.buckets[j].first)) {
      merged.push_back(buckets[i++]);
    } else if (i >= buckets.size() ||
               buckets[i].first > other.buckets[j].first) {
      merged.push_back(other.buckets[j++]);
    } else {
      merged.emplace_back(buckets[i].first,
                          buckets[i].second + other.buckets[j].second);
      ++i;
      ++j;
    }
  }
  buckets = std::move(merged);
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
}

HistogramSnapshot HistogramSnapshot::Subtract(
    const HistogramSnapshot& earlier) const {
  HistogramSnapshot delta;
  delta.buckets.reserve(buckets.size());
  size_t j = 0;
  for (const auto& [index, value] : buckets) {
    while (j < earlier.buckets.size() && earlier.buckets[j].first < index) {
      ++j;
    }
    uint64_t base = 0;
    if (j < earlier.buckets.size() && earlier.buckets[j].first == index) {
      base = earlier.buckets[j].second;
    }
    if (value > base) {
      delta.buckets.emplace_back(index, value - base);
      delta.count += value - base;
    }
  }
  delta.sum = sum > earlier.sum ? sum - earlier.sum : 0;
  delta.max = max;
  return delta;
}

uint64_t HistogramSnapshot::ValueAtQuantile(double q) const {
  if (count == 0) return 0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Nearest-rank, 1-based — identical to Histogram::ValueAtQuantile so a
  // windowed percentile and a lifetime percentile are directly comparable.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  uint64_t seen = 0;
  for (const auto& [index, value] : buckets) {
    seen += value;
    if (seen >= rank) {
      const uint64_t lo = Histogram::BucketLo(index);
      const uint64_t hi = Histogram::BucketHi(index);
      return hi == UINT64_MAX ? lo : lo + (hi - lo) / 2;
    }
  }
  return buckets.empty() ? 0 : Histogram::BucketLo(buckets.back().first);
}

// ---------------------------------------------------- metrics snapshot ---

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) {
    gauges.emplace(name, value);  // keep ours on collision
  }
  for (const auto& [name, hist] : other.histograms) {
    histograms[name].Merge(hist);
  }
}

MetricsSnapshot MetricsSnapshot::Subtract(
    const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta;
  delta.captured_mono_ns = captured_mono_ns;
  delta.captured_unix_ms = captured_unix_ms;
  for (const auto& [name, value] : counters) {
    auto it = earlier.counters.find(name);
    const uint64_t base = it == earlier.counters.end() ? 0 : it->second;
    delta.counters[name] = value > base ? value - base : 0;
  }
  delta.gauges = gauges;
  for (const auto& [name, hist] : histograms) {
    auto it = earlier.histograms.find(name);
    delta.histograms[name] = it == earlier.histograms.end()
                                 ? hist
                                 : hist.Subtract(it->second);
  }
  return delta;
}

// ------------------------------------------------- registry -> snapshot ---

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  snap.captured_mono_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  snap.captured_unix_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  MutexLock lock(mu_);
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Entry::Kind::kCounter:
        snap.counters[name] = entry.counter->value();
        break;
      case Entry::Kind::kCallbackCounter:
        snap.counters[name] =
            entry.counter_callback ? entry.counter_callback() : 0;
        break;
      case Entry::Kind::kGauge:
        snap.gauges[name] = entry.gauge->value();
        break;
      case Entry::Kind::kCallbackGauge:
        snap.gauges[name] = entry.callback ? entry.callback() : 0;
        break;
      case Entry::Kind::kHistogram: {
        HistogramSnapshot hist;
        const std::array<uint64_t, Histogram::kBuckets> dense =
            entry.histogram->Snapshot();
        for (size_t i = 0; i < Histogram::kBuckets; ++i) {
          if (dense[i] == 0) continue;
          hist.buckets.emplace_back(static_cast<uint32_t>(i), dense[i]);
          hist.count += dense[i];
        }
        hist.sum = entry.histogram->sum();
        hist.max = entry.histogram->max_recorded();
        snap.histograms[name] = std::move(hist);
        break;
      }
    }
  }
  return snap;
}

// ----------------------------------------------------------- snapshotter ---

MetricsSnapshotter::MetricsSnapshotter(
    std::function<MetricsSnapshot()> capture, Options options)
    : capture_(std::move(capture)), options_(options) {}

MetricsSnapshotter::~MetricsSnapshotter() { Stop(); }

void MetricsSnapshotter::Start() {
  MutexLock lock(mu_);
  if (running_) return;
  running_ = true;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void MetricsSnapshotter::Stop() {
  std::thread joiner;
  {
    MutexLock lock(mu_);
    stop_ = true;
    cv_.NotifyAll();
    if (thread_.joinable()) joiner = std::move(thread_);
    running_ = false;
  }
  if (joiner.joinable()) joiner.join();
}

void MetricsSnapshotter::CaptureNow() {
  MetricsSnapshot snap = capture_();
  MutexLock lock(mu_);
  ring_.push_back(std::move(snap));
  while (ring_.size() > options_.ring_capacity) ring_.pop_front();
}

void MetricsSnapshotter::Loop() {
  const auto interval = std::chrono::milliseconds(
      options_.interval_ms > 0 ? options_.interval_ms : 1000);
  for (;;) {
    CaptureNow();
    const auto deadline = std::chrono::steady_clock::now() + interval;
    MutexLock lock(mu_);
    while (!stop_) {
      if (!cv_.WaitUntil(lock, deadline)) break;  // interval elapsed
    }
    if (stop_) return;
  }
}

size_t MetricsSnapshotter::ring_size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

std::vector<MetricsSnapshot> MetricsSnapshotter::Ring() const {
  MutexLock lock(mu_);
  return std::vector<MetricsSnapshot>(ring_.begin(), ring_.end());
}

bool MetricsSnapshotter::WindowDelta(double seconds, MetricsSnapshot* delta,
                                     double* span_seconds) const {
  MetricsSnapshot newest, base;
  {
    MutexLock lock(mu_);
    if (ring_.size() < 2) return false;
    newest = ring_.back();
    // The newest snapshot at least `seconds` older than the tip — or the
    // oldest we have, for processes younger than the window.
    const uint64_t span_ns =
        seconds <= 0 ? 0 : static_cast<uint64_t>(seconds * 1e9);
    const uint64_t target = newest.captured_mono_ns > span_ns
                                ? newest.captured_mono_ns - span_ns
                                : 0;
    base = ring_.front();
    for (size_t i = ring_.size() - 1; i-- > 0;) {
      if (ring_[i].captured_mono_ns <= target) {
        base = ring_[i];
        break;
      }
    }
  }
  if (newest.captured_mono_ns <= base.captured_mono_ns) return false;
  if (delta != nullptr) *delta = newest.Subtract(base);
  if (span_seconds != nullptr) {
    *span_seconds =
        static_cast<double>(newest.captured_mono_ns -
                            base.captured_mono_ns) /
        1e9;
  }
  return true;
}

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, std::min<size_t>(n, sizeof(buf) - 1));
}

}  // namespace

std::string MetricsSnapshotter::WindowsJson(
    const std::vector<int>& windows_seconds) const {
  std::string out = "{";
  bool first_window = true;
  for (int window : windows_seconds) {
    if (!first_window) out += ",";
    first_window = false;
    AppendF(&out, "\"%ds\":", window);
    MetricsSnapshot delta;
    double span = 0;
    if (!WindowDelta(window, &delta, &span) || span <= 0) {
      out += "{}";
      continue;
    }
    AppendF(&out, "{\"span_seconds\":%.3f,\"rates\":{", span);
    bool first = true;
    for (const auto& [name, value] : delta.counters) {
      AppendF(&out, "%s\"%s\":%.6g", first ? "" : ",", name.c_str(),
              static_cast<double>(value) / span);
      first = false;
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, hist] : delta.histograms) {
      AppendF(&out,
              "%s\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
              ",\"p50\":%" PRIu64 ",\"p90\":%" PRIu64 ",\"p99\":%" PRIu64
              ",\"p999\":%" PRIu64 "}",
              first ? "" : ",", name.c_str(), hist.count, hist.sum,
              hist.p50(), hist.p90(), hist.p99(), hist.p999());
      first = false;
    }
    out += "}}";
  }
  out += "}";
  return out;
}

}  // namespace obs
}  // namespace blas
