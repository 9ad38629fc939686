#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace blas {
namespace obs {

// ------------------------------------------------------------ histogram ---

size_t Histogram::BucketIndex(uint64_t value) {
  if (value < 16) return static_cast<size_t>(value);
  // Octave o holds [2^o, 2^{o+1}), split into 8 linear sub-buckets of
  // width 2^{o-3}. o ranges over [4, 63].
  const int o = std::bit_width(value) - 1;
  const size_t sub = static_cast<size_t>((value - (uint64_t{1} << o)) >>
                                         (o - 3));
  return 16 + static_cast<size_t>(o - 4) * 8 + sub;
}

uint64_t Histogram::BucketLo(size_t i) {
  if (i < 16) return i;
  const size_t o = 4 + (i - 16) / 8;
  const size_t sub = (i - 16) % 8;
  return (uint64_t{1} << o) + (static_cast<uint64_t>(sub) << (o - 3));
}

uint64_t Histogram::BucketHi(size_t i) {
  // Exclusive upper bound == next bucket's lower bound; the last bucket
  // tops out the domain.
  if (i + 1 >= kBuckets) return UINT64_MAX;
  return BucketLo(i + 1);
}

Histogram::Shard& Histogram::shard_for_this_thread() {
  static std::atomic<size_t> next{0};
  thread_local const size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shards_[mine];
}

void Histogram::Record(uint64_t value) {
  Shard& shard = shard_for_this_thread();
  shard.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = shard.max.load(std::memory_order_relaxed);
  while (value > seen &&
         !shard.max.compare_exchange_weak(seen, value,
                                          std::memory_order_relaxed)) {
  }
}

std::array<uint64_t, Histogram::kBuckets> Histogram::Snapshot() const {
  std::array<uint64_t, kBuckets> merged{};
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < kBuckets; ++i) {
      merged[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return merged;
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (uint64_t c : Snapshot()) total += c;
  return total;
}

uint64_t Histogram::sum() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::max_recorded() const {
  uint64_t m = 0;
  for (const Shard& shard : shards_) {
    m = std::max(m, shard.max.load(std::memory_order_relaxed));
  }
  return m;
}

uint64_t Histogram::ValueAtQuantile(double q) const {
  const std::array<uint64_t, kBuckets> merged = Snapshot();
  uint64_t total = 0;
  for (uint64_t c : merged) total += c;
  if (total == 0) return 0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Rank of the q-th order statistic, 1-based, matching the
  // nearest-rank definition a sorted-vector oracle uses.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += merged[i];
    if (seen >= rank) {
      const uint64_t lo = BucketLo(i);
      const uint64_t hi = BucketHi(i);
      // Midpoint, guarding the open-ended top bucket.
      return hi == UINT64_MAX ? lo : lo + (hi - lo) / 2;
    }
  }
  return BucketLo(kBuckets - 1);
}

// ------------------------------------------------------------- registry ---

MetricsRegistry::Entry* MetricsRegistry::GetOrCreate(std::string_view name,
                                                     std::string_view help,
                                                     Entry::Kind kind) {
  MutexLock lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    return it->second.kind == kind ? &it->second : nullptr;
  }
  Entry entry;
  entry.kind = kind;
  entry.help = std::string(help);
  switch (kind) {
    case Entry::Kind::kCounter:
      entry.counter.reset(new Counter());
      break;
    case Entry::Kind::kGauge:
      entry.gauge.reset(new Gauge());
      break;
    case Entry::Kind::kHistogram:
      entry.histogram.reset(new Histogram());
      break;
    case Entry::Kind::kCallbackGauge:
    case Entry::Kind::kCallbackCounter:
      break;
  }
  return &entries_.emplace(std::string(name), std::move(entry))
              .first->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help) {
  Entry* entry = GetOrCreate(name, help, Entry::Kind::kCounter);
  return entry == nullptr ? nullptr : entry->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view help) {
  Entry* entry = GetOrCreate(name, help, Entry::Kind::kGauge);
  return entry == nullptr ? nullptr : entry->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view help) {
  Entry* entry = GetOrCreate(name, help, Entry::Kind::kHistogram);
  return entry == nullptr ? nullptr : entry->histogram.get();
}

void MetricsRegistry::RegisterCallbackGauge(std::string_view name,
                                            std::string_view help,
                                            std::function<int64_t()> fn) {
  Entry* entry = GetOrCreate(name, help, Entry::Kind::kCallbackGauge);
  if (entry != nullptr) entry->callback = std::move(fn);
}

void MetricsRegistry::RegisterCallbackCounter(std::string_view name,
                                              std::string_view help,
                                              std::function<uint64_t()> fn) {
  Entry* entry = GetOrCreate(name, help, Entry::Kind::kCallbackCounter);
  if (entry != nullptr) entry->counter_callback = std::move(fn);
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

std::string MetricsRegistry::DumpPrometheus() const {
  MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, entry] : entries_) {
    if (!entry.help.empty()) {
      out += "# HELP " + name + " " + entry.help + "\n";
    }
    switch (entry.kind) {
      case Entry::Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        AppendF(&out, "%s %" PRIu64 "\n", name.c_str(),
                entry.counter->value());
        break;
      case Entry::Kind::kCallbackCounter:
        out += "# TYPE " + name + " counter\n";
        AppendF(&out, "%s %" PRIu64 "\n", name.c_str(),
                entry.counter_callback ? entry.counter_callback() : 0);
        break;
      case Entry::Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        AppendF(&out, "%s %" PRId64 "\n", name.c_str(),
                entry.gauge->value());
        break;
      case Entry::Kind::kCallbackGauge:
        out += "# TYPE " + name + " gauge\n";
        AppendF(&out, "%s %" PRId64 "\n", name.c_str(),
                entry.callback ? entry.callback() : 0);
        break;
      case Entry::Kind::kHistogram: {
        out += "# TYPE " + name + " histogram\n";
        const std::array<uint64_t, Histogram::kBuckets> buckets =
            entry.histogram->Snapshot();
        uint64_t cumulative = 0;
        for (size_t i = 0; i < Histogram::kBuckets; ++i) {
          if (buckets[i] == 0) continue;
          cumulative += buckets[i];
          // Integer samples: everything in buckets 0..i is <= hi - 1.
          AppendF(&out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                  name.c_str(), Histogram::BucketHi(i) - 1, cumulative);
        }
        AppendF(&out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", name.c_str(),
                cumulative);
        AppendF(&out, "%s_sum %" PRIu64 "\n", name.c_str(),
                entry.histogram->sum());
        AppendF(&out, "%s_count %" PRIu64 "\n", name.c_str(), cumulative);
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::DumpJson() const {
  MutexLock lock(mu_);
  std::string counters, gauges, histograms;
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Entry::Kind::kCounter:
        if (!counters.empty()) counters += ",";
        AppendF(&counters, "\"%s\":%" PRIu64, name.c_str(),
                entry.counter->value());
        break;
      case Entry::Kind::kCallbackCounter:
        if (!counters.empty()) counters += ",";
        AppendF(&counters, "\"%s\":%" PRIu64, name.c_str(),
                entry.counter_callback ? entry.counter_callback() : 0);
        break;
      case Entry::Kind::kGauge:
        if (!gauges.empty()) gauges += ",";
        AppendF(&gauges, "\"%s\":%" PRId64, name.c_str(),
                entry.gauge->value());
        break;
      case Entry::Kind::kCallbackGauge:
        if (!gauges.empty()) gauges += ",";
        AppendF(&gauges, "\"%s\":%" PRId64, name.c_str(),
                entry.callback ? entry.callback() : 0);
        break;
      case Entry::Kind::kHistogram: {
        if (!histograms.empty()) histograms += ",";
        const Histogram* h = entry.histogram.get();
        AppendF(&histograms,
                "\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                ",\"max\":%" PRIu64 ",\"p50\":%" PRIu64 ",\"p90\":%" PRIu64
                ",\"p99\":%" PRIu64 ",\"p999\":%" PRIu64 "}",
                name.c_str(), h->count(), h->sum(), h->max_recorded(),
                h->p50(), h->p90(), h->p99(), h->p999());
        break;
      }
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"histograms\":{" + histograms + "}}";
}

MetricsRegistry& DefaultRegistry() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace blas
