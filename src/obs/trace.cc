#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace blas {
namespace obs {

namespace {

thread_local TraceContext* g_current_context = nullptr;
thread_local int g_span_depth = 0;

int64_t NowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// --------------------------------------------------------------- render ---

std::string Trace::Render() const {
  char line[320];
  std::string out;
  std::snprintf(line, sizeof(line), "trace %s (%.3f ms)\n", label.c_str(),
                static_cast<double>(total_ns) / 1e6);
  out += line;
  for (const TraceSpan& span : spans) {
    std::string indent(2 * static_cast<size_t>(span.depth + 1), ' ');
    std::snprintf(line, sizeof(line),
                  "%s%s%s%s%s @%.3fms %.3fms", indent.c_str(),
                  span.name.c_str(), span.note.empty() ? "" : " [",
                  span.note.c_str(), span.note.empty() ? "" : "]",
                  static_cast<double>(span.start_ns) / 1e6,
                  static_cast<double>(span.duration_ns) / 1e6);
    out += line;
    if (span.elements + span.page_fetches + span.page_misses +
            span.io_reads >
        0) {
      std::snprintf(line, sizeof(line),
                    " elements=%" PRIu64 " pages=%" PRIu64 " misses=%" PRIu64
                    " io=%" PRIu64,
                    span.elements, span.page_fetches, span.page_misses,
                    span.io_reads);
      out += line;
    }
    out += "\n";
  }
  return out;
}

// -------------------------------------------------------------- context ---

TraceContext::TraceContext(std::string label)
    : start_(std::chrono::steady_clock::now()),
      started_unix_ms_(NowUnixMs()),
      label_(std::move(label)) {}

uint64_t TraceContext::ElapsedNanos() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void TraceContext::AddSpan(TraceSpan span) {
  MutexLock lock(mu_);
  spans_.push_back(std::move(span));
}

void TraceContext::RecordPageRead(uint64_t ns) {
  const uint64_t now = ElapsedNanos();
  page_reads_.fetch_add(1, std::memory_order_relaxed);
  page_read_ns_.fetch_add(ns, std::memory_order_relaxed);
  uint64_t first = first_read_ns_.load(std::memory_order_relaxed);
  const uint64_t started = now > ns ? now - ns : 0;
  while (started < first &&
         !first_read_ns_.compare_exchange_weak(first, started,
                                               std::memory_order_relaxed)) {
  }
}

std::shared_ptr<const Trace> TraceContext::Finish() {
  auto trace = std::make_shared<Trace>();
  trace->started_unix_ms = started_unix_ms_;
  const uint64_t reads = page_reads_.load(std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    trace->label = std::move(label_);
    if (reads > 0) {
      TraceSpan io;
      io.name = "page_io";
      char note[64];
      std::snprintf(note, sizeof(note), "%" PRIu64 " preads", reads);
      io.note = note;
      io.depth = 1;  // nested under whichever stage drove the reads
      io.start_ns = first_read_ns_.load(std::memory_order_relaxed);
      io.duration_ns = page_read_ns_.load(std::memory_order_relaxed);
      io.io_reads = reads;
      spans_.push_back(std::move(io));
    }
    trace->spans = std::move(spans_);
  }
  std::stable_sort(trace->spans.begin(), trace->spans.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     if (a.start_ns != b.start_ns) {
                       return a.start_ns < b.start_ns;
                     }
                     return a.depth < b.depth;
                   });
  trace->total_ns = ElapsedNanos();
  return trace;
}

TraceContext::Scope::Scope(TraceContext* context)
    : prev_(g_current_context) {
  if (context != nullptr) g_current_context = context;
}

TraceContext::Scope::~Scope() { g_current_context = prev_; }

TraceContext* TraceContext::Current() { return g_current_context; }

// ---------------------------------------------------------------- timer ---

SpanTimer::SpanTimer(TraceContext* context, const char* name)
    : context_(context) {
  if (context_ == nullptr) return;
  span_.name = name;
  span_.depth = g_span_depth++;
  span_.start_ns = context_->ElapsedNanos();
}

SpanTimer::~SpanTimer() {
  if (context_ == nullptr) return;
  --g_span_depth;
  span_.duration_ns = context_->ElapsedNanos() - span_.start_ns;
  context_->AddSpan(std::move(span_));
}

// ----------------------------------------------------------------- ring ---

void TraceRing::Push(std::shared_ptr<const Trace> trace) {
  if (capacity_ == 0) return;
  MutexLock lock(mu_);
  ring_.push_back(std::move(trace));
  ++pushed_;
  while (ring_.size() > capacity_) ring_.pop_front();
}

std::vector<std::shared_ptr<const Trace>> TraceRing::Recent() const {
  MutexLock lock(mu_);
  return {ring_.begin(), ring_.end()};
}

uint64_t TraceRing::total_pushed() const {
  MutexLock lock(mu_);
  return pushed_;
}

}  // namespace obs
}  // namespace blas
