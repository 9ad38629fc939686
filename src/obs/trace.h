#ifndef BLAS_OBS_TRACE_H_
#define BLAS_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"


namespace blas {
namespace obs {

/// One timed stage of a query's life. Spans form a tree: `depth` is the
/// nesting level at the recording site (0 = top-level stage) and
/// `start_ns` orders siblings; a span's children are the deeper spans
/// whose start falls inside its [start, start + duration) window.
struct TraceSpan {
  std::string name;
  /// Free-form detail: plan-cache hit/miss, translator, engine, document.
  std::string note;
  int depth = 0;
  /// Nanoseconds since the trace started.
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  // Counter deltas attributed to this stage (ExecStats/ReadCounters
  // vocabulary; all 0 for stages that do not touch storage).
  uint64_t elements = 0;
  uint64_t page_fetches = 0;
  uint64_t page_misses = 0;
  uint64_t io_reads = 0;
};

/// A finished trace: the span tree of one sampled (or explicitly
/// requested) query. Immutable once published.
struct Trace {
  /// Normalized query text.
  std::string label;
  /// Total wall time from TraceContext construction to Finish().
  uint64_t total_ns = 0;
  /// Wall-clock start (system_clock, ms since epoch) for log correlation.
  int64_t started_unix_ms = 0;
  std::vector<TraceSpan> spans;

  /// Human-readable tree: spans sorted by start, indented by depth, with
  /// per-stage wall time and counters.
  std::string Render() const;
};

/// \brief Collects the spans of one query while it executes.
///
/// The service creates one per traced query, installs it as the calling
/// thread's current context (see Scope) so deep layers can attribute
/// work to it — the buffer pool adds every real page read's latency —
/// and Finish()es it into an immutable Trace. AddSpan is internally
/// synchronized: collection scatter workers report spans concurrently.
class TraceContext {
 public:
  explicit TraceContext(std::string label);

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// Nanoseconds since this context was created (span timestamps).
  uint64_t ElapsedNanos() const;

  /// Appends a completed span (thread-safe).
  void AddSpan(TraceSpan span);

  /// Storage-layer hook: one real page read (pread) took `ns`. Aggregated
  /// into a single synthetic "page_io" span at Finish — per-read spans
  /// would swamp the trace on cold scans.
  void RecordPageRead(uint64_t ns);

  /// Seals the trace: emits the aggregated page_io span (when any reads
  /// happened), stamps the total, sorts spans by (start, depth) and
  /// returns the immutable result. Call once.
  std::shared_ptr<const Trace> Finish();

  /// \brief RAII installer of the thread-local current context. Accepts
  /// nullptr (no-op) so untraced paths pay one TLS store only.
  class Scope {
   public:
    explicit Scope(TraceContext* context);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TraceContext* prev_;
  };

  /// The innermost context installed on this thread, or nullptr.
  static TraceContext* Current();

 private:
  const std::chrono::steady_clock::time_point start_;
  const int64_t started_unix_ms_;

  Mutex mu_;
  std::string label_ BLAS_GUARDED_BY(mu_);
  std::vector<TraceSpan> spans_ BLAS_GUARDED_BY(mu_);

  std::atomic<uint64_t> page_reads_{0};
  std::atomic<uint64_t> page_read_ns_{0};
  /// start_ns of the first pread (UINT64_MAX until one happens).
  std::atomic<uint64_t> first_read_ns_{UINT64_MAX};
};

/// \brief Times one stage and records it into a context on destruction.
///
/// Null-safe: with a null context the constructor and destructor do
/// nothing (no clock reads, no string construction — `name` must be a
/// literal or otherwise outlive the timer), so call sites stay
/// unconditional. Nesting depth is tracked per thread — a SpanTimer
/// created while another is live on the same thread records depth + 1.
class SpanTimer {
 public:
  SpanTimer(TraceContext* context, const char* name);
  ~SpanTimer();

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  /// Attaches free-form detail (engine picked, cache verdict, doc name).
  void set_note(std::string note) { span_.note = std::move(note); }
  /// Attributes counter deltas to this stage.
  void set_counters(uint64_t elements, uint64_t page_fetches,
                    uint64_t page_misses, uint64_t io_reads) {
    span_.elements = elements;
    span_.page_fetches = page_fetches;
    span_.page_misses = page_misses;
    span_.io_reads = io_reads;
  }

 private:
  TraceContext* context_;
  TraceSpan span_;
};

/// \brief Bounded, thread-safe ring of the most recent traces.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity) : capacity_(capacity) {}

  void Push(std::shared_ptr<const Trace> trace);
  /// Oldest first.
  std::vector<std::shared_ptr<const Trace>> Recent() const;
  size_t capacity() const { return capacity_; }
  /// Traces pushed over the ring's lifetime (including evicted ones).
  uint64_t total_pushed() const;

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  std::deque<std::shared_ptr<const Trace>> ring_ BLAS_GUARDED_BY(mu_);
  uint64_t pushed_ BLAS_GUARDED_BY(mu_) = 0;
};

}  // namespace obs
}  // namespace blas

#endif  // BLAS_OBS_TRACE_H_
