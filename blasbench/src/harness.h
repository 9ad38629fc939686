// Shared plumbing of the benchmark program: clocks, sample statistics, the
// result report, the closed-loop request generator and small process/file
// helpers. Nothing here knows about a particular workload.

#ifndef BLASBENCH_HARNESS_H_
#define BLASBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace blasbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double MicrosSince(Clock::time_point from) {
  return std::chrono::duration<double, std::micro>(Clock::now() - from)
      .count();
}

inline double MillisSince(Clock::time_point from) {
  return MillisBetween(from, Clock::now());
}

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; sorts a copy.
/// A failed operation is recorded as +infinity, so it lands above every
/// completed one.
double Quantile(std::vector<double> values, double q);

double Median(std::vector<double> values);

/// Arithmetic mean; 0 for no values.
double Mean(const std::vector<double>& values);

/// CPU time the hypervisor gave elsewhere while this machine's CPUs were
/// ready to run ("steal" in /proc/stat), summed over CPUs, in seconds; 0
/// where the kernel does not report it.
double StolenCpuSeconds();

/// Share of this machine's CPU time that was stolen over an interval.
double StealShare(double stolen_s, double wall_s);

/// A sample whose stolen share is at most this counts as quiet.
constexpr double kQuietSteal = 0.03;

/// Indexes of the quiet samples given each one's stolen share: those at
/// most kQuietSteal or, when fewer than a quarter of them are, the
/// quarter with the least steal. On a shared host the hypervisor
/// sometimes runs other guests on this machine's CPUs for tens of
/// seconds; a sample taken meanwhile measures the host, not the program.
std::vector<size_t> QuietIndexes(const std::vector<double>& steal);

/// Measures the stolen share of CPU time from construction to Share().
class StealMeter {
 public:
  StealMeter() : start_(Clock::now()), stolen_(StolenCpuSeconds()) {}
  double Share() const {
    return StealShare(StolenCpuSeconds() - stolen_,
                      std::chrono::duration<double>(Clock::now() - start_)
                          .count());
  }

 private:
  Clock::time_point start_;
  double stolen_;
};

/// Timings of a repeated operation (a set-up, an ingest), each with the
/// stolen share of CPU time while it ran.
struct TimedSamples {
  std::vector<double> values;
  std::vector<double> steal;

  void Add(double value, const StealMeter& meter) {
    values.push_back(value);
    steal.push_back(meter.Share());
  }
  /// The values of the quiet samples (QuietIndexes).
  std::vector<double> Quiet() const;
};

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small corpora and short phases for the self-test.
  bool tiny = false;
  /// Deliberately corrupts one expected answer (self-test of the checks).
  bool corrupt_expected = false;
  /// Scratch directory for snapshot files; removed at exit.
  std::string workdir;
};

/// Collects the run's metrics, operation counts and the first mismatches.
/// Attempt and Fail may be called from any thread.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);

  /// One attempted operation of any kind (query, ingest, scrape).
  void Attempt() { attempted_.fetch_add(1); }
  /// A failed, refused or wrong-answer operation. The first few are
  /// printed to stderr as they happen, and every distinct description
  /// with its count at the end of the run.
  void Fail(const std::string& what);
  void PrintFailureSummary() const;

  double failed_frac() const {
    const uint64_t attempted = attempted_.load();
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed_.load()) /
                                static_cast<double>(attempted);
  }

  /// Prints the one-line JSON result object (the last stdout line).
  void PrintJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex failures_mu_;
  std::map<std::string, uint64_t> failures_;  // guarded by failures_mu_
};

/// Resident set size of this process in MiB (/proc/self/statm).
double ResidentMiB();

/// How a request ended. A wrong answer still completed, so its latency
/// counts as measured; a failed one counts as infinitely slow.
enum class Outcome { kOk, kWrong, kFailed };

/// Latency samples of one phase plus its wall time.
struct PhaseSamples {
  std::vector<double> latency_ms;  // +infinity for failed requests
  std::vector<double> at_s;        // when each sample settled, from start
  std::vector<double> rss_mb;      // resident memory, once a second
  // Stolen CPU seconds since the start (stolen_s), sampled every 100 ms
  // from 0 to wall_s (steal_at_s).
  std::vector<double> steal_at_s;
  std::vector<double> stolen_s;
  uint64_t completed = 0;  // requests that returned an answer
  double wall_s = 0.0;

  double qps() const {
    return wall_s > 0 ? static_cast<double>(completed) / wall_s : 0.0;
  }

  /// Stolen share of CPU time between two times of the phase.
  double StealShareBetween(double from_s, double to_s) const;

  /// Appends another phase as if it had run right after this one: its
  /// settle and steal times move by this phase's wall time.
  void Append(const PhaseSamples& other);
};

/// Query clients of the closed loop (requests outstanding).
constexpr size_t kClients = 4;

/// Scheduled work the main thread runs beside the query clients (the
/// live writer and the metrics scrapes).
class SideWork {
 public:
  virtual ~SideWork() = default;
  /// Sends what is due and settles what finished; returns the time it
  /// next needs the thread.
  virtual Clock::time_point Tick(Clock::time_point now) = 0;
  /// Parks the main thread until `deadline`, waking early when work in
  /// flight settles so that its completion is timed exactly.
  virtual void Wait(Clock::time_point deadline) = 0;
};

/// \brief Closed loop of `depth` outstanding requests.
///
/// Every QueryService caller waits on a future, so the load is `depth`
/// clients that each send their next request as soon as the previous one
/// is ready. Each client blocks on its own future, so a completion is
/// timed when the future becomes ready, and a waiting client costs no
/// CPU. Meanwhile the main thread runs the side work on its schedule.
template <typename Future>
class ClosedLoop {
 public:
  /// Sends request `seq`; returns its future. Called from client threads.
  using SubmitFn = std::function<Future(uint64_t seq)>;
  /// Consumes settled request `seq` and says how it ended. Called from
  /// client threads.
  using SettleFn = std::function<Outcome(uint64_t seq, Future& future)>;

  ClosedLoop(SubmitFn submit, SettleFn settle)
      : submit_(std::move(submit)), settle_(std::move(settle)) {}

  void set_side(SideWork* side) { side_ = side; }

  /// Runs for `seconds` at `depth` outstanding, then waits for the
  /// stragglers. `seq` continues across calls.
  PhaseSamples Run(size_t depth, double seconds);

 private:
  SubmitFn submit_;
  SettleFn settle_;
  SideWork* side_ = nullptr;
  std::atomic<uint64_t> next_seq_{0};
};

template <typename Future>
PhaseSamples ClosedLoop<Future>::Run(size_t depth, double seconds) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point until =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<PhaseSamples> per_client(depth);
  std::vector<Clock::time_point> last_settle(depth, start);
  std::atomic<size_t> running{depth};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < depth; ++c) {
    clients.emplace_back([&, c] {
      PhaseSamples& mine = per_client[c];
      while (Clock::now() < until) {
        const uint64_t seq = next_seq_.fetch_add(1);
        const Clock::time_point sent = Clock::now();
        Future future = submit_(seq);
        future.wait();
        const Clock::time_point done = Clock::now();
        const Outcome outcome = settle_(seq, future);
        mine.at_s.push_back(
            std::chrono::duration<double>(done - start).count());
        if (outcome == Outcome::kFailed) {
          mine.latency_ms.push_back(kInfinity);
        } else {
          mine.latency_ms.push_back(MillisBetween(sent, done));
          ++mine.completed;
        }
        last_settle[c] = done;
      }
      running.fetch_sub(1);
    });
  }
  // The main thread: side work on its schedule and a resident-memory
  // sample each second until every client is done, checking on the
  // clients at least every few milliseconds.
  PhaseSamples out;
  const double stolen_at_start = StolenCpuSeconds();
  Clock::time_point next_rss = start;
  Clock::time_point next_steal = start;
  while (running.load() > 0) {
    const Clock::time_point now = Clock::now();
    if (now >= next_rss) {
      out.rss_mb.push_back(ResidentMiB());
      next_rss += std::chrono::seconds(1);
    }
    if (now >= next_steal) {
      out.steal_at_s.push_back(
          std::chrono::duration<double>(now - start).count());
      out.stolen_s.push_back(StolenCpuSeconds() - stolen_at_start);
      next_steal += std::chrono::milliseconds(100);
    }
    Clock::time_point wake = now + std::chrono::milliseconds(5);
    if (side_ != nullptr) {
      wake = std::min(wake, side_->Tick(now));
      side_->Wait(wake);
    } else {
      std::this_thread::sleep_until(wake);
    }
  }
  for (std::thread& client : clients) client.join();

  Clock::time_point end = start;
  for (size_t c = 0; c < depth; ++c) {
    const PhaseSamples& mine = per_client[c];
    out.latency_ms.insert(out.latency_ms.end(), mine.latency_ms.begin(),
                          mine.latency_ms.end());
    out.at_s.insert(out.at_s.end(), mine.at_s.begin(), mine.at_s.end());
    out.completed += mine.completed;
    end = std::max(end, last_settle[c]);
  }
  out.wall_s = std::chrono::duration<double>(end - start).count();
  while (!out.steal_at_s.empty() && out.steal_at_s.back() >= out.wall_s) {
    out.steal_at_s.pop_back();
    out.stolen_s.pop_back();
  }
  out.steal_at_s.push_back(out.wall_s);
  out.stolen_s.push_back(StolenCpuSeconds() - stolen_at_start);
  return out;
}

/// Returns freed heap to the kernel so RSS reflects live data.
void TrimHeap();

/// Total bytes of regular files under `dir` (recursive).
uint64_t DirectoryBytes(const std::string& dir);

/// One blocking HTTP/1.1 GET over loopback on a fresh connection; returns
/// the response body size, or -1 on any transport or status failure.
long HttpGet(int port, const char* target);

}  // namespace blasbench

#endif  // BLASBENCH_HARNESS_H_
