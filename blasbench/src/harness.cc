#include "harness.h"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>

namespace blasbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi]) || lo == hi) return values[hi];
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

double StolenCpuSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  // cpu user nice system idle iowait irq softirq steal
  double fields[8] = {};
  stat >> cpu;
  for (double& f : fields) stat >> f;
  if (!stat || cpu != "cpu") return 0.0;
  return fields[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double StealShare(double stolen_s, double wall_s) {
  const double cpus = std::max(1u, std::thread::hardware_concurrency());
  return wall_s > 0 ? stolen_s / (wall_s * cpus) : 0.0;
}

std::vector<size_t> QuietIndexes(const std::vector<double>& steal) {
  std::vector<size_t> order(steal.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  size_t keep = (steal.size() + 3) / 4;
  while (keep < order.size() && steal[order[keep]] <= kQuietSteal) ++keep;
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<double> TimedSamples::Quiet() const {
  std::vector<double> out;
  for (size_t i : QuietIndexes(steal)) out.push_back(values[i]);
  return out;
}

double PhaseSamples::StealShareBetween(double from_s, double to_s) const {
  // Cumulative stolen seconds at t, interpolated between samples.
  auto stolen_at = [&](double t) {
    if (steal_at_s.empty()) return 0.0;
    auto it = std::upper_bound(steal_at_s.begin(), steal_at_s.end(), t);
    if (it == steal_at_s.begin()) return stolen_s.front();
    if (it == steal_at_s.end()) return stolen_s.back();
    const size_t hi = static_cast<size_t>(it - steal_at_s.begin());
    const double span = steal_at_s[hi] - steal_at_s[hi - 1];
    const double frac = span > 0 ? (t - steal_at_s[hi - 1]) / span : 1.0;
    return stolen_s[hi - 1] + (stolen_s[hi] - stolen_s[hi - 1]) * frac;
  };
  return StealShare(stolen_at(to_s) - stolen_at(from_s), to_s - from_s);
}

void PhaseSamples::Append(const PhaseSamples& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  for (double t : other.at_s) at_s.push_back(wall_s + t);
  rss_mb.insert(rss_mb.end(), other.rss_mb.begin(), other.rss_mb.end());
  const double stolen_before = stolen_s.empty() ? 0.0 : stolen_s.back();
  for (size_t i = 0; i < other.steal_at_s.size(); ++i) {
    const double t = wall_s + other.steal_at_s[i];
    if (!steal_at_s.empty() && t <= steal_at_s.back()) continue;
    steal_at_s.push_back(t);
    stolen_s.push_back(stolen_before + other.stolen_s[i]);
  }
  completed += other.completed;
  wall_s += other.wall_s;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Fail(const std::string& what) {
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(failures_mu_);
  if (++failures_[what] == 1 && failures_.size() <= 5) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void Report::PrintFailureSummary() const {
  std::lock_guard<std::mutex> lock(failures_mu_);
  for (const auto& [what, count] : failures_) {
    std::fprintf(stderr, "failures: %llu x %s\n",
                 static_cast<unsigned long long>(count), what.c_str());
  }
}

void Report::PrintJson() const {
  std::string out = "{\"correct\": ";
  out += failed_.load() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_.load());
  out += ", \"failed\": " + std::to_string(failed_.load());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    // JSON has no infinity: an infinitely slow (failed) percentile prints
    // as 1e12, far above any real reading.
    double v = std::isfinite(m.value) ? m.value : 1e12;
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double ResidentMiB() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void TrimHeap() { ::malloc_trim(0); }

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

long HttpGet(int port, const char* target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  long result = -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string request = std::string("GET ") + target +
                                " HTTP/1.1\r\nHost: bench\r\n"
                                "Connection: close\r\n\r\n";
    size_t off = 0;
    while (off < request.size()) {
      const ssize_t n = ::send(fd, request.data() + off, request.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    std::string response;
    char chunk[16384];
    if (off == request.size()) {
      for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) break;
        response.append(chunk, static_cast<size_t>(n));
      }
    }
    const size_t head_end = response.find("\r\n\r\n");
    if (response.rfind("HTTP/1.1 200", 0) == 0 &&
        head_end != std::string::npos) {
      result = static_cast<long>(response.size() - head_end - 4);
    }
  }
  ::close(fd);
  return result;
}

}  // namespace blasbench
