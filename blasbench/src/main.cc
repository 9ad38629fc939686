// blasbench: the repository's benchmark program. One run measures one
// workload for a fixed time and prints, as its last stdout line, one JSON
// object with the correctness verdict, the operation counts and every
// metric by name and unit: the end-to-end metrics with --trace 0, the
// per-layer ledger with --trace 1.
//
//   blasbench --workload <xmark_hot|paged_browse|live_churn> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//             [--tiny] [--corrupt-expected]

#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: blasbench --workload <xmark_hot|paged_browse|"
               "live_churn> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir> [--tiny] [--corrupt-expected]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  blasbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--workdir" && has_value) {
      config.workdir = argv[++i];
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--corrupt-expected") {
      config.corrupt_expected = true;
    } else {
      return Usage();
    }
  }
  if (config.workdir.empty() || config.seconds <= 0) return Usage();

  using RunFn = void (*)(const blasbench::RunConfig&, blasbench::Report*);
  RunFn run = nullptr;
  if (config.workload == "xmark_hot") run = blasbench::RunXmarkHot;
  if (config.workload == "paged_browse") run = blasbench::RunPagedBrowse;
  if (config.workload == "live_churn") run = blasbench::RunLiveChurn;
  if (run == nullptr) return Usage();

  // The main thread keeps the writer's schedule with timed waits; the
  // kernel's default 50 us timer slack would make every send late by up
  // to that.
  // Threads started later inherit the setting.
  ::prctl(PR_SET_TIMERSLACK, 1UL);

  std::error_code ec;
  std::filesystem::create_directories(config.workdir, ec);
  blasbench::Report report;
  int code = 0;
  try {
    run(config, &report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "blasbench: %s\n", e.what());
    code = 1;
  }
  std::filesystem::remove_all(config.workdir, ec);
  report.PrintFailureSummary();
  if (code == 0) report.PrintJson();
  return code;
}
