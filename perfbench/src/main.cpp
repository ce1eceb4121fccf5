// perfbench: the repo's end-to-end and per-layer benchmark.
//
//   perfbench --workload fig2-sweep|trace-replay|serve-mix --seed N
//             --seconds S --trace 0|1 [--perturb] [--state-dir DIR]
//             [--commit ID] [--source-digest HEX]
//
// Prints the host and method, the workload's notes (percentiles with
// their sample counts, span tables in a traced run), and as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones.  --perturb injects a fault the output checks must catch.
// Exit 0 after a completed run (check failures are in the JSON), 1 when
// the run could not complete, 2 on bad arguments.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using perfbench::strf;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig2-sweep|trace-replay|serve-mix --seed N --seconds S "
               "--trace 0|1 [--perturb] [--state-dir DIR] [--commit ID] "
               "[--source-digest HEX]\n",
               why);
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--perturb") {
      options.perturb = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0.0 && options.seconds <= 600.0;
    } else if (arg == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--state-dir") {
      options.state_dir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else if (arg == "--source-digest") {
      source_digest = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds (0 < S <= 600) and --trace 0|1 are "
                 "required");

  perfbench::Report (*run)(const perfbench::Options&) = nullptr;
  if (options.workload == "fig2-sweep") run = perfbench::run_fig2_sweep;
  if (options.workload == "trace-replay") run = perfbench::run_trace_replay;
  if (options.workload == "serve-mix") run = perfbench::run_serve_mix;
  if (run == nullptr) return usage("unknown --workload");

  std::printf(
      "host: nproc=%ld compiler=\"g++ %s\" build_type=%s flags=\"%s\" "
      "commit=%s source_digest=%s\n",
      ::sysconf(_SC_NPROCESSORS_ONLN), __VERSION__, PERFBENCH_BUILD_TYPE,
      PERFBENCH_CXX_FLAGS, commit.c_str(), source_digest.c_str());
  std::printf("method: workload=%s seed=%llu seconds=%g trace=%d perturb=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.perturb ? 1 : 0);
  std::fflush(stdout);

  perfbench::Report report;
  try {
    std::filesystem::create_directories(options.state_dir);
    report = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 1;
  }

  for (const std::string& line : report.notes)
    std::printf("%s\n", line.c_str());
  std::printf("checks: %llu attempted, %llu failed, failed_ratio = %.6f\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted));

  std::string metrics;
  for (const auto& [name, entry] : report.metrics) {
    if (!std::isfinite(entry.first)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      return 1;
    }
    metrics += strf("%s%s: {\"value\": %.17g, \"unit\": %s}",
                    metrics.empty() ? "" : ", ", json_string(name).c_str(),
                    entry.first, json_string(entry.second).c_str());
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
