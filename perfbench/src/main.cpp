// The repository benchmark program.
//
//   perfbench --workload <offline_anl|paper_grid|serve_anl> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints per-pass wall times on stderr and, as the last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. An untraced run
// reports the end-to-end metrics, a traced run the per-layer ones. Any
// failed correctness check exits with status 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <offline_anl|paper_grid|"
               "serve_anl> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      return usage();
    }
  }

  Result result;
  try {
    if (opt.workload == "offline_anl") {
      run_offline_anl(opt, result);
    } else if (opt.workload == "paper_grid") {
      run_paper_grid(opt, result);
    } else if (opt.workload == "serve_anl") {
      run_serve_anl(opt, result);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (opt.trace) {
    result.metric("failed_ratio",
                  static_cast<double>(result.failed()) /
                      static_cast<double>(result.attempted()),
                  "ratio");
  }
  std::printf("%s\n", result.json().c_str());
  return result.passed() ? 0 : 1;
}
