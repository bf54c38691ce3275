// perfbench: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out trace.json]
//
// Run from the checkout root (it reads perfbench/workloads.json). The last
// line of stdout is the result object: {"correct", "attempted", "failed",
// "metrics"}; with --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones. Exits 1 when an output check failed.
#include <malloc.h>
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = static_cast<uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  signal(SIGPIPE, SIG_IGN);  // a served-extract peer may close first
  // Large blocks come from the heap and freed memory stays mapped: whether
  // glibc serves a block by mmap (with fresh page faults on every reuse)
  // otherwise depends on the allocation history, which made a run's
  // latency and peak RSS bimodal.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  const perfbench::Config cfg = perfbench::LoadConfig(args.workload);
  perfbench::Result result;
  if (args.workload == "log-extract") {
    result = perfbench::RunLogExtract(cfg, args);
  } else if (args.workload == "fleet-scan") {
    result = perfbench::RunFleetScan(cfg, args);
  } else if (args.workload == "needle-store") {
    result = perfbench::RunNeedleStore(cfg, args);
  } else if (args.workload == "served-extract") {
    result = perfbench::RunServedExtract(cfg, args);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  std::printf("%s\n", result.ToJson().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
