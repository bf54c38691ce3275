// Shared machinery of the perfbench driver: run arguments, the workload
// configuration (perfbench/workloads.json), the result line, statistics,
// CPU placement, and the span recorder with its layer ledger.
//
// The benchmark measures the library from outside: every span wraps one
// of the benchmark's own calls into a module's public functions, so the
// library is built exactly as users build it.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/document.h"
#include "engine/corpus.h"
#include "server/json.h"

namespace perfbench {

using spanners::Document;
using spanners::engine::Corpus;
using spanners::server::JsonValue;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Args {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace path of a traced run
};

/// One workload's entry of workloads.json plus the file's global knobs.
struct Config {
  JsonValue root;
  const JsonValue* workload = nullptr;

  double Num(std::string_view key) const;
  size_t Size(std::string_view key) const {
    return static_cast<size_t>(Num(key));
  }
  std::vector<double> NumList(std::string_view key) const;
  double Global(std::string_view key) const;
};

/// Loads perfbench/workloads.json (relative to the checkout root) and
/// selects `workload`; exits with a message when either is missing.
Config LoadConfig(const std::string& workload);

/// The result line: metrics in the order added, each with its unit.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Records a failed output check (stderr + correct=false + failed++).
  void Fail(const std::string& what);
  std::string ToJson() const;
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Median seconds of `repeats` timed runs of `setup`, each rebuilding the
/// workload's state from nothing after an untimed `teardown` of the last.
template <typename Teardown, typename Setup>
double MedianSetupSeconds(size_t repeats, Teardown&& teardown,
                          Setup&& setup) {
  std::vector<double> t;
  for (size_t i = 0; i < repeats; ++i) {
    teardown();
    const uint64_t t0 = NowNs();
    setup();
    t.push_back((NowNs() - t0) / 1e9);
  }
  return Median(t);
}

/// Closed-loop timing of back-to-back calls: one caller issues call
/// b = 0 .. num_calls-1 (one pass), then starts over, until `seconds`
/// have elapsed at a pass boundary and at least `min_passes` passes ran.
struct ClosedLoop {
  std::vector<double> call_us;          // every call's latency
  std::vector<double> pass_s;           // every pass's wall time
  std::vector<double> gap_us;           // caller time between calls
};

template <typename Call>
ClosedLoop RunClosedLoop(size_t num_calls, double seconds, size_t min_passes,
                         Call&& call) {
  ClosedLoop loop;
  const uint64_t start = NowNs();
  uint64_t prev_end = 0;
  while (loop.pass_s.size() < min_passes ||
         (NowNs() - start) / 1e9 < seconds) {
    const uint64_t pass_start = NowNs();
    for (size_t b = 0; b < num_calls; ++b) {
      const uint64_t t0 = NowNs();
      if (prev_end != 0) loop.gap_us.push_back((t0 - prev_end) / 1e3);
      call(b);
      prev_end = NowNs();
      loop.call_us.push_back((prev_end - t0) / 1e3);
    }
    loop.pass_s.push_back((NowNs() - pass_start) / 1e9);
  }
  return loop;
}

/// Peak resident set of this process so far (VmHWM), MiB.
double PeakRssMb();

/// The CPUs a workload runs on: the last `count` CPUs this process may use.
/// On a VM whose idle vCPUs halt, waking a thread on a halted vCPU costs
/// ~50 µs at the median and milliseconds in the tail, which would swamp
/// what the benchmark measures. So each chosen CPU gets a spinning
/// SCHED_IDLE keeper thread that holds it out of the idle state; any
/// runnable benchmark or library thread preempts its keeper at once.
class CpuSet {
 public:
  /// Without `keepers`, the caller keeps the CPUs busy itself.
  explicit CpuSet(size_t count, bool keepers = true);
  ~CpuSet();
  CpuSet(const CpuSet&) = delete;
  CpuSet& operator=(const CpuSet&) = delete;

  size_t size() const { return cpus_.size(); }
  /// Restricts the calling thread, and every thread it starts afterwards,
  /// to CPU `index` of the set, or to the whole set when index < 0.
  void Pin(int index = -1) const;

 private:
  std::vector<int> cpus_;
  std::vector<std::thread> keepers_;
  std::atomic<bool> stop_{false};
};

/// The end-to-end metrics of an untraced run, in BENCHMARK.json order.
/// `latencies_us` are the per-request times behind req_p50_us. The tail is
/// printed with every run and reported per layer (bench.req_p90_us,
/// bench.req_p99_us) but not gated: on a 4-vCPU Firecracker VM the host
/// stalled a busy vCPU for 0.1-10 ms dozens of times a second, how often
/// drifted from minute to minute, and over ten runs p99 spread 0.17-2.97
/// of its median and the served p90 0.24-0.36, beyond the largest bound
/// (0.25) a metric may have.
struct EndToEnd {
  double docs_per_s = 0;
  std::vector<double> latencies_us;
  double max_qps = 0;
  double setup_s = 0;
  double peak_rss_mb = PeakRssMb();  // take it before any overload probe
  double bytes_per_input_byte = 0;

  void AddTo(Result* result) const;
};

/// Writes `corpus` as NUL-delimited text (the stored form the batch
/// workloads load with Corpus::FromFile) and returns its byte size.
uint64_t WriteDelimited(const std::vector<Document>& docs,
                        const std::string& path);

/// Loads a NUL-delimited corpus; exits on failure.
Corpus LoadDelimited(const std::string& path);

/// Scratch directory of this run inside the checkout
/// (.bench_build/run-<pid>), created on first use and removed at exit.
const std::string& RunDir();

/// 64-bit FNV-1a, continued from `h` (the row-hash sink).
uint64_t Fnv1a(std::string_view s, uint64_t h = 1469598103934665603ull);

// ---- spans and the layer ledger ----------------------------------------

/// Single-threaded span recorder. Spans stay in memory; the ledger and the
/// Chrome trace are computed from them after the traced phase.
///
/// Two kinds of span are "excluded": their own wall time leaves the
/// ledger's wall.
///  - A replay re-times work that already ran inside its parent (e.g. a
///    surviving plan's evaluation inside
///    MultiQueryExtractor::ExtractAllSortedInto, re-run through
///    ExtractSortedPregatedInto). It is charged to its own layer and
///    taken out of the parent's self time.
///  - A probe (name kProbe, directly under a root) is the benchmark's own
///    bookkeeping, such as reading per-plan counters. It is charged to no
///    layer.
inline constexpr char kProbe[] = "bench.probe";

class SpanRecorder {
 public:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int32_t parent;  // -1 for a root
    int32_t root;
    uint64_t id;     // document, query or request id
    bool excluded;
  };

  explicit SpanRecorder(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Opens a span under the innermost open span; returns its index.
  int32_t Open(const char* name, uint64_t id);
  void Close(int32_t span);
  /// A completed span under `parent` with explicit times.
  void Add(const char* name, uint64_t start_ns, uint64_t end_ns,
           int32_t parent, uint64_t id, bool excluded);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes at most `max_events` spans as a Chrome trace_event array.
  bool WriteChromeTrace(const std::string& path, size_t max_events) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op when the recorder is off.
class Scope {
 public:
  Scope(SpanRecorder& rec, const char* name, uint64_t id)
      : rec_(rec), span_(rec.on() ? rec.Open(name, id) : -1) {}
  ~Scope() {
    if (span_ >= 0) rec_.Close(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int32_t span() const { return span_; }

 private:
  SpanRecorder& rec_;
  int32_t span_;
};

/// Self time per layer over every root span, reconciled to wall.
struct Ledger {
  double wall_ns = 0;  // Σ root durations − Σ excluded durations
  std::map<std::string, double> self_ns;  // layer → self time
  double unattributed_ns = 0;             // self time of the roots

  double Share(const std::string& layer) const;
  double UnattributedRatio() const {
    return wall_ns > 0 ? unattributed_ns / wall_ns : 0;
  }
  /// "layer share% ..." for stderr.
  std::string ToString() const;
};

Ledger ComputeLedger(const SpanRecorder& rec);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
