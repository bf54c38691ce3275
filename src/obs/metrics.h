// Engine telemetry: a process-wide registry of named counters and
// power-of-two-bucket histograms built for hot-path recording.
//
// Cost model. Every metric is sharded into kCells cache-line-aligned
// cells; a thread picks its cell once (thread_local index) and then a
// recording is a single relaxed fetch_add with no cross-core contention
// in the common case. Snapshot() merges the cells, so reads are exact but
// pay the full walk — the hot path never does. Recording is gated on a
// single global flag (obs::Enabled(), one relaxed load): the engine ships
// with telemetry OFF and turns it on per run (`spanex --metrics`,
// benchmarks, the spanexd stats endpoint).
//
// Naming convention: dot-separated, coarse-to-fine —
//   engine.*      whole-document time, per-request arena peaks
//   tier.*_ns     per-tier time histograms (one Record per document that
//                 entered the tier)
//   lazy_dfa.*    transition-cache lock waits
//   query.*_ns    relational-operator time histograms
//   server.*      request, queue-wait and queue-depth histograms
//   index.*       lookup time, build volume
//   mem.*         allocation accounting
// The registry holds histograms plus the counts no object owns
// (fault.fired, client.retries, mem.heap_allocs, index.build_*). A count
// an object owns has its one record there: PlanStats, the fleet's
// plan_stats, LazyDfaStats, PlanCacheStats, IndexedStats, the server's
// StatsSnapshot. The catalogue lives in README.md ("Observability").
#ifndef SPANNERS_OBS_METRICS_H_
#define SPANNERS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spanners {
namespace obs {

namespace internal {

/// One cache line per cell: concurrent writers on different cells never
/// share a line, so the hot-path fetch_add stays core-local.
inline constexpr size_t kCacheLine = 64;
/// Cells per metric. Threads hash onto cells round-robin; more threads
/// than cells just share (still correct, relaxed adds commute).
inline constexpr size_t kCells = 16;

/// This thread's cell index, assigned round-robin at first use.
uint32_t ThreadCellIndex();

extern std::atomic<bool> g_enabled;
/// Heap allocations observed via CountHeapAlloc (surfaced in snapshots as
/// the "mem.heap_allocs" counter). Constant-initialized so operator-new
/// overrides may bump it before any static constructor runs.
extern std::atomic<uint64_t> g_heap_allocs;

}  // namespace internal

/// Whether instrumentation sites record anything. Default off.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
inline void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

/// Allocation accounting hook for operator-new overrides (benchmarks link
/// one in). Unconditional — the counter is how the override reports, not
/// an instrumentation site — and cheap enough to be always-on there.
inline void CountHeapAlloc() {
  internal::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
}
inline uint64_t HeapAllocCount() {
  return internal::g_heap_allocs.load(std::memory_order_relaxed);
}

/// Monotonic counter, sharded per thread. Add is one relaxed fetch_add on
/// this thread's cell; Load sums the cells (exact: relaxed adds to
/// independent atomics lose nothing, the sum is merely not a point-in-time
/// cut — fine for monotonic counters).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    cells_[internal::ThreadCellIndex()].v.fetch_add(n,
                                                    std::memory_order_relaxed);
  }

  uint64_t Load() const {
    uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

  void Reset() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(internal::kCacheLine) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[internal::kCells];
};

/// Merged view of one histogram. Buckets are powers of two: bucket 0
/// holds value 0, bucket i ≥ 1 holds values in [2^(i-1), 2^i).
struct HistogramSnapshot {
  std::string name;
  std::string unit;  // "ns", "bytes", ...
  uint64_t count = 0;
  uint64_t sum = 0;
  /// Non-empty buckets only: (bucket index, count), ascending.
  std::vector<std::pair<uint32_t, uint64_t>> buckets;

  double Mean() const { return count == 0 ? 0.0 : double(sum) / count; }
  /// Upper bound (2^i - 1) of the bucket holding the p-th percentile
  /// (p in [0,1]); 0 on an empty histogram. Bucket-resolution estimate.
  uint64_t Percentile(double p) const;
};

/// Fixed-bucket (power-of-two) histogram, sharded like Counter: Record is
/// two relaxed fetch_adds (bucket + sum) on this thread's cell.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  static uint32_t BucketOf(uint64_t value) {
    // value 0 → 0; otherwise 64 - clz(value) (1→1, [2,4)→2, [4,8)→3 …),
    // clamped so the top bucket absorbs values ≥ 2^62.
    if (value == 0) return 0;
    const uint32_t b = static_cast<uint32_t>(64 - __builtin_clzll(value));
    return b < kBuckets ? b : kBuckets - 1;
  }

  void Record(uint64_t value) {
    Cell& c = cells_[internal::ThreadCellIndex()];
    c.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    c.sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// Merged across cells; `name`/`unit` are filled by the registry.
  HistogramSnapshot Snapshot() const;
  uint64_t Count() const;
  uint64_t Sum() const;
  void Reset();

 private:
  struct alignas(internal::kCacheLine) Cell {
    std::atomic<uint64_t> buckets[kBuckets] = {};
    std::atomic<uint64_t> sum{0};
  };
  Cell cells_[internal::kCells];
};

/// Point-in-time merged view of every registered metric, name-sorted
/// (std::map order) so output is deterministic.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<HistogramSnapshot> histograms;

  /// Human-readable table (one metric per line).
  std::string ToString() const;
  /// {"counters":{...},"histograms":{name:{unit,count,sum,p50,p99,
  /// buckets:[[i,n],...]},...}}
  std::string ToJson() const;
};

/// Name → metric. Registration (GetCounter/GetHistogram) takes a mutex
/// and is meant to happen once per site (cache the returned pointer — it
/// is stable for the registry's lifetime); recording never touches the
/// registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every engine instrumentation site uses.
  static MetricsRegistry& Global();

  /// The counter/histogram registered under `name`, creating it on first
  /// use. A histogram's unit is fixed by the first registration.
  Counter* GetCounter(std::string_view name);
  Histogram* GetHistogram(std::string_view name, std::string_view unit = "ns");

  /// Merged view of everything registered (plus "mem.heap_allocs" for the
  /// Global() registry).
  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (pointers stay valid). For tests and
  /// fresh measurement windows.
  void Reset();

 private:
  struct HistogramEntry {
    std::unique_ptr<Histogram> histogram;
    std::string unit;
  };

  mutable std::mutex mu_;
  // std::map: stable pointers, deterministic (sorted) snapshot order.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, HistogramEntry, std::less<>> histograms_;
};

}  // namespace obs
}  // namespace spanners

#endif  // SPANNERS_OBS_METRICS_H_
