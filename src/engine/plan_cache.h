// PlanCache: pattern text → shared compiled ExtractionPlan, so a pattern
// seen twice (the common case under repeated query traffic) compiles once.
// Reads take a shared lock and only bump an atomic recency tick; inserts
// take the exclusive lock and evict the least-recently-used entry when
// over capacity. Returned plans are shared_ptr<const ...>: eviction never
// invalidates a plan a caller still holds.
#ifndef SPANNERS_ENGINE_PLAN_CACHE_H_
#define SPANNERS_ENGINE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/plan.h"

namespace spanners {
namespace engine {

struct PlanCacheOptions {
  /// Maximum resident plans; at least 1.
  size_t capacity = 128;
};

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;       // includes failed compiles
  uint64_t evictions = 0;
  size_t size = 0;           // resident plans
};

class PlanCache {
 public:
  explicit PlanCache(PlanCacheOptions options = {});

  /// Builds the plan for a cache key on miss. Runs outside the cache lock.
  using PlanFactory = std::function<Result<ExtractionPlan>()>;

  /// The cached plan for `pattern`, compiling and inserting on miss.
  /// Compile errors are returned and NOT cached (a later identical query
  /// re-attempts; error paths are rare and cheap to retry).
  Result<std::shared_ptr<const ExtractionPlan>> GetOrCompile(
      std::string_view pattern);

  /// The cached plan for an arbitrary `key`, calling `factory` on miss.
  /// This is how non-pattern representations (rule programs, compiled
  /// algebra subtrees — src/query/) share the cache: each canonical
  /// expression text is one key, so a query seen twice compiles once.
  Result<std::shared_ptr<const ExtractionPlan>> GetOrInsert(
      std::string_view key, const PlanFactory& factory);

  /// Lookup without compiling; nullptr on miss. Does not count toward
  /// hit/miss statistics. `key` is the raw cache key, whichever namespace
  /// it lives in — a pattern as passed to GetOrCompile, or a reserved
  /// (')'-prefixed) key as passed to GetOrInsert by the query layer —
  /// unlike GetOrCompile, Peek performs no namespace guarding.
  std::shared_ptr<const ExtractionPlan> Peek(std::string_view key) const;

  /// Snapshot of every resident plan with its cache key, sorted by key so
  /// the order is deterministic regardless of hash layout. This is how
  /// the multi-query tier (engine::MultiQueryExtractor::FromCache) gathers
  /// the resident fleet to build one shared gate over. Does not touch
  /// recency or hit/miss statistics.
  std::vector<std::pair<std::string, std::shared_ptr<const ExtractionPlan>>>
  ResidentPlans() const;

  PlanCacheStats stats() const;

  /// Drops every resident plan (outstanding shared_ptrs stay valid).
  void Clear();

 private:
  struct Entry {
    std::shared_ptr<const ExtractionPlan> plan;
    /// Recency tick; updated under the shared lock, hence atomic.
    std::atomic<uint64_t> last_used{0};

    Entry() = default;
    Entry(std::shared_ptr<const ExtractionPlan> p, uint64_t tick)
        : plan(std::move(p)), last_used(tick) {}
  };

  uint64_t NextTick() const {
    return tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Precondition: exclusive lock held.
  void EvictIfOverCapacity();

  const size_t capacity_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  mutable std::atomic<uint64_t> tick_{0};
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace engine
}  // namespace spanners

#endif  // SPANNERS_ENGINE_PLAN_CACHE_H_
