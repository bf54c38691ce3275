#include "engine/plan_cache.h"

#include <algorithm>
#include <mutex>
#include <utility>

namespace spanners {
namespace engine {

PlanCache::PlanCache(PlanCacheOptions options)
    : capacity_(options.capacity == 0 ? 1 : options.capacity) {}

Result<std::shared_ptr<const ExtractionPlan>> PlanCache::GetOrCompile(
    std::string_view pattern) {
  // Keys beginning with ')' are reserved for non-pattern entries
  // (query::QueryPlanCacheKey relies on no valid RGX starting with an
  // unmatched close). Bypass the cache entirely for such input so a
  // malformed pattern can never be served a query-keyed plan.
  if (!pattern.empty() && pattern.front() == ')') {
    misses_.fetch_add(1, std::memory_order_relaxed);
    Result<ExtractionPlan> compiled = ExtractionPlan::Compile(pattern);
    if (!compiled.ok()) return compiled.status();
    return std::make_shared<const ExtractionPlan>(std::move(compiled).value());
  }
  return GetOrInsert(pattern,
                     [pattern] { return ExtractionPlan::Compile(pattern); });
}

Result<std::shared_ptr<const ExtractionPlan>> PlanCache::GetOrInsert(
    std::string_view key_view, const PlanFactory& factory) {
  std::string key(key_view);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.last_used.store(NextTick(), std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.plan;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);

  // Compile outside any lock: compilation can be expensive and must not
  // serialize readers of other patterns.
  Result<ExtractionPlan> compiled = factory();
  if (!compiled.ok()) return compiled.status();
  auto plan = std::make_shared<const ExtractionPlan>(
      std::move(compiled).value());

  std::unique_lock<std::shared_mutex> lock(mu_);
  // A racing thread may have inserted the same pattern meanwhile; keep the
  // incumbent so every caller shares one plan (and one stats stream).
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.last_used.store(NextTick(), std::memory_order_relaxed);
    return it->second.plan;
  }
  auto [ins, _] = entries_.emplace(
      std::piecewise_construct, std::forward_as_tuple(std::move(key)),
      std::forward_as_tuple(plan, NextTick()));
  EvictIfOverCapacity();
  return ins->second.plan;
}

std::shared_ptr<const ExtractionPlan> PlanCache::Peek(
    std::string_view key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(std::string(key));
  return it == entries_.end() ? nullptr : it->second.plan;
}

std::vector<std::pair<std::string, std::shared_ptr<const ExtractionPlan>>>
PlanCache::ResidentPlans() const {
  std::vector<std::pair<std::string, std::shared_ptr<const ExtractionPlan>>>
      out;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    out.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) out.emplace_back(key, entry.plan);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void PlanCache::EvictIfOverCapacity() {
  while (entries_.size() > capacity_) {
    auto lru = entries_.end();
    uint64_t oldest = ~uint64_t{0};
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      uint64_t t = it->second.last_used.load(std::memory_order_relaxed);
      if (t <= oldest) {
        oldest = t;
        lru = it;
      }
    }
    entries_.erase(lru);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(mu_);
  s.size = entries_.size();
  return s;
}

void PlanCache::Clear() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  entries_.clear();
}

}  // namespace engine
}  // namespace spanners
