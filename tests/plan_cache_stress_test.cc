// Stress test for the PlanCache / FromCache / ExtractMulti triangle under
// concurrent mutation: while extraction threads repeatedly build and serve
// the cache-resident fleet, mutator threads insert fresh patterns (and
// force LRU evictions). Every fleet built from a snapshot of the racing
// cache must be byte-identical to a fleet built fresh over the same
// plans. Run under TSan in CI: the interleavings are the test.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "workload/generators.h"

namespace spanners {
namespace engine {
namespace {

/// Renders one fleet extraction over `corpus` to the exact wire bytes
/// (fleet TSV header block + query-column rows, doc-major/plan-minor).
std::string FleetOutput(const MultiQueryExtractor& fleet,
                        const Corpus& corpus, BatchExtractor& batch) {
  std::string out;
  std::vector<const VarSet*> vars_per_plan;
  vars_per_plan.reserve(fleet.num_plans());
  for (size_t p = 0; p < fleet.num_plans(); ++p)
    vars_per_plan.push_back(&fleet.plan(p).vars());
  out += FleetTsvHeader(vars_per_plan);
  MultiBatchResult result = batch.ExtractMulti(fleet, corpus);
  for (size_t i = 0; i < corpus.size(); ++i)
    for (size_t p = 0; p < result.per_plan.size(); ++p)
      for (const Mapping& m : result.per_plan[p].per_doc[i])
        AppendFleetMappingRow(&out, OutputFormat::kTsv, p, i, m,
                              fleet.plan(p).vars(), corpus[i]);
  return out;
}

// Extractors build fleets from the cache while mutators churn it. For
// every fleet served, a fresh fleet over the SAME plans must produce
// identical bytes.
TEST(PlanCacheStressTest, ConcurrentMutationKeepsServedFleetsByteIdentical) {
  workload::FleetOptions o;
  o.num_patterns = 6;
  o.documents = 60;
  o.doc_bytes = 240;
  o.match_rate = 0.2;
  workload::PatternFleet generated = workload::MakePatternFleet(o);
  const Corpus corpus(std::move(generated.documents));

  PlanCacheOptions cache_options;
  cache_options.capacity = 8;  // small: mutators force real evictions
  PlanCache cache(cache_options);
  for (const std::string& p : generated.patterns)
    ASSERT_TRUE(cache.GetOrCompile(p).ok());

  constexpr int kExtractors = 3;
  constexpr int kMutators = 2;
  constexpr int kRoundsPerExtractor = 12;
  constexpr int kInsertsPerMutator = 24;

  std::atomic<bool> start{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> served{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kExtractors; ++t) {
    threads.emplace_back([&] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      BatchOptions batch_options;
      batch_options.num_threads = 2;
      BatchExtractor batch(batch_options);
      BatchExtractor fresh_batch(batch_options);
      for (int round = 0; round < kRoundsPerExtractor; ++round) {
        // The fleet under test: the cache's residents at this instant
        // (mutators are racing the snapshot).
        const MultiQueryExtractor fleet =
            MultiQueryExtractor::FromCache(cache);
        const std::string served_out = FleetOutput(fleet, corpus, batch);
        // The reference: a brand-new fleet over the snapshot's own plans
        // (NOT the cache's current residents — those may have moved on).
        std::vector<std::shared_ptr<const ExtractionPlan>> same_plans;
        for (size_t p = 0; p < fleet.num_plans(); ++p)
          same_plans.push_back(fleet.plan_ptr(p));
        MultiQueryExtractor fresh(std::move(same_plans));
        const std::string fresh_out =
            FleetOutput(fresh, corpus, fresh_batch);
        if (served_out != fresh_out) mismatches.fetch_add(1);
        served.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kMutators; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kInsertsPerMutator; ++i) {
        // Unique per (mutator, round): every insert changes the cache's
        // residents and, over capacity, evicts the LRU one.
        const std::string pattern = ".*m" + std::to_string(t) + "_" +
                                    std::to_string(i) + " v{[0-9]+}.*";
        ASSERT_TRUE(cache.GetOrCompile(pattern).ok());
        std::this_thread::yield();
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(served.load(), kExtractors * kRoundsPerExtractor);
}

}  // namespace
}  // namespace engine
}  // namespace spanners
