// MultiQueryExtractor: runs a whole fleet of resident plans over a corpus
// with ONE document scan gating all of them. A spanner service keeps many
// compiled plans cached (PlanCache) and sees the same corpus under every
// one of them; running the plans sequentially costs one prefilter
// memmem/DFA pass per plan per document. This tier instead compiles every
// plan's MOST SELECTIVE required-literal clause (clauses()[0] — the
// longest-minimum-literal one; selective literals are also the rare ones,
// so the combined automaton leaves its root state rarely and the scan
// fast-forwards with memchr) into one shared Aho–Corasick automaton and,
// per document:
//
//      document text
//           │  one shared AC pass (every plan's strongest clause at once)
//           ▼
//   plan bitset ──► plan p's clause satisfied?      ──no──► skip p
//           │ yes
//           ▼
//   plan p's full prefilter (remaining clauses)     ──rejects──► skip p
//           │ passes
//           ▼
//   plan p's lazy-DFA membership gate               ──rejects──► skip p
//           │ passes
//           ▼
//   plan p's evaluator (run enumeration / Thm 5.7 / Thm 5.10)
//
// Only plans that survive every tier reach an evaluator, so the dominant
// cost on a low-selectivity fleet — scanning the 99% of documents that
// match nothing — is paid once per document instead of once per plan per
// document. After the shared pass the extractor visits only the survivors
// (a bit-scan of the pass's plan bitset plus the ungated plans) and counts
// the document once for the whole fleet, so a rejected (plan, document)
// pair costs nothing beyond its share of the scan. Results are
// byte-identical to running each plan alone (each tier is sound: the
// shared pass computes exactly the plan's own strongest-clause
// satisfaction, and survivors re-run their complete prefilter), delivered
// per plan in deterministic corpus order.
//
// Thread safety: the extractor is immutable after construction apart from
// monotonic counters; one instance is shared by every worker of a
// BatchExtractor::ExtractMulti call.
#ifndef SPANNERS_ENGINE_MULTI_QUERY_H_
#define SPANNERS_ENGINE_MULTI_QUERY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/aho_corasick.h"
#include "core/document.h"
#include "core/mapping.h"
#include "engine/plan.h"
#include "engine/plan_cache.h"

namespace spanners {
namespace engine {

class MultiQueryExtractor {
 public:
  /// Builds the shared gate over `plans` (typically PlanCache residents).
  /// Plan order is preserved and defines the output order of ExtractMulti.
  explicit MultiQueryExtractor(
      std::vector<std::shared_ptr<const ExtractionPlan>> plans);

  /// Convenience: every plan resident in `cache`, in deterministic
  /// (key-sorted) order.
  static MultiQueryExtractor FromCache(const PlanCache& cache);

  size_t num_plans() const { return plans_.size(); }
  const ExtractionPlan& plan(size_t i) const { return *plans_[i]; }
  const std::shared_ptr<const ExtractionPlan>& plan_ptr(size_t i) const {
    return plans_[i];
  }

  /// Turns the shared AC + per-plan lazy-DFA gate off: every plan's
  /// evaluator runs on every document (differential testing). Set before
  /// sharing across threads.
  void set_gating_enabled(bool on) { gating_enabled_ = on; }
  bool gating_enabled() const { return gating_enabled_; }

  /// Extracts one document under every plan: out[p] is filled (cleared
  /// first, previous mappings recycled through the scratch pool) with the
  /// sorted ⟦γ_p⟧_doc — byte-identical to plans_[p]->ExtractSortedInto.
  /// `out` must hold num_plans() slots. One scratch per worker thread;
  /// its multi_clause_bits vector is the AC pass's satisfied-clause set.
  /// Counts the document in the fleet's shared total itself.
  void ExtractAllSortedInto(const Document& doc, PlanScratch* scratch,
                            std::vector<Mapping>** out) const;

  /// Aggregated counters of plan `i` across every document offered to the
  /// fleet: prefilter_skipped counts the plan's own remaining-clause
  /// rejections, dfa_skipped its lazy-DFA rejections, and documents every
  /// document offered. For a plan the shared pass gates, ac_gate_skipped
  /// is derived — the fleet's document count less the documents that
  /// reached the plan's own tiers — so it is exact whenever no call is in
  /// flight; it is 0 for an ungated plan and while gating is off.
  PlanStats plan_stats(size_t i) const;

  /// Total distinct gate literals across the fleet (0 = no shared gate;
  /// every plan falls through to its DFA tier).
  size_t num_gate_literals() const { return gate_literals_; }
  /// Plans with at least one prefilter clause (gateable by the AC pass).
  size_t num_gated_plans() const { return gated_plans_; }

  /// e.g. "multi-query: 32 plans (32 literal-gated), aho-corasick: …".
  std::string ToString() const;

 private:
  // BatchExtractor extracts each document into its thread's scratch
  // slots, which stay empty between documents (it moves a document's
  // non-empty ones into the shard's hits), so it takes the survivor path
  // with no sweep; and it counts a shard's documents in one write.
  friend class BatchExtractor;

  // The survivor path behind ExtractAllSortedInto. It takes one slot per
  // plan, *slots[p]; every slot must be empty on entry, and only the plans
  // that reach an evaluator write theirs. Adds each such plan's mapping
  // count to plan_mappings[p] when that is non-null, adds 1 to *counted
  // once the shared pass completes (the caller publishes the total with
  // CountDocuments), and returns the document's mappings summed over
  // every plan.
  uint64_t ExtractSurvivorsInto(const Document& doc, PlanScratch* scratch,
                                std::vector<Mapping>* const* slots,
                                uint64_t* plan_mappings,
                                uint64_t* counted) const;
  // Adds `n` documents to the shared count.
  void CountDocuments(uint64_t n) const {
    if (n > 0) documents_->fetch_add(n, std::memory_order_relaxed);
  }

  // Cost model: a document costs the shared scan and a bit-scan of one
  // word per 64 plans, and a shard one relaxed atomic (`documents_`); only
  // the survivors of the shared pass touch these per-plan counters. The
  // shared pass's rejections are never written anywhere: plan_stats()
  // derives them from `documents_`.
  struct PlanCounters {
    std::atomic<uint64_t> extracted{0};
    std::atomic<uint64_t> mappings{0};
    std::atomic<uint64_t> prefilter_skipped{0};
    std::atomic<uint64_t> dfa_skipped{0};
  };

  std::vector<std::shared_ptr<const ExtractionPlan>> plans_;
  // Bit p is set when plan p has no prefilter clause: the shared pass
  // cannot reject it, so it joins the pass's survivors on every document.
  // For a gated plan, bit p of the scratch bitset records its strongest
  // clause's satisfaction.
  std::vector<uint64_t> ungated_mask_;
  /// Plans whose full prefilter holds clauses beyond the gated one (the
  /// survivors' remaining-clause tier can be skipped otherwise).
  std::vector<uint8_t> plan_has_more_clauses_;
  // The combined automaton over every plan's strongest clause; pattern
  // id → the plan bits it satisfies (CSR: pattern_plan_offsets_ has
  // num patterns + 1 entries into pattern_plan_ids_).
  std::unique_ptr<const AhoCorasick> ac_;
  std::vector<uint32_t> pattern_plan_offsets_;
  std::vector<uint32_t> pattern_plan_ids_;
  size_t gate_literals_ = 0;
  size_t gated_plans_ = 0;
  bool gating_enabled_ = true;
  // unique_ptr keeps the extractor movable despite the atomics.
  std::unique_ptr<PlanCounters[]> counters_;
  // Documents offered to the fleet whose shared pass completed, published
  // once per batch shard (and per ExtractAllSortedInto call).
  std::unique_ptr<std::atomic<uint64_t>> documents_;
};

}  // namespace engine
}  // namespace spanners

#endif  // SPANNERS_ENGINE_MULTI_QUERY_H_
