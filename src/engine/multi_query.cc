#include "engine/multi_query.h"

#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/span.h"

namespace spanners {
namespace engine {

namespace {

// The shared pass's own time; tiers 2 and 3 record theirs through
// ExtractionPlan::GateCascade, the one cascade a plan run alone uses too.
obs::Histogram* AcScanHistogram() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("tier.ac_scan_ns");
  return h;
}

}  // namespace

MultiQueryExtractor::MultiQueryExtractor(
    std::vector<std::shared_ptr<const ExtractionPlan>> plans)
    : plans_(std::move(plans)) {
  // The shared pass tracks ONE clause per plan — its strongest
  // (clauses()[0], longest minimum literal). Selective literals are rare
  // literals, so the combined automaton stays in its memchr-accelerated
  // root state for almost every byte; the plan's weaker clauses are
  // re-checked per surviving document by its own prefilter, where they
  // cost a memmem over the rare candidate instead of automaton states on
  // every byte of the corpus. Each distinct literal becomes one pattern
  // feeding every plan that shares it (common in a fleet of similar
  // queries).
  ungated_mask_.assign((plans_.size() + 63) / 64, 0);
  plan_has_more_clauses_.resize(plans_.size(), 0);
  std::vector<std::string> patterns;
  std::vector<std::vector<uint32_t>> plans_of_pattern;
  std::unordered_map<std::string, size_t> pattern_index;
  for (size_t p = 0; p < plans_.size(); ++p) {
    const std::vector<Prefilter::Clause>& clauses =
        plans_[p]->prefilter().clauses();
    if (clauses.empty()) {
      ungated_mask_[p >> 6] |= uint64_t{1} << (p & 63);
      continue;
    }
    plan_has_more_clauses_[p] = clauses.size() > 1;
    ++gated_plans_;
    for (const std::string& lit : clauses[0].literals) {
      auto [it, inserted] = pattern_index.emplace(lit, patterns.size());
      if (inserted) {
        patterns.push_back(lit);
        plans_of_pattern.emplace_back();
      }
      plans_of_pattern[it->second].push_back(static_cast<uint32_t>(p));
    }
  }

  gate_literals_ = patterns.size();
  if (!patterns.empty()) {
    ac_ = std::make_unique<const AhoCorasick>(patterns);
    pattern_plan_offsets_.reserve(patterns.size() + 1);
    pattern_plan_offsets_.push_back(0);
    for (const std::vector<uint32_t>& ids : plans_of_pattern) {
      pattern_plan_ids_.insert(pattern_plan_ids_.end(), ids.begin(),
                               ids.end());
      pattern_plan_offsets_.push_back(
          static_cast<uint32_t>(pattern_plan_ids_.size()));
    }
  }
  counters_ = std::make_unique<PlanCounters[]>(plans_.size());
  documents_ = std::make_unique<std::atomic<uint64_t>>(0);
}

MultiQueryExtractor MultiQueryExtractor::FromCache(const PlanCache& cache) {
  std::vector<std::shared_ptr<const ExtractionPlan>> plans;
  for (auto& [key, plan] : cache.ResidentPlans())
    plans.push_back(std::move(plan));
  return MultiQueryExtractor(std::move(plans));
}

void MultiQueryExtractor::ExtractAllSortedInto(const Document& doc,
                                               PlanScratch* scratch,
                                               std::vector<Mapping>** out)
    const {
  for (size_t p = 0; p < plans_.size(); ++p)
    if (!out[p]->empty()) scratch->pool.RecycleAll(out[p]);
  uint64_t counted = 0;
  ExtractSurvivorsInto(doc, scratch, out, nullptr, &counted);
  CountDocuments(counted);
}

uint64_t MultiQueryExtractor::ExtractSurvivorsInto(
    const Document& doc, PlanScratch* scratch,
    std::vector<Mapping>* const* slots, uint64_t* plan_mappings,
    uint64_t* counted) const {
  const std::string_view text = doc.text();
  const size_t num_plans = plans_.size();
  CancelToken* cancel = scratch->cancel;
  std::vector<uint64_t>& bits = scratch->multi_clause_bits;

  // Tier 1, once per document: the combined pass over every plan's
  // strongest clause. Bit p records exactly what plan p's own prefilter
  // would compute for that clause, so gating decisions — and therefore
  // results — match the plans run alone. The scan stops early once every
  // gated plan is satisfied. Without a pass every plan survives it.
  if (gating_enabled_ && ac_ != nullptr) {
    obs::ObsSpan span(AcScanHistogram(), "ac_scan");
    bits.assign(ungated_mask_.size(), 0);
    size_t remaining = gated_plans_;
    if (!text.empty()) {
      ac_->Scan(
          text,
          [&](uint32_t pattern, size_t) {
            for (uint32_t k = pattern_plan_offsets_[pattern];
                 k < pattern_plan_offsets_[pattern + 1]; ++k) {
              const uint32_t p = pattern_plan_ids_[k];
              uint64_t& word = bits[p >> 6];
              const uint64_t bit = uint64_t{1} << (p & 63);
              if ((word & bit) == 0) {
                word |= bit;
                if (--remaining == 0) return false;
              }
            }
            return true;
          },
          cancel);
    }
    // A trip mid-scan left the bitset partial; gating decisions derived
    // from it would be wrong. Bail — the caller discards via the token.
    if (cancel != nullptr && cancel->tripped()) return 0;
  } else {
    bits.assign(ungated_mask_.size(), ~uint64_t{0});
    if (num_plans % 64 != 0)
      bits.back() = (uint64_t{1} << (num_plans % 64)) - 1;
  }

  // The one per-document count, which the caller publishes: plan_stats()
  // derives every gated plan's shared-pass rejections from it, so a
  // rejected (plan, doc) pair is never touched below.
  ++*counted;

  // Survivors only: the pass's satisfied plans plus the ungated ones, in
  // plan order.
  uint64_t total = 0;
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t live = bits[w] | ungated_mask_[w]; live != 0;
         live &= live - 1) {
      if (cancel != nullptr && cancel->tripped()) return total;
      const size_t p = w * 64 + static_cast<size_t>(__builtin_ctzll(live));
      std::vector<Mapping>* slot = slots[p];
      PlanCounters& counters = counters_[p];
      // Tiers 2–3: the plan's remaining prefilter clauses (a memmem over
      // the rare candidate document), then its cached lazy DFA.
      const GateTier rejected =
          gating_enabled_ ? plans_[p]->GateCascade(text, cancel,
                                                   !plan_has_more_clauses_[p])
                          : GateTier::kNone;
      if (rejected != GateTier::kNone) {
        (rejected == GateTier::kPrefilter ? counters.prefilter_skipped
                                          : counters.dfa_skipped)
            .fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      plans_[p]->ExtractSortedPregatedInto(doc, scratch, slot);
      counters.extracted.fetch_add(1, std::memory_order_relaxed);
      counters.mappings.fetch_add(slot->size(), std::memory_order_relaxed);
      if (plan_mappings != nullptr) plan_mappings[p] += slot->size();
      total += slot->size();
    }
  }
  return total;
}

PlanStats MultiQueryExtractor::plan_stats(size_t i) const {
  const PlanCounters& c = counters_[i];
  PlanStats s;
  s.mappings = c.mappings.load(std::memory_order_relaxed);
  s.prefilter_skipped = c.prefilter_skipped.load(std::memory_order_relaxed);
  s.dfa_skipped = c.dfa_skipped.load(std::memory_order_relaxed);
  s.documents = c.extracted.load(std::memory_order_relaxed) +
                s.prefilter_skipped + s.dfa_skipped;
  // Every counted document that a gated plan's own tiers never saw was
  // rejected by the shared pass. Mid-call the per-plan counters can run
  // ahead of the shared one; the guard keeps such a read consistent.
  const bool gated = (ungated_mask_[i >> 6] >> (i & 63) & 1) == 0;
  if (gating_enabled_ && gated) {
    const uint64_t documents = documents_->load(std::memory_order_relaxed);
    if (documents > s.documents) {
      s.ac_gate_skipped = documents - s.documents;
      s.documents = documents;
    }
  }
  return s;
}

std::string MultiQueryExtractor::ToString() const {
  std::string out = "multi-query: " + std::to_string(plans_.size()) +
                    " plans (" + std::to_string(gated_plans_) +
                    " literal-gated, " + std::to_string(gate_literals_) +
                    " gate literals)";
  if (ac_ != nullptr) out += ", " + ac_->ToString();
  return out;
}

}  // namespace engine
}  // namespace spanners
