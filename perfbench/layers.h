// The traced decomposition of the engine's per-document work into its
// layers, and the per-layer metric catalogue every traced run reports.
//
// ExtractionPlan::ExtractSortedInto is Prefilter::Matches, then
// LazyDfa::Matches, then ExtractSortedPregatedInto; the benchmark calls
// those public tiers itself, in that order, each under its own span. A
// fleet document runs through MultiQueryExtractor::ExtractAllSortedInto
// whole; the per-plan counters it keeps say which tiers each plan reached,
// and those tiers are re-timed as replay spans so the shared
// Aho–Corasick pass is what remains as the multi_query layer's self time.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/multi_query.h"
#include "engine/plan.h"

namespace perfbench {

using spanners::Mapping;
using spanners::engine::ExtractionPlan;
using spanners::engine::MultiQueryExtractor;
using spanners::engine::PlanScratch;

/// Layer span names (the ledger's rows).
inline constexpr char kEval[] = "automata.eval";
inline constexpr char kFormat[] = "engine.format";
inline constexpr char kPrefilter[] = "engine.prefilter";
inline constexpr char kLazyDfa[] = "automata.lazy_dfa";
inline constexpr char kMultiQuery[] = "engine.multi_query";
inline constexpr char kSegment[] = "storage.segment";
inline constexpr char kNgramIndex[] = "storage.ngram_index";

/// Work counts gathered at the same boundaries as the spans.
struct LayerCounts {
  uint64_t doc_bytes = 0;
  uint64_t prefilter_calls = 0, prefilter_rejects = 0, prefilter_bytes = 0;
  uint64_t dfa_calls = 0, dfa_rejects = 0, dfa_bytes = 0, dfa_fallbacks = 0;
  uint64_t eval_calls = 0, eval_bytes = 0, eval_with_mapping = 0;
  uint64_t mappings = 0, rows = 0;
  uint64_t fleet_pairs = 0, ac_rejects = 0;  // (plan, document) pairs
};

std::shared_ptr<const ExtractionPlan> CompilePlan(const std::string& pattern);

/// Runs `doc` through `plan`'s tiers in ExtractSortedInto's order, each
/// under its layer span when `rec` is on. Fills *out (sorted) and returns
/// true unless a gate rejected the document.
bool PlanExtract(const ExtractionPlan& plan, const Document& doc,
                 uint64_t id, PlanScratch* scratch, std::vector<Mapping>* out,
                 SpanRecorder& rec, LayerCounts* counts);

/// Fleet extraction of a group of consecutive documents under one
/// multi_query span (per-document spans would cost more clock reads than
/// the ~0.5 µs of gating work they time). The fleet's per-plan counters
/// say which plans got past the shared Aho–Corasick pass in the group; for
/// those, the documents that satisfied the plan's strongest clause are
/// found again and their remaining tiers re-timed as replay spans.
class FleetTracer {
 public:
  FleetTracer(const MultiQueryExtractor& fleet, size_t group_docs);
  /// Extracts batch[begin, end), at most group_docs documents; document
  /// begin + k has id first_id + k.
  void ExtractGroup(const Corpus& batch, size_t begin, size_t end,
                    uint64_t first_id, PlanScratch* scratch,
                    SpanRecorder& rec, LayerCounts* counts);
  /// (k, plan) pairs of the last group whose mappings are non-empty.
  const std::vector<std::pair<size_t, size_t>>& found() const {
    return found_;
  }
  const std::vector<Mapping>& out(size_t k, size_t plan) const {
    return outs_[k][plan];
  }

 private:
  const MultiQueryExtractor& fleet_;
  std::vector<spanners::engine::PlanStats> before_;
  std::vector<std::vector<std::vector<Mapping>>> outs_;  // [k][plan]
  std::vector<std::vector<std::vector<Mapping>*>> out_ptrs_;
  std::vector<std::pair<size_t, size_t>> survivors_;  // (k, plan)
  std::vector<std::pair<size_t, size_t>> found_;
  PlanScratch replay_scratch_;
  std::vector<Mapping> replay_out_;
};

/// Every per-layer metric, in BENCHMARK.json's per_layer order. A layer a
/// workload leaves idle keeps value 0.
class LayerReport {
 public:
  LayerReport();
  void Set(const std::string& name, double value);
  /// Shares, per-byte and per-call costs and ratios derived from one
  /// ledger and the counts taken with it.
  void FromLedger(const Ledger& ledger, const LayerCounts& counts);
  void AddTo(Result* result) const;

 private:
  std::vector<std::pair<std::string, std::string>> catalogue_;
  std::map<std::string, double> values_;
};

/// num / den, or 0 when nothing was counted.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
