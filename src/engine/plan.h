// ExtractionPlan: a Spanner plus everything the engine wants decided once
// per pattern instead of once per document — fragment analysis (functional
// / sequential / spanRGX, via rgx/analysis.h), evaluator selection between
// run enumeration, the Theorem 5.7 sequential path and the Theorem 5.10
// FPT path, and per-call scratch reuse. A compiled plan is immutable and
// safe to share across threads; mutable scratch lives in a caller-owned
// PlanScratch (one per worker thread).
#ifndef SPANNERS_ENGINE_PLAN_H_
#define SPANNERS_ENGINE_PLAN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "automata/lazy_dfa.h"
#include "common/arena.h"
#include "common/cancel.h"
#include "common/status.h"
#include "core/document.h"
#include "core/mapping.h"
#include "core/mapping_sink.h"
#include "core/spanner.h"
#include "engine/prefilter.h"
#include "obs/metrics.h"
#include "rules/rule.h"

namespace spanners {
namespace engine {

/// One-time structural analysis of a compiled pattern.
struct PlanInfo {
  bool sequential_va = false;   // §5.2 PTIME machinery applies
  bool functional_rgx = false;  // [Fagin et al.] fragment (total mappings)
  bool span_rgx = false;        // §3.3 fragment: vars wrap Σ* only
  size_t num_vars = 0;
  size_t num_states = 0;
  size_t num_transitions = 0;
  Spanner::Evaluator evaluator = Spanner::Evaluator::kRunEnumeration;
  /// Literal requirement gating this plan ("" when it cannot prune).
  std::string prefilter;
  /// Alphabet atoms of the lazy-DFA membership gate (0 = no gate built).
  size_t dfa_atoms = 0;

  /// e.g. "sequential, functional; 2 vars, 14 states; run-enumeration;
  /// prefilter lit("Seller: "); lazy-dfa 7 atoms".
  std::string ToString() const;
};

/// Reusable per-thread scratch for Extract calls: arenas, the sorting
/// buffer and the pooled result storage survive across documents (the
/// arenas are Reset(), not freed, between them), so steady-state
/// extraction does not touch malloc.
struct PlanScratch {
  std::vector<Mapping> sorted;
  /// Evaluator scratch; Reset() by the leaf evaluators per extraction.
  Arena arena;
  /// Relational-operator scratch (join tables, dedup sets) for compiled
  /// queries; Reset() once per document by query::CompiledQuery, never by
  /// the leaf evaluators — build-side state survives leaf extractions.
  Arena query_arena;
  /// Recycled result-Mapping entry vectors; refilled from consumed output.
  MappingPool pool;
  /// Satisfied-clause bitset of the multi-query shared Aho–Corasick pass
  /// (engine::MultiQueryExtractor); sized on first use, reused across
  /// documents.
  std::vector<uint64_t> multi_clause_bits;
  /// Cancellation/budget token governing every extraction run through
  /// this scratch; not owned, may be null (never cancels). Once it trips,
  /// extraction results obtained through this scratch are meaningless —
  /// callers check the token, convert with CancelToken::ToStatus(), and
  /// discard partial output.
  CancelToken* cancel = nullptr;
};

/// Monotonic extraction counters; safe under concurrent Extract calls.
/// Each count has one record: ExtractionPlan::stats() counts what the plan
/// is offered when run alone (ExtractSortedInto, Extract, ExtractTo), and
/// MultiQueryExtractor::plan_stats(p) what a fleet offers its plan p. A
/// document the fleet offers is never counted in the plan's own record.
///
/// Counter semantics. `documents` counts every document OFFERED to the
/// plan (skipped or not); each offered document lands in exactly one of
/// the four disjoint outcomes {ac_gate_skipped, prefilter_skipped,
/// dfa_skipped, evaluated()}, so
///     documents == ac_gate_skipped + prefilter_skipped + dfa_skipped
///                  + evaluated().
/// The skip counters record which tier REJECTED the document (cheapest
/// tier first — a document the AC pass rejects is never offered to the
/// prefilter, and so on); `mappings` accumulates only over evaluated
/// documents. With gating disabled every document is evaluated.
struct PlanStats {
  uint64_t documents = 0;
  uint64_t mappings = 0;
  /// Documents rejected by the literal prefilter (no automaton touched).
  uint64_t prefilter_skipped = 0;
  /// Documents rejected by the lazy-DFA membership gate.
  uint64_t dfa_skipped = 0;
  /// Documents rejected for this plan by the *shared* multi-query
  /// Aho–Corasick pass (one corpus scan gating every resident plan).
  /// Only MultiQueryExtractor::plan_stats reports this; a plan run alone
  /// counts its literal rejections under prefilter_skipped.
  uint64_t ac_gate_skipped = 0;

  /// Documents that survived every gate and reached an evaluator
  /// (derived: documents minus the three tier-skip counters).
  uint64_t evaluated() const {
    const uint64_t skipped =
        ac_gate_skipped + prefilter_skipped + dfa_skipped;
    return documents >= skipped ? documents - skipped : 0;
  }

  /// Derived view with tier-skip percentages, e.g. "1000 docs: 950
  /// skipped (95.0% — 900 ac, 30 prefilter, 20 dfa), 50 evaluated
  /// (5.0%), 37 mappings".
  std::string ToString() const;
};

/// The gate tier that rejected a document (ExtractionPlan::GateCascade);
/// kNone = no tier could prove it empty, so it goes on to the evaluator.
enum class GateTier { kNone, kPrefilter, kLazyDfa };

/// The engine's unit of per-document work: anything that can produce the
/// deterministically sorted mapping set of one document. Implemented by
/// ExtractionPlan (one compiled pattern) and query::CompiledQuery (a whole
/// algebra expression); BatchExtractor parallelizes over this interface,
/// so every representation shares the same corpus machinery.
class DocumentExtractor {
 public:
  virtual ~DocumentExtractor() = default;

  /// The output variables (the column set of formatted rows).
  virtual const VarSet& vars() const = 0;

  /// Fills *out (cleared first) with the document's unique mappings in
  /// Mapping::operator< order. `scratch` supplies arenas, pooled mapping
  /// storage and sort buffers; one scratch per worker thread.
  virtual void ExtractSortedInto(const Document& doc, PlanScratch* scratch,
                                 std::vector<Mapping>* out) const = 0;
};

class ExtractionPlan : public DocumentExtractor {
 public:
  /// Parses, compiles and analyses `pattern`.
  static Result<ExtractionPlan> Compile(std::string_view pattern);

  /// Plans an already-built spanner (e.g. one assembled via the Theorem
  /// 4.5 algebra). `pattern` is a display/cache key; defaults to the
  /// spanner's own pattern text.
  static ExtractionPlan FromSpanner(Spanner spanner, std::string pattern = "");

  /// Plans a rule program — the union-of-rules semantics of §4.3. Every
  /// rule must be tree-like (Lemma B.1 turns each into an RGX; the program
  /// becomes one disjunction), so rule programs flow through the exact
  /// plan/cache/evaluator machinery patterns use. NotSupported when a rule
  /// is not tree-like after normalisation. `key` is the cache/display key.
  static Result<ExtractionPlan> FromRuleProgram(
      const std::vector<ExtractionRule>& rules, std::string key);

  ExtractionPlan(ExtractionPlan&&) = default;
  ExtractionPlan& operator=(ExtractionPlan&&) = default;

  const Spanner& spanner() const { return spanner_; }
  const std::string& pattern() const { return pattern_; }
  const PlanInfo& info() const { return info_; }
  const VarSet& vars() const override { return spanner_.vars(); }

  /// The literal requirement gating this plan (match-all when it cannot
  /// prune) and the lazy-DFA membership gate (never null).
  const Prefilter& prefilter() const { return prefilter_; }
  const LazyDfa& lazy_dfa() const { return *dfa_; }

  /// Turns the prefilter + lazy-DFA document gate off (on by default).
  /// For benchmarks and differential tests; set before sharing the plan
  /// across threads.
  void set_gating_enabled(bool on) { gating_enabled_ = on; }
  bool gating_enabled() const { return gating_enabled_; }

  /// Tiers 2–3 of the gate cascade on one document: the literal prefilter,
  /// then the cached lazy DFA (its negative answer is sound for any VA).
  /// `prefilter_decided` skips the prefilter when an outer tier already
  /// decided the plan's only clause (the multi-query shared pass). Records
  /// the tier.* spans only; the caller counts the verdict in its own
  /// record and decides by its own gating flag whether to run the cascade
  /// at all. A tripped `cancel` answers kNone (no proof): the evaluator
  /// notices the trip at once.
  GateTier GateCascade(std::string_view text, CancelToken* cancel,
                       bool prefilter_decided = false) const;

  /// NonEmp on one document: ⟦γ⟧_doc ≠ ∅, deciding via the cheapest
  /// sufficient tier — literal prefilter, then the cached lazy DFA (exact
  /// for sequential VAs), then NFA state-set simulation. Thread-safe.
  /// `scratch`, when given, supplies the simulation tier's arena (its
  /// extraction arena is Reset() by that tier), making repeated oracle
  /// calls allocation-free.
  bool Matches(const Document& doc, PlanScratch* scratch = nullptr) const;

  /// ⟦γ⟧_doc with the plan's chosen evaluator. Thread-safe.
  MappingSet Extract(const Document& doc) const;

  /// Extract + deterministic ordering (Mapping::operator<). The returned
  /// reference points into `scratch` and is valid until its next use.
  const std::vector<Mapping>& ExtractSorted(const Document& doc,
                                            PlanScratch* scratch) const;

  /// Like ExtractSorted but fills *out directly (cleared first), using
  /// `scratch`'s arena for all transient evaluator state and recycling
  /// *out's previous mappings through the scratch pool. The engine's
  /// per-document hot path: zero heap traffic once arena and pool have
  /// reached their high-water marks.
  void ExtractSortedInto(const Document& doc, PlanScratch* scratch,
                         std::vector<Mapping>* out) const override;

  /// ExtractSortedInto for a document an outer tier has already gated:
  /// skips this plan's own gate cascade (the multi-query extractor runs it
  /// after its shared corpus pass) and goes straight to the evaluator.
  /// Counts nothing in stats(): the outer tier keeps the record.
  void ExtractSortedPregatedInto(const Document& doc, PlanScratch* scratch,
                                 std::vector<Mapping>* out) const;

  /// Streams ⟦γ⟧_doc into `sink` in the evaluator's (unsorted) order —
  /// the composable primitive used by algebra scan nodes. Counters are
  /// still maintained.
  void ExtractTo(const Document& doc, PlanScratch* scratch,
                 MappingSink& sink) const;

  /// Snapshot of the monotonic counters: what the plan was offered when
  /// run alone.
  PlanStats stats() const;

 private:
  ExtractionPlan(Spanner spanner, std::string pattern);

  /// The gate cascade under this plan's own gating flag: true when it
  /// rejected the document, which is then counted in the plan's record.
  bool GateRejects(const Document& doc, CancelToken* cancel) const;
  /// Counts one evaluated document and its mappings.
  void CountEvaluated(uint64_t mappings) const;

  Spanner spanner_;
  std::string pattern_;
  PlanInfo info_;
  Prefilter prefilter_;
  // unique_ptr: the DFA owns a mutex (unmovable) and the plan must move.
  std::unique_ptr<LazyDfa> dfa_;
  bool gating_enabled_ = true;
  // Per-plan stats on the telemetry subsystem's sharded-counter primitive
  // (obs::Counter): always-on — PlanStats works without enabling obs —
  // and contention-free across worker threads. unique_ptr keeps the plan
  // movable despite the embedded atomics.
  struct Counters {
    obs::Counter documents;
    obs::Counter mappings;
    obs::Counter prefilter_skipped;
    obs::Counter dfa_skipped;
  };
  std::unique_ptr<Counters> counters_;
};

}  // namespace engine
}  // namespace spanners

#endif  // SPANNERS_ENGINE_PLAN_H_
