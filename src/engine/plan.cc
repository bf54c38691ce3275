#include "engine/plan.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "automata/fpt.h"
#include "automata/matcher.h"
#include "obs/span.h"
#include "rgx/analysis.h"
#include "rules/convert.h"

namespace spanners {
namespace engine {

namespace {

/// Registry handles of the engine's per-tier time histograms, resolved
/// once. Their counts double as per-tier document counts: every document
/// that ENTERS a tier records one observation in that tier's histogram.
/// Where documents LANDED is counted once, in the plan's own PlanStats.
struct EngineMetrics {
  obs::Histogram* prefilter_ns;
  obs::Histogram* dfa_gate_ns;
  obs::Histogram* nfa_sim_ns;
  obs::Histogram* eval_ns[3];  // indexed by Spanner::Evaluator
};

const EngineMetrics& Metrics() {
  static const EngineMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
    EngineMetrics m;
    m.prefilter_ns = r.GetHistogram("tier.prefilter_ns");
    m.dfa_gate_ns = r.GetHistogram("tier.dfa_gate_ns");
    m.nfa_sim_ns = r.GetHistogram("tier.nfa_sim_ns");
    m.eval_ns[0] = r.GetHistogram("tier.eval_run_enum_ns");
    m.eval_ns[1] = r.GetHistogram("tier.eval_sequential_ns");
    m.eval_ns[2] = r.GetHistogram("tier.eval_fpt_ns");
    return m;
  }();
  return m;
}

// Static trace labels per evaluator family (trace events keep pointers).
constexpr const char* kEvalSpanName[3] = {"eval.run_enum", "eval.sequential",
                                          "eval.fpt"};

std::string Percent(uint64_t part, uint64_t whole) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                whole == 0 ? 0.0 : 100.0 * double(part) / double(whole));
  return buf;
}

}  // namespace

std::string PlanStats::ToString() const {
  const uint64_t skipped =
      ac_gate_skipped + prefilter_skipped + dfa_skipped;
  std::string out = std::to_string(documents) + " docs: " +
                    std::to_string(skipped) + " skipped (" +
                    Percent(skipped, documents) + " — " +
                    std::to_string(ac_gate_skipped) + " ac, " +
                    std::to_string(prefilter_skipped) + " prefilter, " +
                    std::to_string(dfa_skipped) + " dfa), " +
                    std::to_string(evaluated()) + " evaluated (" +
                    Percent(evaluated(), documents) + "), " +
                    std::to_string(mappings) + " mappings";
  return out;
}

std::string PlanInfo::ToString() const {
  std::string out;
  out += sequential_va ? "sequential" : "non-sequential";
  if (functional_rgx) out += ", functional";
  if (span_rgx) out += ", spanRGX";
  out += "; " + std::to_string(num_vars) + " vars, " +
         std::to_string(num_states) + " states; ";
  out += std::string(EvaluatorToString(evaluator));
  if (!prefilter.empty()) out += "; prefilter " + prefilter;
  if (dfa_atoms > 0)
    out += "; lazy-dfa " + std::to_string(dfa_atoms) + " atoms";
  return out;
}

ExtractionPlan::ExtractionPlan(Spanner spanner, std::string pattern)
    : spanner_(std::move(spanner)),
      pattern_(std::move(pattern)),
      prefilter_(Prefilter::FromRgx(spanner_.rgx())),
      dfa_(std::make_unique<LazyDfa>(spanner_.va())),
      counters_(std::make_unique<Counters>()) {
  info_.sequential_va = spanner_.is_sequential();
  if (spanner_.rgx() != nullptr) {
    info_.functional_rgx = IsFunctional(spanner_.rgx());
    info_.span_rgx = IsSpanRgx(spanner_.rgx());
  }
  info_.num_vars = spanner_.vars().size();
  info_.num_states = spanner_.va().NumStates();
  info_.num_transitions = spanner_.va().NumTransitions();
  info_.evaluator = spanner_.RecommendedEvaluator();
  if (prefilter_.CanPrune()) {
    info_.prefilter = prefilter_.ToString();
    // Many-literal requirements evaluate as one automaton pass, not
    // per-literal memmem probes; worth surfacing in --stats.
    if (prefilter_.uses_aho_corasick()) info_.prefilter += " [aho-corasick]";
  }
  info_.dfa_atoms = dfa_->num_atoms();
}

Result<ExtractionPlan> ExtractionPlan::Compile(std::string_view pattern) {
  SPANNERS_ASSIGN_OR_RETURN(Spanner s, Spanner::FromPattern(pattern));
  return ExtractionPlan(std::move(s), std::string(pattern));
}

ExtractionPlan ExtractionPlan::FromSpanner(Spanner spanner,
                                           std::string pattern) {
  if (pattern.empty()) pattern = spanner.pattern();
  return ExtractionPlan(std::move(spanner), std::move(pattern));
}

Result<ExtractionPlan> ExtractionPlan::FromRuleProgram(
    const std::vector<ExtractionRule>& rules, std::string key) {
  if (rules.empty())
    return Status::InvalidArgument("empty rule program");
  // Lemma B.1 rule-by-rule, then one disjunction for the §4.3 union
  // semantics — the program compiles like any other formula from here on.
  std::vector<RgxPtr> members;
  members.reserve(rules.size());
  for (const ExtractionRule& rule : rules) {
    SPANNERS_ASSIGN_OR_RETURN(RgxPtr rgx, TreeRuleToRgx(rule));
    members.push_back(std::move(rgx));
  }
  return ExtractionPlan(Spanner::FromRgx(RgxNode::Disj(std::move(members))),
                        std::move(key));
}

GateTier ExtractionPlan::GateCascade(std::string_view text,
                                     CancelToken* cancel,
                                     bool prefilter_decided) const {
  if (!prefilter_decided && prefilter_.CanPrune()) {
    bool pass;
    {
      obs::ObsSpan span(Metrics().prefilter_ns, "prefilter");
      pass = prefilter_.Matches(text, cancel);
    }
    if (!pass) return GateTier::kPrefilter;
  }
  // The lazy DFA over-approximates ⟦A⟧ for any VA (ops relaxed to ε), so
  // its negative answer is always authoritative; nullopt = cache overflow
  // (or a tripped token), decide by the full evaluator instead — which
  // aborts immediately when the token tripped.
  std::optional<bool> verdict;
  {
    obs::ObsSpan span(Metrics().dfa_gate_ns, "dfa_gate");
    verdict = dfa_->Matches(text, cancel);
  }
  if (verdict.has_value() && !*verdict) return GateTier::kLazyDfa;
  return GateTier::kNone;
}

bool ExtractionPlan::GateRejects(const Document& doc,
                                 CancelToken* cancel) const {
  if (!gating_enabled_) return false;
  switch (GateCascade(doc.text(), cancel)) {
    case GateTier::kNone:
      return false;
    case GateTier::kPrefilter:
      counters_->prefilter_skipped.Add(1);
      break;
    case GateTier::kLazyDfa:
      counters_->dfa_skipped.Add(1);
      break;
  }
  counters_->documents.Add(1);
  return true;
}

void ExtractionPlan::CountEvaluated(uint64_t mappings) const {
  counters_->documents.Add(1);
  counters_->mappings.Add(mappings);
}

bool ExtractionPlan::Matches(const Document& doc, PlanScratch* scratch) const {
  CancelToken* cancel = scratch != nullptr ? scratch->cancel : nullptr;
  if (prefilter_.CanPrune()) {
    obs::ObsSpan span(Metrics().prefilter_ns, "prefilter");
    if (!prefilter_.Matches(doc.text(), cancel)) return false;
  }
  std::optional<bool> verdict;
  {
    obs::ObsSpan span(Metrics().dfa_gate_ns, "dfa_gate");
    verdict = dfa_->Matches(doc.text(), cancel);
  }
  if (verdict.has_value()) {
    if (!*verdict) return false;
    // Positive answers are only exact when op-consistency is structural.
    if (info_.sequential_va) return true;
  }
  // Fall back to NFA state-set simulation, on the caller's arena when
  // one is provided. A tripped token aborts the simulation; the answer is
  // then meaningless and the caller reads the token, not the bool.
  obs::ObsSpan span(Metrics().nfa_sim_ns, "nfa_sim");
  Arena* arena = scratch != nullptr ? &scratch->arena : nullptr;
  return info_.sequential_va
             ? MatchesSequential(spanner_.va(), doc, arena, cancel)
             : EvalVa(spanner_.va(), doc, ExtendedMapping(), arena, cancel);
}

MappingSet ExtractionPlan::Extract(const Document& doc) const {
  PlanScratch scratch;
  std::vector<Mapping> out;
  ExtractSortedInto(doc, &scratch, &out);
  return MappingSet(std::move(out));
}

const std::vector<Mapping>& ExtractionPlan::ExtractSorted(
    const Document& doc, PlanScratch* scratch) const {
  ExtractSortedInto(doc, scratch, &scratch->sorted);
  return scratch->sorted;
}

void ExtractionPlan::ExtractSortedInto(const Document& doc,
                                       PlanScratch* scratch,
                                       std::vector<Mapping>* out) const {
  scratch->pool.RecycleAll(out);  // previous results refill the pool
  if (GateRejects(doc, scratch->cancel)) return;  // *out is the (empty) result
  ExtractSortedPregatedInto(doc, scratch, out);
  CountEvaluated(out->size());
}

void ExtractionPlan::ExtractSortedPregatedInto(const Document& doc,
                                               PlanScratch* scratch,
                                               std::vector<Mapping>* out) const {
  scratch->pool.RecycleAll(out);
  obs::ObsSpan span(Metrics().eval_ns[size_t(info_.evaluator)],
                    kEvalSpanName[size_t(info_.evaluator)]);
  VectorSink sink(out, &scratch->pool);
  spanner_.ExtractTo(info_.evaluator, doc, &scratch->arena, sink,
                     scratch->cancel);
  std::sort(out->begin(), out->end());
}

void ExtractionPlan::ExtractTo(const Document& doc, PlanScratch* scratch,
                               MappingSink& sink) const {
  if (GateRejects(doc, scratch->cancel)) return;
  CountingSink counting(sink);
  {
    obs::ObsSpan span(Metrics().eval_ns[size_t(info_.evaluator)],
                      kEvalSpanName[size_t(info_.evaluator)]);
    spanner_.ExtractTo(info_.evaluator, doc, &scratch->arena, counting,
                       scratch->cancel);
  }
  CountEvaluated(counting.count());
}

PlanStats ExtractionPlan::stats() const {
  PlanStats s;
  s.documents = counters_->documents.Load();
  s.mappings = counters_->mappings.Load();
  s.prefilter_skipped = counters_->prefilter_skipped.Load();
  s.dfa_skipped = counters_->dfa_skipped.Load();
  return s;
}

}  // namespace engine
}  // namespace spanners
