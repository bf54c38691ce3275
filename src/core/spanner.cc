#include "core/spanner.h"

#include "automata/fpt.h"
#include "automata/matcher.h"
#include "automata/run_eval.h"
#include "automata/sequential.h"
#include "automata/thompson.h"
#include "rgx/parser.h"

namespace spanners {

namespace {

// Past this many variables the brute-force run exploration risks an
// exponential blow-up; fall back to the polynomial-delay machinery.
constexpr size_t kRunEnumerationVarLimit = 6;

Spanner::Evaluator PickEvaluator(const VarSet& vars, bool sequential) {
  if (vars.size() <= kRunEnumerationVarLimit)
    return Spanner::Evaluator::kRunEnumeration;
  return sequential ? Spanner::Evaluator::kSequentialDelay
                    : Spanner::Evaluator::kFptDelay;
}

}  // namespace

Spanner::Spanner(RgxPtr rgx, VA va)
    : rgx_(std::move(rgx)),
      va_(std::move(va)),
      vars_(va_.Vars()),
      sequential_(IsSequentialVa(va_)),
      recommended_(PickEvaluator(vars_, sequential_)) {}

Result<Spanner> Spanner::FromPattern(std::string_view pattern) {
  SPANNERS_ASSIGN_OR_RETURN(RgxPtr rgx, ParseRgx(pattern));
  Spanner s = FromRgx(std::move(rgx));
  s.pattern_ = std::string(pattern);
  return s;
}

Spanner Spanner::FromRgx(RgxPtr rgx) {
  VA va = CompileToVa(rgx);
  return Spanner(std::move(rgx), std::move(va));
}

Spanner Spanner::FromVa(VA va) { return Spanner(nullptr, std::move(va)); }

MappingSet Spanner::ExtractAll(const Document& doc) const {
  return RunEval(va_, doc);
}

MappingSet Spanner::ExtractAllWith(Evaluator evaluator,
                                   const Document& doc) const {
  Arena arena;
  std::vector<Mapping> out;
  VectorSink sink(&out);
  ExtractTo(evaluator, doc, &arena, sink);
  return MappingSet(std::move(out));
}

void Spanner::ExtractTo(Evaluator evaluator, const Document& doc, Arena* arena,
                        MappingSink& sink, CancelToken* cancel) const {
  switch (evaluator) {
    case Evaluator::kRunEnumeration:
      RunEvalTo(va_, doc, arena, sink, &vars_, cancel);
      return;
    case Evaluator::kSequentialDelay:
      SPANNERS_CHECK(sequential_)
          << "kSequentialDelay requires a sequential VA";
      EnumerateSequentialTo(va_, doc, arena, sink, cancel);
      return;
    case Evaluator::kFptDelay:
      EnumerateVaTo(va_, doc, arena, sink, cancel);
      return;
  }
  SPANNERS_CHECK(false) << "unknown evaluator";
}

std::string_view EvaluatorToString(Spanner::Evaluator e) {
  switch (e) {
    case Spanner::Evaluator::kRunEnumeration:
      return "run-enumeration";
    case Spanner::Evaluator::kSequentialDelay:
      return "sequential-delay";
    case Spanner::Evaluator::kFptDelay:
      return "fpt-delay";
  }
  return "unknown";
}

MappingEnumerator Spanner::Enumerate(const Document& doc) const {
  if (sequential_) {
    return MappingEnumerator(
        vars_, doc, [this, &doc](const ExtendedMapping& mu) {
          return EvalSequential(va_, doc, mu);
        });
  }
  return MappingEnumerator(vars_, doc,
                           [this, &doc](const ExtendedMapping& mu) {
                             return EvalVa(va_, doc, mu);
                           });
}

bool Spanner::Eval(const Document& doc, const ExtendedMapping& mu) const {
  return sequential_ ? EvalSequential(va_, doc, mu) : EvalVa(va_, doc, mu);
}

bool Spanner::ModelCheck(const Document& doc, const Mapping& mu) const {
  // µ ∈ ⟦γ⟧_doc ⟺ Eval with µ's entries assigned and every other
  // variable of the spanner pinned to ⊥ (the paper's §5.1 reduction of
  // model checking to Eval).
  ExtendedMapping probe = ExtendedMapping::FromMapping(mu);
  for (VarId x : vars_)
    if (!mu.Defines(x)) probe.AssignBottom(x);
  return Eval(doc, probe);
}

bool Spanner::Matches(const Document& doc) const {
  return Eval(doc, ExtendedMapping());
}

}  // namespace spanners
