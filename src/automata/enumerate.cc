#include "automata/enumerate.h"

#include "automata/fpt.h"
#include "automata/matcher.h"
#include "common/logging.h"

namespace spanners {

MappingEnumerator::MappingEnumerator(VarSet vars, const Document& doc,
                                     EvalOracle oracle, CancelToken* cancel,
                                     const Arena* arena)
    : vars_(vars.ids()),
      doc_(&doc),
      num_spans_(doc.NumSpans()),
      oracle_(std::move(oracle)),
      gauge_(cancel, arena) {}

bool MappingEnumerator::OracleAccepts() {
  ++oracle_calls_;
  return oracle_(current_);
}

std::optional<Mapping> MappingEnumerator::Next() {
  return NextPooled(nullptr);
}

std::optional<Mapping> MappingEnumerator::NextPooled(MappingPool* pool) {
  if (done_) return std::nullopt;

  if (!started_) {
    started_ = true;
    // Nothing at all to output?
    if (!OracleAccepts()) {
      done_ = true;
      return std::nullopt;
    }
    if (vars_.empty()) {
      done_ = true;
      return Mapping::Empty();
    }
    stack_.push_back({0, 0});
  } else {
    // Resume: advance the deepest frame.
    SPANNERS_CHECK(!stack_.empty());
    ++stack_.back().choice_idx;
  }

  while (!stack_.empty()) {
    // Between-output delay is polynomial but not small; a tripped token
    // ends the enumeration as if exhausted (the caller checks the token).
    if (gauge_.ShouldStop()) {
      done_ = true;
      return std::nullopt;
    }
    Frame& f = stack_.back();
    const size_t num_choices = num_spans_ + 1;  // spans ∪ {⊥}
    if (f.choice_idx >= num_choices) {
      current_.Clear(vars_[f.var_idx]);
      stack_.pop_back();
      if (!stack_.empty()) ++stack_.back().choice_idx;
      continue;
    }
    if (f.choice_idx < num_spans_) {
      current_.Assign(vars_[f.var_idx], doc_->SpanAt(f.choice_idx));
    } else {
      current_.AssignBottom(vars_[f.var_idx]);
    }
    if (!OracleAccepts()) {
      ++f.choice_idx;
      continue;
    }
    if (f.var_idx + 1 == vars_.size()) {
      // All variables decided and the oracle accepts: output.
      return current_.AssignedPart(MappingPool::AcquireFrom(pool));
    }
    stack_.push_back({f.var_idx + 1, 0});
  }
  done_ = true;
  return std::nullopt;
}

MappingSet MappingEnumerator::Drain() {
  MappingSet out;
  while (std::optional<Mapping> m = Next()) out.Insert(*std::move(m));
  return out;
}

void MappingEnumerator::DrainTo(MappingSink& sink) {
  MappingPool* pool = sink.pool();
  while (std::optional<Mapping> m = NextPooled(pool))
    if (!sink.Push(*std::move(m))) return;
}

MappingEnumerator MakeSequentialEnumerator(const VA& a, const Document& doc,
                                           Arena* scratch,
                                           CancelToken* cancel) {
  return MappingEnumerator(
      a.Vars(), doc,
      [&a, &doc, scratch, cancel](const ExtendedMapping& mu) {
        return EvalSequential(a, doc, mu, scratch, cancel);
      },
      cancel, scratch);
}

MappingEnumerator MakeVaEnumerator(const VA& a, const Document& doc,
                                   Arena* scratch, CancelToken* cancel) {
  return MappingEnumerator(
      a.Vars(), doc,
      [&a, &doc, scratch, cancel](const ExtendedMapping& mu) {
        return EvalVa(a, doc, mu, scratch, cancel);
      },
      cancel, scratch);
}

MappingSet EnumerateSequential(const VA& a, const Document& doc) {
  return MakeSequentialEnumerator(a, doc).Drain();
}

MappingSet EnumerateVa(const VA& a, const Document& doc) {
  return MakeVaEnumerator(a, doc).Drain();
}

void EnumerateSequentialTo(const VA& a, const Document& doc, Arena* scratch,
                           MappingSink& sink, CancelToken* cancel) {
  MappingEnumerator e = MakeSequentialEnumerator(a, doc, scratch, cancel);
  e.DrainTo(sink);
}

void EnumerateVaTo(const VA& a, const Document& doc, Arena* scratch,
                   MappingSink& sink, CancelToken* cancel) {
  MappingEnumerator e = MakeVaEnumerator(a, doc, scratch, cancel);
  e.DrainTo(sink);
}

}  // namespace spanners
