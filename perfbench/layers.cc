#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>

namespace perfbench {

std::shared_ptr<const ExtractionPlan> CompilePlan(const std::string& pattern) {
  auto plan = ExtractionPlan::Compile(pattern);
  if (!plan.ok()) {
    std::fprintf(stderr, "perfbench: compile %s: %s\n", pattern.c_str(),
                 plan.status().ToString().c_str());
    std::exit(2);
  }
  return std::make_shared<const ExtractionPlan>(std::move(plan).value());
}

bool PlanExtract(const ExtractionPlan& plan, const Document& doc,
                 uint64_t id, PlanScratch* scratch, std::vector<Mapping>* out,
                 SpanRecorder& rec, LayerCounts* c) {
  const std::string& text = doc.text();
  c->doc_bytes += text.size();
  if (plan.prefilter().CanPrune()) {
    bool pass;
    {
      Scope span(rec, kPrefilter, id);
      pass = plan.prefilter().Matches(text);
    }
    ++c->prefilter_calls;
    c->prefilter_bytes += text.size();
    if (!pass) {
      ++c->prefilter_rejects;
      scratch->pool.RecycleAll(out);
      return false;
    }
  }
  std::optional<bool> verdict;
  {
    Scope span(rec, kLazyDfa, id);
    verdict = plan.lazy_dfa().Matches(text);
  }
  ++c->dfa_calls;
  c->dfa_bytes += text.size();
  if (!verdict.has_value()) ++c->dfa_fallbacks;
  if (verdict.has_value() && !*verdict) {
    ++c->dfa_rejects;
    scratch->pool.RecycleAll(out);
    return false;
  }
  {
    Scope span(rec, kEval, id);
    plan.ExtractSortedPregatedInto(doc, scratch, out);
  }
  ++c->eval_calls;
  c->eval_bytes += text.size();
  c->mappings += out->size();
  if (!out->empty()) ++c->eval_with_mapping;
  return true;
}

FleetTracer::FleetTracer(const MultiQueryExtractor& fleet, size_t group_docs)
    : fleet_(fleet),
      outs_(group_docs, std::vector<std::vector<Mapping>>(fleet.num_plans())),
      out_ptrs_(group_docs) {
  for (size_t p = 0; p < fleet.num_plans(); ++p)
    before_.push_back(fleet.plan_stats(p));
  for (size_t k = 0; k < group_docs; ++k)
    for (auto& out : outs_[k]) out_ptrs_[k].push_back(&out);
}

namespace {

/// Whether `text` satisfies the clause the fleet's shared pass checks for
/// `plan` (its first, most selective one).
bool PassesSharedClause(const ExtractionPlan& plan, const std::string& text) {
  const auto& clauses = plan.prefilter().clauses();
  if (clauses.empty()) return true;
  for (const std::string& literal : clauses[0].literals)
    if (text.find(literal) != std::string::npos) return true;
  return false;
}

}  // namespace

void FleetTracer::ExtractGroup(const Corpus& batch, size_t begin, size_t end,
                               uint64_t first_id, PlanScratch* scratch,
                               SpanRecorder& rec, LayerCounts* c) {
  const size_t n = fleet_.num_plans();
  const size_t docs = end - begin;
  int32_t span;
  {
    Scope group(rec, kMultiQuery, first_id);
    span = group.span();
    for (size_t k = 0; k < docs; ++k)
      fleet_.ExtractAllSortedInto(batch[begin + k], scratch,
                                  out_ptrs_[k].data());
  }

  // Bookkeeping, kept out of the ledger: which plans passed the shared
  // pass on which documents, and which slots hold mappings.
  found_.clear();
  survivors_.clear();
  {
    Scope probe(rec, kProbe, first_id);
    for (size_t p = 0; p < n; ++p) {
      const auto after = fleet_.plan_stats(p);
      const uint64_t skipped =
          after.ac_gate_skipped - before_[p].ac_gate_skipped;
      const uint64_t passed =
          after.documents - before_[p].documents - skipped;
      const bool mapped = after.mappings > before_[p].mappings;
      before_[p] = after;
      c->ac_rejects += skipped;
      for (size_t k = 0; k < docs && (mapped || (passed > 0 && rec.on()));
           ++k) {
        if (mapped && !outs_[k][p].empty()) found_.push_back({k, p});
        if (passed > 0 && rec.on() &&
            PassesSharedClause(fleet_.plan(p), batch[begin + k].text()))
          survivors_.push_back({k, p});
      }
    }
    std::sort(found_.begin(), found_.end());
    for (size_t k = 0; k < docs; ++k)
      c->doc_bytes += batch[begin + k].text().size();
    c->fleet_pairs += n * docs;
  }

  // Re-time each survivor's remaining tiers as replays under the group.
  for (const auto& [k, p] : survivors_) {
    const ExtractionPlan& plan = fleet_.plan(p);
    const Document& doc = batch[begin + k];
    const std::string& text = doc.text();
    const uint64_t id = first_id + k;
    if (plan.prefilter().clauses().size() > 1) {
      const uint64_t t0 = NowNs();
      const bool pass = plan.prefilter().Matches(text);
      rec.Add(kPrefilter, t0, NowNs(), span, id, true);
      ++c->prefilter_calls;
      c->prefilter_bytes += text.size();
      if (!pass) {
        ++c->prefilter_rejects;
        continue;
      }
    }
    uint64_t t0 = NowNs();
    const auto verdict = plan.lazy_dfa().Matches(text);
    rec.Add(kLazyDfa, t0, NowNs(), span, id, true);
    ++c->dfa_calls;
    c->dfa_bytes += text.size();
    if (!verdict.has_value()) ++c->dfa_fallbacks;
    if (verdict.has_value() && !*verdict) {
      ++c->dfa_rejects;
      continue;
    }
    t0 = NowNs();
    plan.ExtractSortedPregatedInto(doc, &replay_scratch_, &replay_out_);
    rec.Add(kEval, t0, NowNs(), span, id, true);
    ++c->eval_calls;
    c->eval_bytes += text.size();
    c->mappings += replay_out_.size();
    if (!replay_out_.empty()) ++c->eval_with_mapping;
  }
}

// ---- per-layer catalogue ---------------------------------------------------

LayerReport::LayerReport()
    : catalogue_({
          {"automata.eval.share", "ratio"},
          {"automata.eval.ns_per_byte", "ns/B"},
          {"automata.eval.ns_per_mapping", "ns"},
          {"engine.format.share", "ratio"},
          {"engine.format.ns_per_row", "ns"},
          {"engine.prefilter.share", "ratio"},
          {"engine.prefilter.ns_per_kb", "ns/KiB"},
          {"engine.prefilter.reject_ratio", "ratio"},
          {"automata.lazy_dfa.share", "ratio"},
          {"automata.lazy_dfa.ns_per_kb", "ns/KiB"},
          {"automata.lazy_dfa.reject_ratio", "ratio"},
          {"automata.lazy_dfa.fallbacks", "count"},
          {"engine.multi_query.share", "ratio"},
          {"engine.multi_query.gate_ns_per_kb", "ns/KiB"},
          {"engine.multi_query.ac_reject_ratio", "ratio"},
          {"engine.multi_query.useful_ratio", "ratio"},
          {"engine.batch_extractor.overhead_ratio", "ratio"},
          {"engine.thread_pool.scaling_efficiency", "ratio"},
          {"engine.batch_extractor.call_us", "us"},
          {"engine.corpus.load_mb_per_s", "MB/s"},
          {"engine.plan.compile_us", "us"},
          {"engine.multi_query.build_ms", "ms"},
          {"storage.segment.share", "ratio"},
          {"storage.segment.write_mb_per_s", "MB/s"},
          {"storage.segment.open_ms", "ms"},
          {"storage.segment.materialize_ns_per_doc", "ns"},
          {"storage.segment.bytes_per_input_byte", "ratio"},
          {"storage.ngram_index.share", "ratio"},
          {"storage.ngram_index.build_mb_per_s", "MB/s"},
          {"storage.ngram_index.open_ms", "ms"},
          {"storage.ngram_index.lookup_us", "us"},
          {"storage.ngram_index.candidate_ratio", "ratio"},
          {"storage.ngram_index.precision", "ratio"},
          {"storage.ngram_index.postings_per_query", "count"},
          {"storage.ngram_index.bytes_per_input_byte", "ratio"},
          {"server.share", "ratio"},
          {"server.transport.share", "ratio"},
          {"server.queue_wait.share", "ratio"},
          {"server.exec.share", "ratio"},
          {"bench.gen_lag.share", "ratio"},
          {"server.register_us", "us"},
          {"server.queue_wait_us", "us"},
          {"server.exec_us", "us"},
          {"server.transport_us", "us"},
          {"server.rejected_ratio", "ratio"},
          {"bench.unattributed_ratio", "ratio"},
          {"bench.trace_overhead_ratio", "ratio"},
          {"bench.gen_lag_p99_us", "us"},
          {"bench.req_p90_us", "us"},
          {"bench.req_p99_us", "us"},
      }) {}

void LayerReport::Set(const std::string& name, double value) {
  for (const auto& entry : catalogue_) {
    if (entry.first == name) {
      values_[name] = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
               name.c_str());
  std::exit(2);
}

void LayerReport::FromLedger(const Ledger& ledger, const LayerCounts& c) {
  auto self = [&](const char* layer) {
    const auto it = ledger.self_ns.find(layer);
    return it == ledger.self_ns.end() ? 0.0 : it->second;
  };
  Set("automata.eval.share", ledger.Share(kEval));
  Set("automata.eval.ns_per_byte", Ratio(self(kEval), c.eval_bytes));
  Set("automata.eval.ns_per_mapping", Ratio(self(kEval), c.mappings));
  Set("engine.format.share", ledger.Share(kFormat));
  Set("engine.format.ns_per_row", Ratio(self(kFormat), c.rows));
  Set("engine.prefilter.share", ledger.Share(kPrefilter));
  Set("engine.prefilter.ns_per_kb",
      Ratio(self(kPrefilter), c.prefilter_bytes / 1024.0));
  Set("engine.prefilter.reject_ratio",
      Ratio(c.prefilter_rejects, c.prefilter_calls));
  Set("automata.lazy_dfa.share", ledger.Share(kLazyDfa));
  Set("automata.lazy_dfa.ns_per_kb",
      Ratio(self(kLazyDfa), c.dfa_bytes / 1024.0));
  Set("automata.lazy_dfa.reject_ratio", Ratio(c.dfa_rejects, c.dfa_calls));
  Set("automata.lazy_dfa.fallbacks", static_cast<double>(c.dfa_fallbacks));
  Set("engine.multi_query.share", ledger.Share(kMultiQuery));
  Set("engine.multi_query.gate_ns_per_kb",
      Ratio(self(kMultiQuery), c.doc_bytes / 1024.0));
  Set("engine.multi_query.ac_reject_ratio",
      Ratio(c.ac_rejects, c.fleet_pairs));
  Set("engine.multi_query.useful_ratio",
      Ratio(c.eval_with_mapping, c.eval_calls));
  Set("storage.segment.share", ledger.Share(kSegment));
  Set("storage.ngram_index.share", ledger.Share(kNgramIndex));
  for (const char* row : {"server.transport", "server.queue_wait",
                          "server.exec", "bench.gen_lag"})
    Set(std::string(row) + ".share", ledger.Share(row));
  Set("bench.unattributed_ratio", ledger.UnattributedRatio());
}

void LayerReport::AddTo(Result* result) const {
  for (const auto& [name, unit] : catalogue_) {
    const auto it = values_.find(name);
    result->Add(name, it == values_.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace perfbench
