#include "engine/batch_extractor.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <utility>

#include "obs/span.h"

namespace spanners {
namespace engine {

namespace {

/// Whole-document wall time (gate + evaluator + sort), one observation per
/// (document, extractor) — and per (document, fleet) in multi mode, where
/// a single observation covers every resident plan. Trace events carry the
/// corpus document index as their arg, so a Chrome-trace view lines the
/// per-tier spans up under the document they belong to.
obs::Histogram* DocHistogram() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("engine.doc_ns");
  return h;
}

/// Snapshot of this process's page-fault counters (minor, major).
std::pair<uint64_t, uint64_t> PageFaults() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return {0, 0};
  return {static_cast<uint64_t>(ru.ru_minflt),
          static_cast<uint64_t>(ru.ru_majflt)};
}

/// Index lookup time per indexed call; the call's counts live in its
/// IndexedStats.
obs::Histogram* LookupHistogram() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("index.lookup_ns");
  return h;
}

/// The index half of both indexed calls: looks up the candidates — the
/// union of the prefilters' candidate sets, where one the index cannot
/// narrow widens it to the whole store — hands them to `extract`, and
/// accounts the lookup and the whole call's page faults. No prefilter
/// (an empty fleet) looks nothing up.
template <typename Extract>
void WithCandidates(const storage::NgramIndex* index, size_t num_docs,
                    const std::vector<const Prefilter*>& prefilters,
                    IndexedStats* stats, Extract extract) {
  IndexedStats local;
  local.corpus_docs = num_docs;
  if (prefilters.empty()) {
    if (stats != nullptr) *stats = local;
    return;
  }
  const std::pair<uint64_t, uint64_t> faults0 = PageFaults();

  storage::CandidateSet cand;  // all = true: scan everything
  if (index != nullptr) {
    storage::LookupStats lookup;
    const auto t0 = std::chrono::steady_clock::now();
    cand.all = false;
    for (const Prefilter* prefilter : prefilters) {
      storage::CandidateSet c = index->Candidates(*prefilter, &lookup);
      if (c.all) {
        cand = std::move(c);
        break;
      }
      std::vector<uint32_t> merged;
      merged.reserve(cand.docs.size() + c.docs.size());
      std::set_union(cand.docs.begin(), cand.docs.end(), c.docs.begin(),
                     c.docs.end(), std::back_inserter(merged));
      cand.docs = std::move(merged);
    }
    local.lookup_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    local.postings_touched = lookup.postings_touched;
    local.terms_probed = lookup.terms_probed;
  }
  local.narrowed = !cand.all;
  local.candidate_docs = cand.CountIn(num_docs);

  extract(cand);

  const std::pair<uint64_t, uint64_t> faults1 = PageFaults();
  local.minor_faults = faults1.first - faults0.first;
  local.major_faults = faults1.second - faults0.second;
  if (obs::Enabled()) LookupHistogram()->Record(local.lookup_ns);
  if (stats != nullptr) *stats = local;
}

// Source, the driver's first axis: position j of a call's documents is
// document id(j), one of num_docs() result slots.

struct CorpusSource {
  const Corpus& corpus;
  size_t num_docs() const { return corpus.size(); }
  size_t size() const { return corpus.size(); }
  size_t id(size_t j) const { return j; }
  size_t bytes(size_t j) const { return corpus[j].text().size(); }
  const Document& doc(size_t j) const { return corpus[j]; }
};

// An indexed call's candidates, copied out of the mapping one at a time
// (SegmentStore::MaterializeDoc), so results never dangle after the store
// closes. Non-candidates are never touched.
struct StoreSource {
  const storage::SegmentStore& store;
  const storage::CandidateSet& cand;
  size_t num_docs() const { return store.num_docs(); }
  size_t size() const { return cand.CountIn(store.num_docs()); }
  size_t id(size_t j) const { return cand.all ? j : cand.docs[j]; }
  size_t bytes(size_t j) const { return store.doc_bytes(id(j)); }
  Document doc(size_t j) const { return store.MaterializeDoc(id(j)); }
};

}  // namespace

const std::vector<Mapping> HitList::kNoMappings;

void HitList::Index() {
  blocks_.clear();
  if (hits_.empty()) return;
  blocks_.resize((num_docs_ + 63) / 64);
  for (const Hit& hit : hits_)
    blocks_[hit.doc >> 6].bits |= uint64_t{1} << (hit.doc & 63);
  size_t rank = 0;
  for (Block& block : blocks_) {
    block.rank = rank;
    rank += static_cast<size_t>(__builtin_popcountll(block.bits));
  }
}

std::vector<size_t> MultiBatchResult::HitDocuments() const {
  std::vector<size_t> docs;
  std::vector<size_t> next(per_plan.size(), 0);  // each plan's next hit
  for (;;) {
    size_t doc = SIZE_MAX;
    for (size_t p = 0; p < per_plan.size(); ++p) {
      const std::vector<HitList::Hit>& hits = per_plan[p].per_doc.hits();
      if (next[p] < hits.size()) doc = std::min(doc, hits[next[p]].doc);
    }
    if (doc == SIZE_MAX) return docs;
    docs.push_back(doc);
    for (size_t p = 0; p < per_plan.size(); ++p) {
      const std::vector<HitList::Hit>& hits = per_plan[p].per_doc.hits();
      if (next[p] < hits.size() && hits[next[p]].doc == doc) ++next[p];
    }
  }
}

BatchExtractor::BatchExtractor(BatchOptions options)
    : options_(options), pool_(options.num_threads) {
  threads_.reserve(pool_.num_threads());
  for (size_t i = 0; i < pool_.num_threads(); ++i)
    threads_.push_back(std::make_unique<ThreadState>());
}

// Step: extracts one document into its outputs' empty slots — output o's
// into *slots[o] — adds each output's mappings to sums[o] and any document
// it counts to *counted, and returns the document's mappings over every
// output. Publish(counted) runs once per shard, after its last document.

struct BatchExtractor::ExtractorStep {  // one output: the sorted ⟦γ⟧_d
  const DocumentExtractor& extractor;
  size_t outputs() const { return 1; }
  uint64_t operator()(const Document& doc, PlanScratch* scratch,
                      std::vector<Mapping>* const* slots, uint64_t* sums,
                      uint64_t* /*counted*/) const {
    extractor.ExtractSortedInto(doc, scratch, slots[0]);
    *sums += slots[0]->size();
    return slots[0]->size();
  }
  void Publish(uint64_t /*counted*/) const {}
};

struct BatchExtractor::FleetStep {  // one output per plan: survivors only
  const MultiQueryExtractor& fleet;
  size_t outputs() const { return fleet.num_plans(); }
  uint64_t operator()(const Document& doc, PlanScratch* scratch,
                      std::vector<Mapping>* const* slots, uint64_t* sums,
                      uint64_t* counted) const {
    return fleet.ExtractSurvivorsInto(doc, scratch, slots, sums, counted);
  }
  // The fleet's shared document count takes one write per shard.
  void Publish(uint64_t counted) const { fleet.CountDocuments(counted); }
};

template <typename Source, typename Step>
BatchExtractor::StreamStats BatchExtractor::Drive(
    const Source& source, const Step& step, BatchResult* results,
    const MultiShardConsumer* consumer) {
  StreamStats stats;
  const size_t outputs = step.outputs();
  if (outputs == 0) return stats;

  // Byte-balanced shards, ≈ threads × oversubscription of them so a
  // thread that finishes early claims the next shard when documents are
  // skewed.
  ShardingOptions sharding;
  sharding.max_shards = pool_.num_threads() *
                        std::max<size_t>(1, options_.shard_oversubscription);
  sharding.min_docs_per_shard = options_.min_docs_per_shard;
  const std::vector<Shard> shards = ShardByBytes(
      source.size(), [&](size_t j) { return source.bytes(j); }, sharding);
  stats.shards = shards.size();
  // Row s: shard s's mappings per output, whole cache lines so shards never
  // write to one line; and its documents with any mapping.
  const size_t row = (outputs + 7) & ~size_t{7};
  std::vector<uint64_t> sums(shards.size() * row, 0);
  std::vector<size_t> matched(shards.size(), 0);
  if (shard_hits_.size() < shards.size()) shard_hits_.resize(shards.size());

  // The one task body and the one sink: each document is extracted into
  // this thread's slots, and a matched document's non-empty slots move
  // into the shard's hits. Each shard writes only its own hits and its own
  // row of sums, so nothing needs a lock. Every thread extracts through
  // its own arena-backed scratch; output order is fixed by document order
  // + Mapping sort, so results are byte-identical for any thread count.
  auto extract = [&](size_t s, size_t thread) {
    const Shard& shard = shards[s];
    ThreadState& state = *threads_[thread];
    PlanScratch& scratch = state.scratch;
    scratch.cancel = cancel_;  // unconditionally: clears stale tokens too
    if (state.slots.size() < outputs) {
      state.slots.resize(outputs);
      state.slot_ptrs.clear();
      for (std::vector<Mapping>& slot : state.slots)
        state.slot_ptrs.push_back(&slot);
    }
    std::vector<ShardHit>& hits = shard_hits_[s];
    hits.clear();
    uint64_t* shard_sums = &sums[s * row];
    size_t shard_matched = 0;
    uint64_t counted = 0;
    for (size_t j = shard.begin; j < shard.end; ++j) {
      if (cancel_ != nullptr && cancel_->tripped()) break;
      obs::ObsSpan span(DocHistogram(), "doc", source.id(j));
      if (step(source.doc(j), &scratch, state.slot_ptrs.data(), shard_sums,
               &counted) == 0)
        continue;
      ++shard_matched;
      // Only this document's non-empty slots move out, into an exactly
      // sized vector: the slot keeps its capacity for the next document.
      for (size_t o = 0; o < outputs; ++o) {
        std::vector<Mapping>& out = state.slots[o];
        if (out.empty()) continue;
        hits.push_back(ShardHit{o, j,
                                {std::make_move_iterator(out.begin()),
                                 std::make_move_iterator(out.end())}});
        out.clear();
      }
    }
    step.Publish(counted);
    matched[s] = shard_matched;
  };
  auto tally = [&](size_t s) {
    for (size_t o = 0; o < outputs; ++o)
      stats.total_mappings += sums[s * row + o];
    stats.matched_documents += matched[s];
  };

  if (results != nullptr) {
    pool_.Run(shards.size(), extract);
    // Join: each output's hits are its shards' hits in shard order, so in
    // ascending document order.
    for (size_t o = 0; o < outputs; ++o) {
      results[o].per_doc.num_docs_ = source.num_docs();
      results[o].per_doc.hits_.clear();
      results[o].total_mappings = 0;
      results[o].shards = shards.size();
    }
    for (size_t s = 0; s < shards.size(); ++s) {
      tally(s);
      for (size_t o = 0; o < outputs; ++o)
        results[o].total_mappings += sums[s * row + o];
      for (ShardHit& hit : shard_hits_[s])
        results[hit.output].per_doc.hits_.push_back(
            HitList::Hit{source.id(hit.at), std::move(hit.mappings)});
      shard_hits_[s].clear();
    }
    for (size_t o = 0; o < outputs; ++o) results[o].per_doc.Index();
    return stats;
  }

  // Streaming: extract a window of shards, then hand them to the consumer
  // in corpus order. The window caps materialized results under a slow
  // consumer — strictly below the whole corpus whenever ShardByBytes can
  // cut more shards than the window, i.e. when shard_oversubscription ≥ 3.
  // No task runs while the consumer does, so a throwing consumer unwinds
  // only this frame. Each shard reaches the consumer through one slice:
  // its hits move in, and after the consumer returns exactly those
  // positions are emptied again, so the next shard finds every entry
  // empty. The slice is sized for the widest shard once, at the first
  // hand-off: it then lies above what the first window allocates and
  // keeps (such as lazy-DFA states), so once freed it rejoins the heap's
  // free top instead of leaving a hole below them (reserved before the
  // window, fleet-scan's peak RSS read 76.8 rather than 66.4 MiB). Where
  // malloc trims that top, each call faults the slice in again.
  size_t widest = 0;
  for (const Shard& shard : shards) widest = std::max(widest, shard.size());
  std::vector<std::vector<std::vector<Mapping>>> slice(outputs);
  const size_t window = std::max<size_t>(1, pool_.num_threads() * 2);
  for (size_t begin = 0; begin < shards.size(); begin += window) {
    const size_t end = std::min(begin + window, shards.size());
    pool_.Run(end - begin, [&](size_t i, size_t thread) {
      extract(begin + i, thread);
    });
    for (size_t s = begin; s < end; ++s) {
      tally(s);
      const Shard& shard = shards[s];
      for (std::vector<std::vector<Mapping>>& out : slice) {
        out.reserve(widest);  // allocates at the first hand-off only
        out.resize(shard.size());
      }
      for (ShardHit& hit : shard_hits_[s])
        slice[hit.output][hit.at - shard.begin] = std::move(hit.mappings);
      (*consumer)(shard.begin, shard.end, slice);
      for (const ShardHit& hit : shard_hits_[s])
        slice[hit.output][hit.at - shard.begin] = std::vector<Mapping>();
      shard_hits_[s].clear();
    }
  }
  return stats;
}

BatchResult BatchExtractor::Extract(const DocumentExtractor& extractor,
                                    const Corpus& corpus) {
  BatchResult result;
  ExtractInto(extractor, corpus, &result);
  return result;
}

void BatchExtractor::ExtractInto(const DocumentExtractor& extractor,
                                 const Corpus& corpus, BatchResult* result) {
  Drive(CorpusSource{corpus}, ExtractorStep{extractor}, result, nullptr);
}

BatchExtractor::StreamStats BatchExtractor::ExtractStream(
    const DocumentExtractor& extractor, const Corpus& corpus,
    const ShardConsumer& consumer) {
  const MultiShardConsumer consume =
      [&consumer](size_t doc_begin, size_t doc_end,
                  std::vector<std::vector<std::vector<Mapping>>>& slice) {
        consumer(doc_begin, doc_end, slice[0]);
      };
  return Drive(CorpusSource{corpus}, ExtractorStep{extractor}, nullptr,
               &consume);
}

MultiBatchResult BatchExtractor::ExtractMulti(
    const MultiQueryExtractor& fleet, const Corpus& corpus) {
  MultiBatchResult result;
  ExtractMultiInto(fleet, corpus, &result);
  return result;
}

void BatchExtractor::ExtractMultiInto(const MultiQueryExtractor& fleet,
                                      const Corpus& corpus,
                                      MultiBatchResult* result) {
  result->per_plan.resize(fleet.num_plans());
  const StreamStats run = Drive(CorpusSource{corpus}, FleetStep{fleet},
                                result->per_plan.data(), nullptr);
  result->total_mappings = run.total_mappings;
  result->shards = run.shards;
}

BatchExtractor::StreamStats BatchExtractor::ExtractMultiStream(
    const MultiQueryExtractor& fleet, const Corpus& corpus,
    const MultiShardConsumer& consumer) {
  return Drive(CorpusSource{corpus}, FleetStep{fleet}, nullptr, &consumer);
}

BatchResult BatchExtractor::ExtractIndexed(const ExtractionPlan& plan,
                                           const storage::SegmentStore& store,
                                           const storage::NgramIndex* index,
                                           IndexedStats* stats) {
  BatchResult result;
  WithCandidates(index, store.num_docs(), {&plan.prefilter()}, stats,
                 [&](const storage::CandidateSet& cand) {
                   Drive(StoreSource{store, cand}, ExtractorStep{plan},
                         &result, nullptr);
                 });
  return result;
}

MultiBatchResult BatchExtractor::ExtractIndexedMulti(
    const MultiQueryExtractor& fleet, const storage::SegmentStore& store,
    const storage::NgramIndex* index, IndexedStats* stats) {
  MultiBatchResult result;
  result.per_plan.resize(fleet.num_plans());
  std::vector<const Prefilter*> prefilters;
  for (size_t p = 0; p < fleet.num_plans(); ++p)
    prefilters.push_back(&fleet.plan(p).prefilter());
  WithCandidates(index, store.num_docs(), prefilters, stats,
                 [&](const storage::CandidateSet& cand) {
                   const StreamStats run =
                       Drive(StoreSource{store, cand}, FleetStep{fleet},
                             result.per_plan.data(), nullptr);
                   result.total_mappings = run.total_mappings;
                   result.shards = run.shards;
                 });
  return result;
}

}  // namespace engine
}  // namespace spanners
