#include "engine/batch_extractor.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
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

/// Byte-balanced contiguous shards over an arbitrary per-item size list —
/// the candidate-docid analogue of ShardCorpus (which needs a Corpus, and
/// indexed extraction deliberately has none until documents materialize).
std::vector<Shard> ShardSizes(const std::vector<uint64_t>& sizes,
                              const ShardingOptions& options) {
  std::vector<Shard> shards;
  if (sizes.empty()) return shards;
  uint64_t total = 0;
  for (uint64_t s : sizes) total += s;
  const size_t max_shards = std::max<size_t>(1, options.max_shards);
  const uint64_t target = std::max<uint64_t>(1, total / max_shards);

  Shard cur{0, 0};
  uint64_t acc = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    cur.end = i + 1;
    acc += sizes[i];
    if (acc >= target && cur.size() >= options.min_docs_per_shard &&
        shards.size() + 1 < max_shards) {
      shards.push_back(cur);
      cur = Shard{i + 1, i + 1};
      acc = 0;
    }
  }
  if (cur.size() > 0) shards.push_back(cur);
  return shards;
}

/// Snapshot of this process's page-fault counters (minor, major).
std::pair<uint64_t, uint64_t> PageFaults() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return {0, 0};
  return {static_cast<uint64_t>(ru.ru_minflt),
          static_cast<uint64_t>(ru.ru_majflt)};
}

/// Mirrors one indexed call's accounting into the obs index.* metrics.
void RecordIndexedStats(const IndexedStats& stats) {
  if (!obs::Enabled()) return;
  auto& reg = obs::MetricsRegistry::Global();
  static obs::Counter* corpus_docs = reg.GetCounter("index.corpus_docs");
  static obs::Counter* candidate_docs =
      reg.GetCounter("index.candidate_docs");
  static obs::Counter* postings = reg.GetCounter("index.postings_touched");
  static obs::Counter* terms = reg.GetCounter("index.terms_probed");
  static obs::Counter* minflt = reg.GetCounter("index.minor_faults");
  static obs::Counter* majflt = reg.GetCounter("index.major_faults");
  static obs::Histogram* lookup_ns = reg.GetHistogram("index.lookup_ns");
  corpus_docs->Add(stats.corpus_docs);
  candidate_docs->Add(stats.candidate_docs);
  postings->Add(stats.postings_touched);
  terms->Add(stats.terms_probed);
  minflt->Add(stats.minor_faults);
  majflt->Add(stats.major_faults);
  lookup_ns->Record(stats.lookup_ns);
}

/// Plan p's per-document result slots, for the fleet's survivor path.
std::vector<std::vector<Mapping>*> PlanSlots(MultiBatchResult* result) {
  std::vector<std::vector<Mapping>*> slots;
  slots.reserve(result->per_plan.size());
  for (BatchResult& br : result->per_plan) slots.push_back(br.per_doc.data());
  return slots;
}

/// Folds per-shard, per-plan mapping sums (row s holds shard s's sums of
/// the plans in order) into the per-plan and fleet totals.
void SumPlanMappings(const std::vector<uint64_t>& mappings,
                     MultiBatchResult* result) {
  const size_t num_plans = result->per_plan.size();
  for (size_t k = 0; k < mappings.size(); ++k)
    result->per_plan[k % num_plans].total_mappings += mappings[k];
  for (const BatchResult& br : result->per_plan)
    result->total_mappings += br.total_mappings;
}

}  // namespace

size_t BatchResult::MatchedDocuments() const {
  size_t n = 0;
  for (const auto& ms : per_doc)
    if (!ms.empty()) ++n;
  return n;
}

BatchExtractor::BatchExtractor(BatchOptions options)
    : options_(options), pool_(options.num_threads) {
  worker_scratch_.reserve(pool_.num_threads());
  for (size_t i = 0; i < pool_.num_threads(); ++i)
    worker_scratch_.push_back(std::make_unique<PlanScratch>());
}

BatchResult BatchExtractor::Extract(const DocumentExtractor& extractor,
                                    const Corpus& corpus) {
  BatchResult result;
  ExtractInto(extractor, corpus, &result);
  return result;
}

ShardingOptions BatchExtractor::MakeShardingOptions() const {
  ShardingOptions sharding;
  sharding.max_shards =
      pool_.num_threads() *
      (options_.shard_oversubscription == 0 ? 1
                                            : options_.shard_oversubscription);
  sharding.min_docs_per_shard = options_.min_docs_per_shard;
  return sharding;
}

void BatchExtractor::ExtractInto(const DocumentExtractor& extractor,
                                 const Corpus& corpus, BatchResult* result) {
  result->per_doc.resize(corpus.size());
  result->total_mappings = 0;
  result->shards = 0;
  if (corpus.empty()) return;

  std::vector<Shard> shards = ShardCorpus(corpus, MakeShardingOptions());
  result->shards = shards.size();

  // One task per shard; each writes only its own slots of per_doc, so no
  // synchronization is needed beyond the pool's completion barrier. Every
  // worker extracts through its own arena-backed scratch, Reset() between
  // documents; a reused result's previous mappings are recycled into the
  // extracting worker's pool. Output order is fixed by document slot +
  // Mapping sort, so results are byte-identical for any thread count.
  for (const Shard& shard : shards) {
    pool_.Submit([this, &extractor, &corpus, result, shard] {
      PlanScratch& scratch =
          *worker_scratch_[ThreadPool::CurrentWorkerIndex()];
      scratch.cancel = cancel_;  // unconditionally: clears stale tokens too
      for (size_t i = shard.begin; i < shard.end; ++i) {
        if (cancel_ != nullptr && cancel_->tripped()) break;
        obs::ObsSpan span(DocHistogram(), "doc", i);
        extractor.ExtractSortedInto(corpus[i], &scratch, &result->per_doc[i]);
      }
    });
  }
  pool_.WaitIdle();

  for (const auto& ms : result->per_doc) result->total_mappings += ms.size();
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
  const size_t num_plans = fleet.num_plans();
  result->per_plan.resize(num_plans);
  result->total_mappings = 0;
  result->shards = 0;
  for (BatchResult& br : result->per_plan) {
    br.per_doc.resize(corpus.size());
    br.total_mappings = 0;
    br.shards = 0;
  }
  if (corpus.empty() || num_plans == 0) return;

  std::vector<Shard> shards = ShardCorpus(corpus, MakeShardingOptions());
  result->shards = shards.size();
  for (BatchResult& br : result->per_plan) br.shards = shards.size();

  // Exactly the Extract layout — one task per shard, each writing only
  // its own per-document slots — except that a task extracts every plan
  // of the fleet from a document while its text is hot: one shared AC
  // scan, then the surviving plans' evaluators, all through this worker's
  // scratch. A reused result's stale slots are emptied first, plan by
  // plan over the shard's contiguous range, so the per-document path
  // touches only survivors. Each shard sums its survivors' mappings per
  // plan into its own row of `mappings`.
  const std::vector<std::vector<Mapping>*> slots = PlanSlots(result);
  std::vector<uint64_t> mappings(shards.size() * num_plans, 0);
  for (size_t s = 0; s < shards.size(); ++s) {
    pool_.Submit([this, &fleet, &corpus, &slots, &mappings, num_plans,
                  shard = shards[s], s] {
      PlanScratch& scratch =
          *worker_scratch_[ThreadPool::CurrentWorkerIndex()];
      scratch.cancel = cancel_;
      for (size_t p = 0; p < num_plans; ++p)
        for (size_t i = shard.begin; i < shard.end; ++i)
          if (!slots[p][i].empty()) scratch.pool.RecycleAll(&slots[p][i]);
      uint64_t* shard_mappings = &mappings[s * num_plans];
      for (size_t i = shard.begin; i < shard.end; ++i) {
        if (cancel_ != nullptr && cancel_->tripped()) break;
        obs::ObsSpan span(DocHistogram(), "doc", i);
        fleet.ExtractSurvivorsInto(corpus[i], &scratch, slots.data(), i,
                                   shard_mappings);
      }
    });
  }
  pool_.WaitIdle();
  SumPlanMappings(mappings, result);
}

BatchResult BatchExtractor::ExtractIndexed(const ExtractionPlan& plan,
                                           const storage::SegmentStore& store,
                                           const storage::NgramIndex* index,
                                           IndexedStats* stats) {
  BatchResult result;
  const size_t num_docs = store.num_docs();
  result.per_doc.assign(num_docs, {});

  IndexedStats local;
  local.corpus_docs = num_docs;
  const std::pair<uint64_t, uint64_t> faults0 = PageFaults();

  storage::CandidateSet cand;  // all = true: scan everything
  if (index != nullptr) {
    storage::LookupStats lookup;
    const auto t0 = std::chrono::steady_clock::now();
    cand = index->Candidates(plan.prefilter(), &lookup);
    local.lookup_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    local.postings_touched = lookup.postings_touched;
    local.terms_probed = lookup.terms_probed;
  }
  local.narrowed = !cand.all;
  local.candidate_docs = cand.CountIn(num_docs);

  if (local.candidate_docs > 0) {
    // Byte-balanced shards over the candidate list; each task materializes
    // its own candidates out of the mapping and writes only its own
    // per-docid slots — the same determinism argument as ExtractInto, so
    // the result is byte-identical for every thread count. Non-candidates
    // keep their empty slots untouched.
    std::vector<uint64_t> sizes(local.candidate_docs);
    for (size_t j = 0; j < sizes.size(); ++j)
      sizes[j] = store.doc_bytes(cand.all ? j : cand.docs[j]);
    const std::vector<Shard> shards =
        ShardSizes(sizes, MakeShardingOptions());
    result.shards = shards.size();
    for (const Shard& shard : shards) {
      pool_.Submit([this, &plan, &store, &cand, &result, shard] {
        PlanScratch& scratch =
            *worker_scratch_[ThreadPool::CurrentWorkerIndex()];
        scratch.cancel = cancel_;
        for (size_t j = shard.begin; j < shard.end; ++j) {
          if (cancel_ != nullptr && cancel_->tripped()) break;
          const size_t d = cand.all ? j : cand.docs[j];
          obs::ObsSpan span(DocHistogram(), "doc", d);
          const Document doc = store.MaterializeDoc(d);
          plan.ExtractSortedInto(doc, &scratch, &result.per_doc[d]);
        }
      });
    }
    pool_.WaitIdle();
  }

  // Only candidates can hold mappings.
  for (size_t j = 0; j < local.candidate_docs; ++j)
    result.total_mappings += result.per_doc[cand.all ? j : cand.docs[j]].size();
  const std::pair<uint64_t, uint64_t> faults1 = PageFaults();
  local.minor_faults = faults1.first - faults0.first;
  local.major_faults = faults1.second - faults0.second;
  RecordIndexedStats(local);
  if (stats != nullptr) *stats = local;
  return result;
}

MultiBatchResult BatchExtractor::ExtractIndexedMulti(
    const MultiQueryExtractor& fleet, const storage::SegmentStore& store,
    const storage::NgramIndex* index, IndexedStats* stats) {
  MultiBatchResult result;
  const size_t num_docs = store.num_docs();
  const size_t num_plans = fleet.num_plans();
  result.per_plan.resize(num_plans);
  for (BatchResult& br : result.per_plan) br.per_doc.assign(num_docs, {});

  IndexedStats local;
  local.corpus_docs = num_docs;
  if (num_plans == 0) {
    if (stats != nullptr) *stats = local;
    return result;
  }
  const std::pair<uint64_t, uint64_t> faults0 = PageFaults();

  // A document is a candidate when it is a candidate for ANY resident
  // plan; a plan the index cannot narrow widens the union to the whole
  // store (its matches could be anywhere).
  storage::CandidateSet cand;
  if (index != nullptr) {
    storage::LookupStats lookup;
    const auto t0 = std::chrono::steady_clock::now();
    cand.all = false;
    for (size_t p = 0; p < num_plans; ++p) {
      storage::CandidateSet c =
          index->Candidates(fleet.plan(p).prefilter(), &lookup);
      if (c.all) {
        cand.all = true;
        cand.docs.clear();
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

  if (local.candidate_docs > 0) {
    std::vector<uint64_t> sizes(local.candidate_docs);
    for (size_t j = 0; j < sizes.size(); ++j)
      sizes[j] = store.doc_bytes(cand.all ? j : cand.docs[j]);
    const std::vector<Shard> shards =
        ShardSizes(sizes, MakeShardingOptions());
    result.shards = shards.size();
    for (BatchResult& br : result.per_plan) br.shards = shards.size();
    // The result is fresh, so every slot starts empty: the survivor path
    // applies directly, with per-shard mapping sums as in ExtractMultiInto.
    const std::vector<std::vector<Mapping>*> slots = PlanSlots(&result);
    std::vector<uint64_t> mappings(shards.size() * num_plans, 0);
    for (size_t s = 0; s < shards.size(); ++s) {
      pool_.Submit([this, &fleet, &store, &cand, &slots, &mappings, num_plans,
                    shard = shards[s], s] {
        PlanScratch& scratch =
            *worker_scratch_[ThreadPool::CurrentWorkerIndex()];
        scratch.cancel = cancel_;
        uint64_t* shard_mappings = &mappings[s * num_plans];
        for (size_t j = shard.begin; j < shard.end; ++j) {
          if (cancel_ != nullptr && cancel_->tripped()) break;
          const size_t d = cand.all ? j : cand.docs[j];
          obs::ObsSpan span(DocHistogram(), "doc", d);
          const Document doc = store.MaterializeDoc(d);
          fleet.ExtractSurvivorsInto(doc, &scratch, slots.data(), d,
                                     shard_mappings);
        }
      });
    }
    pool_.WaitIdle();
    SumPlanMappings(mappings, &result);
  }

  const std::pair<uint64_t, uint64_t> faults1 = PageFaults();
  local.minor_faults = faults1.first - faults0.first;
  local.major_faults = faults1.second - faults0.second;
  RecordIndexedStats(local);
  if (stats != nullptr) *stats = local;
  return result;
}

BatchExtractor::StreamStats BatchExtractor::ExtractMultiStream(
    const MultiQueryExtractor& fleet, const Corpus& corpus,
    const MultiShardConsumer& consumer) {
  StreamStats stats;
  const size_t num_plans = fleet.num_plans();
  if (corpus.empty() || num_plans == 0) return stats;

  const std::vector<Shard> shards =
      ShardCorpus(corpus, MakeShardingOptions());
  stats.shards = shards.size();

  // Same ordered-drain machinery as ExtractStream, with a per-plan slice
  // per shard. The slices start empty, so tasks take the survivor path
  // and tally the shard's mappings and matched documents as they go.
  struct ShardState {
    std::vector<std::vector<std::vector<Mapping>>> per_plan;
    uint64_t mappings = 0;
    size_t matched_documents = 0;
    bool done = false;  // guarded by mu
  };
  std::vector<ShardState> state(shards.size());
  std::mutex mu;
  std::condition_variable cv;
  const size_t window = std::max<size_t>(1, pool_.num_threads() * 2);

  auto submit = [&](size_t s) {
    pool_.Submit([this, &fleet, &corpus, &shards, &state, &mu, &cv,
                  num_plans, s] {
      PlanScratch& scratch =
          *worker_scratch_[ThreadPool::CurrentWorkerIndex()];
      scratch.cancel = cancel_;
      const Shard& shard = shards[s];
      ShardState& st = state[s];
      st.per_plan.assign(num_plans,
                         std::vector<std::vector<Mapping>>(shard.size()));
      std::vector<std::vector<Mapping>*> slots(num_plans);
      for (size_t p = 0; p < num_plans; ++p) slots[p] = st.per_plan[p].data();
      for (size_t i = shard.begin; i < shard.end; ++i) {
        if (cancel_ != nullptr && cancel_->tripped()) break;
        obs::ObsSpan span(DocHistogram(), "doc", i);
        const uint64_t n = fleet.ExtractSurvivorsInto(
            corpus[i], &scratch, slots.data(), i - shard.begin, nullptr);
        st.mappings += n;
        if (n > 0) ++st.matched_documents;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        st.done = true;
      }
      cv.notify_all();
    });
  };

  struct DrainGuard {
    ThreadPool& pool;
    ~DrainGuard() { pool.WaitIdle(); }
  } drain{pool_};

  size_t next_submit = 0;
  for (size_t consumed = 0; consumed < shards.size(); ++consumed) {
    while (next_submit < shards.size() && next_submit < consumed + window)
      submit(next_submit++);
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return state[consumed].done; });
    }
    ShardState& st = state[consumed];
    stats.total_mappings += st.mappings;
    stats.matched_documents += st.matched_documents;
    consumer(shards[consumed].begin, shards[consumed].end, st.per_plan);
    std::vector<std::vector<std::vector<Mapping>>>().swap(st.per_plan);
  }
  return stats;
}

BatchExtractor::StreamStats BatchExtractor::ExtractStream(
    const DocumentExtractor& extractor, const Corpus& corpus,
    const ShardConsumer& consumer) {
  StreamStats stats;
  if (corpus.empty()) return stats;

  const ShardingOptions sharding = MakeShardingOptions();
  const std::vector<Shard> shards = ShardCorpus(corpus, sharding);
  stats.shards = shards.size();

  // Workers fill per-shard slices and flag completion; the calling thread
  // drains completed shards strictly in corpus order, so the emitted
  // stream is deterministic for any thread count. Submission lags
  // consumption by a bounded window, which caps in-flight result memory.
  struct ShardState {
    std::vector<std::vector<Mapping>> per_doc;
    bool done = false;  // guarded by mu
  };
  std::vector<ShardState> state(shards.size());
  std::mutex mu;
  std::condition_variable cv;
  // In-flight bound: enough shards to keep every worker busy while the
  // consumer drains, but strictly fewer than ShardCorpus can produce
  // (max_shards = threads × oversubscription), so a slow consumer
  // genuinely caps materialized results instead of admitting them all.
  const size_t window = std::max<size_t>(1, pool_.num_threads() * 2);

  auto submit = [&](size_t s) {
    pool_.Submit([this, &extractor, &corpus, &shards, &state, &mu, &cv, s] {
      PlanScratch& scratch =
          *worker_scratch_[ThreadPool::CurrentWorkerIndex()];
      scratch.cancel = cancel_;
      const Shard& shard = shards[s];
      ShardState& st = state[s];
      st.per_doc.resize(shard.size());
      for (size_t i = shard.begin; i < shard.end; ++i) {
        if (cancel_ != nullptr && cancel_->tripped()) break;
        obs::ObsSpan span(DocHistogram(), "doc", i);
        extractor.ExtractSortedInto(corpus[i], &scratch,
                                    &st.per_doc[i - shard.begin]);
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        st.done = true;
      }
      cv.notify_all();
    });
  };

  // Submitted tasks reference the locals above; if the consumer throws,
  // they must all finish before this frame unwinds.
  struct DrainGuard {
    ThreadPool& pool;
    ~DrainGuard() { pool.WaitIdle(); }
  } drain{pool_};

  size_t next_submit = 0;
  for (size_t consumed = 0; consumed < shards.size(); ++consumed) {
    while (next_submit < shards.size() && next_submit < consumed + window)
      submit(next_submit++);
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return state[consumed].done; });
    }
    ShardState& st = state[consumed];
    for (const auto& ms : st.per_doc) {
      stats.total_mappings += ms.size();
      if (!ms.empty()) ++stats.matched_documents;
    }
    consumer(shards[consumed].begin, shards[consumed].end, st.per_doc);
    // Release the slice eagerly: streamed memory stays bounded even when
    // one shard produced a huge result.
    std::vector<std::vector<Mapping>>().swap(st.per_doc);
  }
  return stats;
}

}  // namespace engine
}  // namespace spanners
