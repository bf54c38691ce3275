// Engine throughput: documents/sec and mappings/sec of BatchExtractor over
// generated corpora, swept by thread count. The interesting curves:
// scaling of the sequential-fragment workloads (land registry, server log)
// with threads, the allocations/doc trajectory of the arena-backed hot
// path (near zero in steady state), the telemetry on/off overhead the CI
// gate enforces, and the plan-cache hit path vs. fresh compilation.
// tools/run_bench.sh runs this binary and records the JSON output as
// BENCH_engine.json.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <new>

#include "common/cancel.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "query/compile.h"
#include "query/parser.h"
#include "storage/ngram_index.h"
#include "storage/segment.h"
#include "workload/generators.h"

// ---- allocation accounting ----------------------------------------------
// Process-wide operator new override reporting every heap allocation into
// the telemetry registry's allocation counter (obs::HeapAllocCount, the
// "mem.heap_allocs" snapshot metric), so the benchmarks' allocs/doc column
// and a --metrics snapshot agree on what they count. Defers to malloc/free
// for the actual memory.

void* operator new(std::size_t size) {
  spanners::obs::CountHeapAlloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  spanners::obs::CountHeapAlloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace spanners;
using namespace spanners::engine;

ExtractionPlan LandRegistryPlan() {
  return ExtractionPlan::FromSpanner(
      Spanner::FromRgx(workload::SellerNameTaxRgx()));
}

void ReportBatchCounters(benchmark::State& state, size_t corpus_size,
                         uint64_t mappings, uint64_t allocs) {
  const double docs =
      static_cast<double>(state.iterations()) * static_cast<double>(corpus_size);
  state.SetItemsProcessed(static_cast<int64_t>(docs));
  state.counters["docs/s"] =
      benchmark::Counter(docs, benchmark::Counter::kIsRate);
  state.counters["mappings/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * mappings),
      benchmark::Counter::kIsRate);
  state.counters["allocs/doc"] =
      benchmark::Counter(docs == 0 ? 0 : static_cast<double>(allocs) / docs);
}

// docs/sec, mappings/sec and allocations/doc over the Table 1 CSV corpus,
// thread sweep.
void BM_BatchExtract_LandRegistry(benchmark::State& state) {
  workload::CorpusOptions o;
  o.documents = 1000;
  o.rows_per_document = 4;
  Corpus corpus(workload::LandRegistryCorpus(o));
  ExtractionPlan plan = LandRegistryPlan();
  BatchOptions bo;
  bo.num_threads = static_cast<size_t>(state.range(0));
  bo.min_docs_per_shard = 8;
  BatchExtractor extractor(bo);

  // Refills one BatchResult (ExtractInto), as a repeated caller does; its
  // hits are replaced, so each matched document's hit vector and mapping
  // entries are allocated afresh and counted in allocs/doc.
  BatchResult result;
  extractor.ExtractInto(plan, corpus, &result);  // warm-up, not counted
  uint64_t mappings = 0;
  const uint64_t allocs_before = obs::HeapAllocCount();
  for (auto _ : state) {
    extractor.ExtractInto(plan, corpus, &result);
    mappings = result.total_mappings;
    benchmark::DoNotOptimize(result);
  }
  ReportBatchCounters(state, corpus.size(), mappings,
                      obs::HeapAllocCount() - allocs_before);
  state.counters["threads"] = static_cast<double>(bo.num_threads);
}
BENCHMARK(BM_BatchExtract_LandRegistry)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Same sweep over the server-log corpus (3 variables, optional field).
void BM_BatchExtract_ServerLog(benchmark::State& state) {
  workload::CorpusOptions o;
  o.documents = 500;
  o.rows_per_document = 3;
  Corpus corpus(workload::ServerLogCorpus(o));
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::LogLineRgx()));
  BatchOptions bo;
  bo.num_threads = static_cast<size_t>(state.range(0));
  bo.min_docs_per_shard = 8;
  BatchExtractor extractor(bo);

  BatchResult result;
  extractor.ExtractInto(plan, corpus, &result);  // warm-up, not counted
  uint64_t mappings = 0;
  const uint64_t allocs_before = obs::HeapAllocCount();
  for (auto _ : state) {
    extractor.ExtractInto(plan, corpus, &result);
    mappings = result.total_mappings;
    benchmark::DoNotOptimize(result);
  }
  ReportBatchCounters(state, corpus.size(), mappings,
                      obs::HeapAllocCount() - allocs_before);
}
BENCHMARK(BM_BatchExtract_ServerLog)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Low-selectivity needle-in-haystack corpus (1% of documents match): the
// common batch-extraction case. The gated path memchr-scans for required
// literals and consults the cached lazy DFA before touching an evaluator,
// so the 99% non-matching documents cost a substring scan each; the
// NoGate variant runs the plain evaluator on every document (the pre-gate
// engine behaviour) for comparison.
void BM_BatchExtract_LowSelectivity(benchmark::State& state) {
  workload::NeedleOptions o;  // 2000 docs × ~512B, 1% match rate
  Corpus corpus(workload::NeedleCorpus(o));
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::NeedleRgx()));
  BatchOptions bo;
  bo.num_threads = static_cast<size_t>(state.range(0));
  bo.min_docs_per_shard = 8;
  BatchExtractor extractor(bo);

  BatchResult result;
  extractor.ExtractInto(plan, corpus, &result);  // warm-up, not counted
  uint64_t mappings = 0;
  const uint64_t allocs_before = obs::HeapAllocCount();
  for (auto _ : state) {
    extractor.ExtractInto(plan, corpus, &result);
    mappings = result.total_mappings;
    benchmark::DoNotOptimize(result);
  }
  ReportBatchCounters(state, corpus.size(), mappings,
                      obs::HeapAllocCount() - allocs_before);
  state.counters["matched_docs"] =
      static_cast<double>(result.MatchedDocuments());
}
BENCHMARK(BM_BatchExtract_LowSelectivity)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_BatchExtract_LowSelectivity_NoGate(benchmark::State& state) {
  workload::NeedleOptions o;
  Corpus corpus(workload::NeedleCorpus(o));
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::NeedleRgx()));
  plan.set_gating_enabled(false);
  BatchOptions bo;
  bo.num_threads = static_cast<size_t>(state.range(0));
  bo.min_docs_per_shard = 8;
  BatchExtractor extractor(bo);

  BatchResult result;
  extractor.ExtractInto(plan, corpus, &result);  // warm-up, not counted
  uint64_t mappings = 0;
  const uint64_t allocs_before = obs::HeapAllocCount();
  for (auto _ : state) {
    extractor.ExtractInto(plan, corpus, &result);
    mappings = result.total_mappings;
    benchmark::DoNotOptimize(result);
  }
  ReportBatchCounters(state, corpus.size(), mappings,
                      obs::HeapAllocCount() - allocs_before);
}
BENCHMARK(BM_BatchExtract_LowSelectivity_NoGate)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Multi-query fleet workload: 32 resident needle plans, each matching ~1%
// of one shared corpus — the "many cached queries, same documents" serving
// case. The single-pass extractor scans each document once with the
// fleet's combined Aho–Corasick gate and only runs surviving plans'
// evaluators; the sequential baseline below runs the same (individually
// gated) plans one full corpus sweep each. Both report docs/s as corpus
// documents per wall second *for the whole fleet*, so the two numbers are
// directly comparable and tools/run_bench.sh gates multi ≥ sequential.
std::vector<std::shared_ptr<const ExtractionPlan>> FleetPlans(
    const std::vector<std::string>& patterns) {
  std::vector<std::shared_ptr<const ExtractionPlan>> plans;
  plans.reserve(patterns.size());
  for (const std::string& p : patterns)
    plans.push_back(std::make_shared<const ExtractionPlan>(
        ExtractionPlan::Compile(p).ValueOrDie()));
  return plans;
}

void BM_MultiQueryExtract_Fleet(benchmark::State& state) {
  workload::FleetOptions o;  // 32 plans × 1% match over 2000 × ~512B docs
  workload::PatternFleet generated = workload::MakePatternFleet(o);
  Corpus corpus(std::move(generated.documents));
  MultiQueryExtractor fleet(FleetPlans(generated.patterns));
  BatchOptions bo;
  bo.num_threads = static_cast<size_t>(state.range(0));
  bo.min_docs_per_shard = 8;
  BatchExtractor extractor(bo);

  MultiBatchResult result;
  extractor.ExtractMultiInto(fleet, corpus, &result);  // warm-up
  uint64_t mappings = 0;
  const uint64_t allocs_before = obs::HeapAllocCount();
  for (auto _ : state) {
    extractor.ExtractMultiInto(fleet, corpus, &result);
    mappings = result.total_mappings;
    benchmark::DoNotOptimize(result);
  }
  ReportBatchCounters(state, corpus.size(), mappings,
                      obs::HeapAllocCount() - allocs_before);
  state.counters["plans"] = static_cast<double>(fleet.num_plans());
}
BENCHMARK(BM_MultiQueryExtract_Fleet)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SequentialPlans_Fleet(benchmark::State& state) {
  workload::FleetOptions o;
  workload::PatternFleet generated = workload::MakePatternFleet(o);
  Corpus corpus(std::move(generated.documents));
  std::vector<std::shared_ptr<const ExtractionPlan>> plans =
      FleetPlans(generated.patterns);
  BatchOptions bo;
  bo.num_threads = static_cast<size_t>(state.range(0));
  bo.min_docs_per_shard = 8;
  BatchExtractor extractor(bo);

  std::vector<BatchResult> results(plans.size());
  for (size_t p = 0; p < plans.size(); ++p)
    extractor.ExtractInto(*plans[p], corpus, &results[p]);  // warm-up
  uint64_t mappings = 0;
  const uint64_t allocs_before = obs::HeapAllocCount();
  for (auto _ : state) {
    mappings = 0;
    for (size_t p = 0; p < plans.size(); ++p) {
      extractor.ExtractInto(*plans[p], corpus, &results[p]);
      mappings += results[p].total_mappings;
    }
    benchmark::DoNotOptimize(results);
  }
  ReportBatchCounters(state, corpus.size(), mappings,
                      obs::HeapAllocCount() - allocs_before);
  state.counters["plans"] = static_cast<double>(plans.size());
}
BENCHMARK(BM_SequentialPlans_Fleet)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Paired comparison of the same two paths, immune to machine drift: each
// iteration runs one single-pass fleet extraction and one sequential
// per-plan sweep back to back and accumulates each side's time, so the
// reported multi/sequential docs/s — and the speedup counter the CI gate
// checks — compare within-iteration instead of minutes apart. (The two
// separate benches above still provide the thread sweep and the absolute
// trajectory.)
void BM_FleetSinglePassVsSequential(benchmark::State& state) {
  workload::FleetOptions o;
  workload::PatternFleet generated = workload::MakePatternFleet(o);
  Corpus corpus(std::move(generated.documents));
  std::vector<std::shared_ptr<const ExtractionPlan>> plans =
      FleetPlans(generated.patterns);
  MultiQueryExtractor fleet(plans);
  BatchOptions bo;
  bo.num_threads = 1;
  bo.min_docs_per_shard = 8;
  BatchExtractor extractor(bo);

  MultiBatchResult multi_result;
  std::vector<BatchResult> seq_results(plans.size());
  extractor.ExtractMultiInto(fleet, corpus, &multi_result);  // warm-up
  for (size_t p = 0; p < plans.size(); ++p)
    extractor.ExtractInto(*plans[p], corpus, &seq_results[p]);

  using Clock = std::chrono::steady_clock;
  double multi_s = 0, seq_s = 0;
  for (auto _ : state) {
    auto t0 = Clock::now();
    extractor.ExtractMultiInto(fleet, corpus, &multi_result);
    auto t1 = Clock::now();
    for (size_t p = 0; p < plans.size(); ++p)
      extractor.ExtractInto(*plans[p], corpus, &seq_results[p]);
    auto t2 = Clock::now();
    multi_s += std::chrono::duration<double>(t1 - t0).count();
    seq_s += std::chrono::duration<double>(t2 - t1).count();
    benchmark::DoNotOptimize(multi_result);
    benchmark::DoNotOptimize(seq_results);
  }
  const double docs =
      static_cast<double>(state.iterations()) * corpus.size();
  state.counters["multi_docs/s"] = multi_s > 0 ? docs / multi_s : 0;
  state.counters["sequential_docs/s"] = seq_s > 0 ? docs / seq_s : 0;
  state.counters["speedup"] = multi_s > 0 ? seq_s / multi_s : 0;
  state.counters["plans"] = static_cast<double>(plans.size());
}
BENCHMARK(BM_FleetSinglePassVsSequential)
    ->Arg(1)  // single-thread; also keeps the name in the /1/ quick filter
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Posting-list-gated extraction over a persisted segment vs. the full
// in-memory scan, paired within the iteration like the fleet comparison
// above: each iteration runs one ExtractIndexed over the mmap'd segment
// (trigram index narrows 2000 docs to the ~1% candidates, only those are
// materialized) and one ExtractInto full sweep back to back. The speedup
// counter is what tools/run_bench.sh gates — on a needle corpus the index
// must never make extraction slower than scanning. Setup writes the
// segment to a temp file so the bench exercises the real mmap read path.
void BM_IndexedExtract_Needle(benchmark::State& state) {
  workload::NeedleOptions o;  // 2000 docs × ~512B, 1% match rate
  Corpus corpus(workload::NeedleCorpus(o));
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::NeedleRgx()));
  BatchOptions bo;
  bo.num_threads = 1;
  bo.min_docs_per_shard = 8;
  BatchExtractor extractor(bo);

  char path[] = "/tmp/spanners_bench_segment_XXXXXX";
  const int fd = mkstemp(path);
  if (fd < 0) {
    state.SkipWithError("mkstemp failed");
    return;
  }
  close(fd);
  const Status written = storage::SegmentStore::Write(corpus, path);
  Result<storage::SegmentStore> opened = storage::SegmentStore::Open(path);
  if (!written.ok() || !opened.ok()) {
    unlink(path);
    state.SkipWithError("segment write/open failed");
    return;
  }
  const storage::SegmentStore store = std::move(opened).value();
  const storage::NgramIndex index = storage::NgramIndex::Build(store);

  BatchResult indexed_result, scan_result;
  IndexedStats istats;
  extractor.ExtractIndexed(plan, store, &index, &istats);  // warm-up
  extractor.ExtractInto(plan, corpus, &scan_result);

  using Clock = std::chrono::steady_clock;
  double indexed_s = 0, scan_s = 0;
  uint64_t mappings = 0;
  for (auto _ : state) {
    auto t0 = Clock::now();
    indexed_result = extractor.ExtractIndexed(plan, store, &index);
    auto t1 = Clock::now();
    extractor.ExtractInto(plan, corpus, &scan_result);
    auto t2 = Clock::now();
    indexed_s += std::chrono::duration<double>(t1 - t0).count();
    scan_s += std::chrono::duration<double>(t2 - t1).count();
    mappings = indexed_result.total_mappings;
    benchmark::DoNotOptimize(indexed_result);
    benchmark::DoNotOptimize(scan_result);
  }
  unlink(path);

  const double docs =
      static_cast<double>(state.iterations()) * corpus.size();
  state.counters["indexed_docs/s"] = indexed_s > 0 ? docs / indexed_s : 0;
  state.counters["scan_docs/s"] = scan_s > 0 ? docs / scan_s : 0;
  state.counters["speedup"] = indexed_s > 0 ? scan_s / indexed_s : 0;
  state.counters["candidate_ratio"] = istats.CandidateRatio();
  state.counters["mappings"] = static_cast<double>(mappings);
}
BENCHMARK(BM_IndexedExtract_Needle)
    ->Arg(1)  // single-thread; also keeps the name in the /1/ quick filter
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Index construction throughput: the two counting passes + varint
// encode over the needle segment, reported as corpus MB/s. Tracks the
// "index build MB/s" obs counter pair (index.build_bytes /
// index.build_ns) from the other side.
void BM_IndexBuild_Needle(benchmark::State& state) {
  workload::NeedleOptions o;
  Corpus corpus(workload::NeedleCorpus(o));

  char path[] = "/tmp/spanners_bench_segment_XXXXXX";
  const int fd = mkstemp(path);
  if (fd < 0) {
    state.SkipWithError("mkstemp failed");
    return;
  }
  close(fd);
  const Status written = storage::SegmentStore::Write(corpus, path);
  Result<storage::SegmentStore> opened = storage::SegmentStore::Open(path);
  if (!written.ok() || !opened.ok()) {
    unlink(path);
    state.SkipWithError("segment write/open failed");
    return;
  }
  const storage::SegmentStore store = std::move(opened).value();

  size_t num_terms = 0;
  for (auto _ : state) {
    storage::NgramIndex index = storage::NgramIndex::Build(store);
    num_terms = index.num_terms();
    benchmark::DoNotOptimize(index);
  }
  unlink(path);

  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(store.data_bytes()));
  state.counters["terms"] = static_cast<double>(num_terms);
}
BENCHMARK(BM_IndexBuild_Needle)->Unit(benchmark::kMillisecond);

// The same fleet with a match-free corpus: every document is rejected by
// the gates, so this pair isolates exactly what the single-pass tier
// amortizes — the per-document scan cost of 32 resident plans — from the
// evaluator work both paths share on matching documents. This is the
// robust (large-margin) comparison the CI gate enforces strictly; the 1%
// pair above is end-to-end and evaluator-bound, so its margin is small.
void BM_MultiQueryGate_Fleet(benchmark::State& state) {
  workload::FleetOptions o;
  o.match_rate = 0.0;
  workload::PatternFleet generated = workload::MakePatternFleet(o);
  Corpus corpus(std::move(generated.documents));
  MultiQueryExtractor fleet(FleetPlans(generated.patterns));
  BatchOptions bo;
  bo.num_threads = static_cast<size_t>(state.range(0));
  bo.min_docs_per_shard = 8;
  BatchExtractor extractor(bo);

  MultiBatchResult result;
  extractor.ExtractMultiInto(fleet, corpus, &result);  // warm-up
  const uint64_t allocs_before = obs::HeapAllocCount();
  for (auto _ : state) {
    extractor.ExtractMultiInto(fleet, corpus, &result);
    benchmark::DoNotOptimize(result);
  }
  ReportBatchCounters(state, corpus.size(), 0,
                      obs::HeapAllocCount() - allocs_before);
  state.counters["plans"] = static_cast<double>(fleet.num_plans());
}
BENCHMARK(BM_MultiQueryGate_Fleet)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SequentialGate_Fleet(benchmark::State& state) {
  workload::FleetOptions o;
  o.match_rate = 0.0;
  workload::PatternFleet generated = workload::MakePatternFleet(o);
  Corpus corpus(std::move(generated.documents));
  std::vector<std::shared_ptr<const ExtractionPlan>> plans =
      FleetPlans(generated.patterns);
  BatchOptions bo;
  bo.num_threads = static_cast<size_t>(state.range(0));
  bo.min_docs_per_shard = 8;
  BatchExtractor extractor(bo);

  std::vector<BatchResult> results(plans.size());
  for (size_t p = 0; p < plans.size(); ++p)
    extractor.ExtractInto(*plans[p], corpus, &results[p]);  // warm-up
  const uint64_t allocs_before = obs::HeapAllocCount();
  for (auto _ : state) {
    for (size_t p = 0; p < plans.size(); ++p)
      extractor.ExtractInto(*plans[p], corpus, &results[p]);
    benchmark::DoNotOptimize(results);
  }
  ReportBatchCounters(state, corpus.size(), 0,
                      obs::HeapAllocCount() - allocs_before);
  state.counters["plans"] = static_cast<double>(plans.size());
}
BENCHMARK(BM_SequentialGate_Fleet)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Algebra-query workload: a union of two extraction views fused into one
// automaton, joined relationally against a third over the shared method
// variable, thread sweep. Exercises the whole src/query/ pipeline — VA
// pushdown, the arena-backed hash join and the pooled mapping path.
void BM_QueryBatchExtract_ServerLog(benchmark::State& state) {
  workload::CorpusOptions o;
  o.documents = 300;
  o.rows_per_document = 3;
  Corpus corpus(workload::ServerLogCorpus(o));
  const char* kQuery =
      "join("
      "union("
      "rgx(\"(.*\\n|\\e)[a-z0-9]+ (m{[A-Z]+}) (p{[^ \\n]*}) [0-9]+"
      "( err=(c{[a-z]+})|\\e)\\n.*\"), "
      "rgx(\"(.*\\n|\\e)[a-z0-9]+ (m{GET}) (p{[^ \\n]*}) [0-9]+\\n.*\")), "
      "rgx(\"(.*\\n|\\e)[a-z0-9]+ (m{[A-Z]+}) [^ \\n]* (s{[0-9]+})"
      "( err=[a-z]+|\\e)\\n.*\"))";
  query::CompiledQuery q =
      query::CompiledQuery::Compile(query::ParseQuery(kQuery).ValueOrDie())
          .ValueOrDie();
  BatchOptions bo;
  bo.num_threads = static_cast<size_t>(state.range(0));
  bo.min_docs_per_shard = 8;
  BatchExtractor extractor(bo);

  BatchResult result;
  extractor.ExtractInto(q, corpus, &result);  // warm-up, not counted
  uint64_t mappings = 0;
  const uint64_t allocs_before = obs::HeapAllocCount();
  for (auto _ : state) {
    extractor.ExtractInto(q, corpus, &result);
    mappings = result.total_mappings;
    benchmark::DoNotOptimize(result);
  }
  ReportBatchCounters(state, corpus.size(), mappings,
                      obs::HeapAllocCount() - allocs_before);
  state.counters["scans"] = static_cast<double>(q.num_scans());
}
BENCHMARK(BM_QueryBatchExtract_ServerLog)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The two sides of a paired overhead measurement (the ≤2% gates in
// tools/run_bench.sh). Each iteration times both sides once and swaps
// which runs first, so the caches one side leaves warm favour neither.
struct PairedTimes {
  double off_s = 0;
  double on_s = 0;
  bool on_first = false;

  template <typename Off, typename On>
  void Time(const Off& off, const On& on) {
    if (on_first) on_s += SecondsOf(on);
    off_s += SecondsOf(off);
    if (!on_first) on_s += SecondsOf(on);
    on_first = !on_first;
  }

  template <typename F>
  static double SecondsOf(const F& f) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    f();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  double overhead_pct() const {
    return off_s > 0 ? (on_s / off_s - 1.0) * 100.0 : 0;
  }
};

// Telemetry overhead, paired within the iteration (immune to machine
// drift, like BM_FleetSinglePassVsSequential): each iteration extracts
// the server-log corpus once with metrics recording off and once with it
// on, alternating which goes first, and accumulates each side's time. The overhead_pct counter is what
// tools/run_bench.sh gates at ≤2% — the documented cost of shipping the
// instrumentation enabled.
void BM_MetricsOverhead_ServerLog(benchmark::State& state) {
  workload::CorpusOptions o;
  o.documents = 500;
  o.rows_per_document = 3;
  Corpus corpus(workload::ServerLogCorpus(o));
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::LogLineRgx()));
  BatchOptions bo;
  bo.num_threads = 1;
  bo.min_docs_per_shard = 8;
  BatchExtractor extractor(bo);

  BatchResult result;
  extractor.ExtractInto(plan, corpus, &result);  // warm-up, not counted
  obs::SetEnabled(true);
  extractor.ExtractInto(plan, corpus, &result);  // warm the metric cells
  obs::SetEnabled(false);

  PairedTimes t;
  for (auto _ : state) {
    t.Time([&] { extractor.ExtractInto(plan, corpus, &result); },
           [&] {
             obs::SetEnabled(true);
             extractor.ExtractInto(plan, corpus, &result);
             obs::SetEnabled(false);
           });
    benchmark::DoNotOptimize(result);
  }
  const double docs =
      static_cast<double>(state.iterations()) * corpus.size();
  state.counters["disabled_docs/s"] = t.off_s > 0 ? docs / t.off_s : 0;
  state.counters["enabled_docs/s"] = t.on_s > 0 ? docs / t.on_s : 0;
  state.counters["overhead_pct"] = t.overhead_pct();
}
BENCHMARK(BM_MetricsOverhead_ServerLog)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Cancellation-check overhead, paired within the iteration exactly like
// BM_MetricsOverhead: each iteration extracts the corpus once with no
// CancelToken armed and once (first on every other iteration) with a
// generously-armed token (far deadline
// + huge arena budget) that never trips, so every CancelGauge countdown
// and amortized Poll runs but no work is ever aborted. The overhead_pct
// counter is what tools/run_bench.sh gates at ≤2% — the documented cost
// of making every evaluation tier abortable.
void BM_CancelOverhead_ServerLog(benchmark::State& state) {
  workload::CorpusOptions o;
  o.documents = 500;
  o.rows_per_document = 3;
  Corpus corpus(workload::ServerLogCorpus(o));
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::LogLineRgx()));
  BatchOptions bo;
  bo.num_threads = 1;
  bo.min_docs_per_shard = 8;
  BatchExtractor extractor(bo);

  CancelToken token;
  token.ArmDeadline(std::chrono::steady_clock::now() +
                    std::chrono::hours(24));
  token.ArmMemoryBudget(uint64_t{1} << 40);

  BatchResult result;
  extractor.ExtractInto(plan, corpus, &result);  // warm-up, not counted

  PairedTimes t;
  for (auto _ : state) {
    t.Time([&] { extractor.ExtractInto(plan, corpus, &result); },
           [&] {
             extractor.set_cancel(&token);
             extractor.ExtractInto(plan, corpus, &result);
             extractor.set_cancel(nullptr);
           });
    benchmark::DoNotOptimize(result);
  }
  const double docs =
      static_cast<double>(state.iterations()) * corpus.size();
  state.counters["unarmed_docs/s"] = t.off_s > 0 ? docs / t.off_s : 0;
  state.counters["armed_docs/s"] = t.on_s > 0 ? docs / t.on_s : 0;
  state.counters["overhead_pct"] = t.overhead_pct();
}
BENCHMARK(BM_CancelOverhead_ServerLog)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Same paired measurement over the multi-query fleet path: the shared
// Aho–Corasick scan, per-plan gating tiers, and evaluator calls all carry
// gauges, so this is the worst case for check density.
void BM_CancelOverhead_Fleet(benchmark::State& state) {
  workload::FleetOptions o;  // 32 plans × 1% match over 2000 × ~512B docs
  workload::PatternFleet generated = workload::MakePatternFleet(o);
  Corpus corpus(std::move(generated.documents));
  MultiQueryExtractor fleet(FleetPlans(generated.patterns));
  BatchOptions bo;
  bo.num_threads = 1;
  bo.min_docs_per_shard = 8;
  BatchExtractor extractor(bo);

  CancelToken token;
  token.ArmDeadline(std::chrono::steady_clock::now() +
                    std::chrono::hours(24));
  token.ArmMemoryBudget(uint64_t{1} << 40);

  MultiBatchResult result;
  extractor.ExtractMultiInto(fleet, corpus, &result);  // warm-up

  PairedTimes t;
  for (auto _ : state) {
    t.Time([&] { extractor.ExtractMultiInto(fleet, corpus, &result); },
           [&] {
             extractor.set_cancel(&token);
             extractor.ExtractMultiInto(fleet, corpus, &result);
             extractor.set_cancel(nullptr);
           });
    benchmark::DoNotOptimize(result);
  }
  const double docs =
      static_cast<double>(state.iterations()) * corpus.size();
  state.counters["unarmed_docs/s"] = t.off_s > 0 ? docs / t.off_s : 0;
  state.counters["armed_docs/s"] = t.on_s > 0 ? docs / t.on_s : 0;
  state.counters["overhead_pct"] = t.overhead_pct();
}
BENCHMARK(BM_CancelOverhead_Fleet)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Plan-cache hit path vs. compiling the pattern from scratch each time.
void BM_PlanCache_Hit(benchmark::State& state) {
  PlanCache cache;
  const char* kPattern = ".*Seller: (x{[^,\\n]*}),.*";
  cache.GetOrCompile(kPattern).ValueOrDie();
  for (auto _ : state) {
    auto plan = cache.GetOrCompile(kPattern).ValueOrDie();
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanCache_Hit);

void BM_PlanCache_CompileEachTime(benchmark::State& state) {
  const char* kPattern = ".*Seller: (x{[^,\\n]*}),.*";
  for (auto _ : state) {
    auto plan = ExtractionPlan::Compile(kPattern).ValueOrDie();
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanCache_CompileEachTime);

}  // namespace
