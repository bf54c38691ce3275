// Tests for the telemetry subsystem: sharded counter/histogram merge
// correctness (including under 8-thread concurrent extraction), the
// enable gate (metrics on vs off must not change extraction output for
// any thread count), trace ring-buffer bounding, and the report
// renderings.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/report.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "workload/generators.h"

namespace spanners {
namespace obs {
namespace {

/// Every test leaves telemetry the way it found it (off) so test order
/// cannot leak recording into unrelated suites.
struct ObsGuard {
  ~ObsGuard() {
    SetEnabled(false);
    Trace::Disable();
  }
};

// ---- Counter / Histogram ------------------------------------------------

TEST(CounterTest, ConcurrentAddsMergeExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add(1);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Load(), kThreads * kPerThread);
  c.Reset();
  EXPECT_EQ(c.Load(), 0u);
}

TEST(HistogramTest, PowerOfTwoBucketing) {
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);  // [2,4) → bucket 2
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  // The top bucket absorbs everything ≥ 2^62 (no out-of-bounds index).
  EXPECT_EQ(Histogram::BucketOf(~uint64_t{0}), Histogram::kBuckets - 1);
}

TEST(HistogramTest, ConcurrentRecordsMergeExactly) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i)
        h.Record(static_cast<uint64_t>(t));  // thread t records value t
    });
  for (std::thread& t : threads) t.join();
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  // sum = Σ t·kPerThread = kPerThread · (0+1+…+7)
  EXPECT_EQ(s.sum, kPerThread * 28);
  uint64_t bucketed = 0;
  for (const auto& [bucket, n] : s.buckets) bucketed += n;
  EXPECT_EQ(bucketed, s.count);
}

TEST(HistogramTest, PercentileIsBucketUpperBound) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.Record(10);  // bucket 4: [8,16)
  h.Record(1000);  // bucket 10: [512,1024)
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.Percentile(0.5), 15u);   // 2^4 - 1
  EXPECT_EQ(s.Percentile(1.0), 1023u);  // max lands in bucket 10
}

// ---- Registry -----------------------------------------------------------

TEST(MetricsRegistryTest, StablePointersAndSortedSnapshot) {
  MetricsRegistry r;
  Counter* a = r.GetCounter("b.second");
  Counter* b = r.GetCounter("a.first");
  EXPECT_EQ(r.GetCounter("b.second"), a);  // same name, same metric
  a->Add(2);
  b->Add(1);
  r.GetHistogram("z.hist")->Record(7);
  MetricsSnapshot s = r.Snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].first, "a.first");  // name-sorted
  EXPECT_EQ(s.counters[0].second, 1u);
  EXPECT_EQ(s.counters[1].second, 2u);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].name, "z.hist");
  EXPECT_EQ(s.histograms[0].count, 1u);

  std::string json = s.ToJson();
  EXPECT_NE(json.find("\"a.first\":1"), std::string::npos);
  EXPECT_NE(json.find("\"z.hist\""), std::string::npos);

  r.Reset();
  EXPECT_EQ(a->Load(), 0u);  // pointers survive Reset
}

// ---- ObsSpan gate -------------------------------------------------------

TEST(ObsSpanTest, RecordsOnlyWhenEnabled) {
  ObsGuard guard;
  MetricsRegistry r;
  Histogram* h = r.GetHistogram("test.span_ns");
  SetEnabled(false);
  { ObsSpan span(h); }
  EXPECT_EQ(h->Count(), 0u);
  SetEnabled(true);
  { ObsSpan span(h); }
  EXPECT_EQ(h->Count(), 1u);
}

// ---- Engine integration -------------------------------------------------

engine::Corpus SmallFleetCorpus(size_t docs) {
  workload::FleetOptions fo;
  fo.documents = docs;
  fo.doc_bytes = 450;
  fo.num_patterns = 4;
  workload::PatternFleet fleet = workload::MakePatternFleet(fo);
  return engine::Corpus(std::move(fleet.documents));
}

TEST(ObsEngineTest, SnapshotMergeMatchesPlanStatsUnder8Threads) {
  ObsGuard guard;
  MetricsRegistry::Global().Reset();
  SetEnabled(true);

  engine::Corpus corpus = SmallFleetCorpus(400);
  auto plan = engine::ExtractionPlan::Compile(
      "x{[A-Z][A-Z][A-Z][0-9][0-9]} id=y{[0-9]+}.*");
  ASSERT_TRUE(plan.ok());

  engine::BatchOptions options;
  options.num_threads = 8;
  engine::BatchExtractor batch(options);
  engine::BatchResult result = batch.Extract(plan.value(), corpus);
  SetEnabled(false);

  const engine::PlanStats stats = plan.value().stats();
  EXPECT_EQ(stats.documents, corpus.size());
  EXPECT_EQ(stats.mappings, result.total_mappings);

  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  // Each count has one record, the plan's own: the registry mirrors none
  // of the plan's, the lazy DFA's or the plan cache's counts.
  for (const auto& [name, value] : snap.counters)
    for (const std::string prefix : {"engine.", "lazy_dfa.", "plan_cache."})
      EXPECT_NE(name.compare(0, prefix.size(), prefix), 0) << name;
  auto hist_count = [&snap](const std::string& name) -> uint64_t {
    for (const HistogramSnapshot& h : snap.histograms)
      if (h.name == name) return h.count;
    return 0;
  };
  // The merged time histograms count the documents that entered each tier,
  // and agree with the plan's record of where they landed: every document
  // entered the prefilter, the ones it passed entered the DFA gate, and
  // the evaluator histograms saw exactly the evaluated documents.
  ASSERT_TRUE(plan.value().prefilter().CanPrune());
  EXPECT_EQ(hist_count("engine.doc_ns"), stats.documents);
  EXPECT_EQ(hist_count("tier.prefilter_ns"), stats.documents);
  EXPECT_EQ(hist_count("tier.dfa_gate_ns"),
            stats.documents - stats.prefilter_skipped);
  EXPECT_EQ(hist_count("tier.eval_run_enum_ns") +
                hist_count("tier.eval_sequential_ns") +
                hist_count("tier.eval_fpt_ns"),
            stats.evaluated());
}

std::string ExtractAll(const engine::DocumentExtractor& extractor,
                       const engine::Corpus& corpus, size_t threads) {
  engine::BatchOptions options;
  options.num_threads = threads;
  engine::BatchExtractor batch(options);
  engine::BatchResult result = batch.Extract(extractor, corpus);
  std::string out;
  for (size_t i = 0; i < result.per_doc.size(); ++i)
    for (const Mapping& m : result.per_doc[i])
      out += engine::ToTsvRow(i, m, extractor.vars(), corpus[i]) + "\n";
  return out;
}

TEST(ObsEngineTest, MetricsOnOffOutputByteIdentity) {
  ObsGuard guard;
  engine::Corpus corpus = SmallFleetCorpus(200);
  auto plan = engine::ExtractionPlan::Compile(
      "x{[A-Z][A-Z][A-Z][0-9][0-9]} id=y{[0-9]+}.*");
  ASSERT_TRUE(plan.ok());

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetEnabled(false);
    const std::string off = ExtractAll(plan.value(), corpus, threads);
    SetEnabled(true);
    const std::string on = ExtractAll(plan.value(), corpus, threads);
    SetEnabled(false);
    EXPECT_EQ(off, on) << "threads=" << threads;
    EXPECT_FALSE(off.empty());
  }
}

// ---- Trace ring ---------------------------------------------------------

TEST(TraceTest, RingBoundsRetainedEventsAndKeepsNewest) {
  ObsGuard guard;
  Trace::Enable(/*events_per_thread=*/16);
  for (uint64_t i = 0; i < 100; ++i) Trace::Emit("e", i * 10, 5, i);
  std::vector<TraceEvent> events;
  const uint64_t dropped = Trace::Drain(&events);
  EXPECT_EQ(events.size(), 16u);
  EXPECT_EQ(dropped, 84u);
  // The ring keeps the newest window, ordered by start time.
  EXPECT_EQ(events.front().arg, 84u);
  EXPECT_EQ(events.back().arg, 99u);
  for (size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].start_ns, events[i].start_ns);
}

TEST(TraceTest, WriteChromeJsonIsParseableShape) {
  ObsGuard guard;
  Trace::Enable(64);
  Trace::Emit("alpha", 1000, 50, 7);
  Trace::Emit("beta", 2000, 25, 8);
  std::ostringstream os;
  Trace::WriteChromeJson(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"beta\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(TraceTest, EmitIsNoOpWhenDisabled) {
  ObsGuard guard;
  Trace::Disable();
  Trace::Emit("ignored", 0, 1, 0);
  Trace::Enable(16);
  std::vector<TraceEvent> events;
  Trace::Drain(&events);
  EXPECT_TRUE(events.empty());
}

// ---- Report -------------------------------------------------------------

TEST(EngineReportTest, TextAndJsonRenderConsistently) {
  engine::EngineReport report;
  engine::PlanReport plan;
  plan.label = "q0";
  plan.info = "sequential; prefilter lit(\"x\")";
  plan.stats.documents = 100;
  plan.stats.mappings = 7;
  plan.stats.ac_gate_skipped = 90;
  plan.stats.prefilter_skipped = 2;
  plan.stats.dfa_skipped = 1;
  report.plans.push_back(plan);
  engine::PlanReport scan;  // a query's scan plan, from its own record
  scan.label = "s0";
  scan.info = "sequential; 1 vars";
  scan.stats.documents = 100;
  scan.stats.mappings = 4;
  scan.stats.prefilter_skipped = 96;
  report.plans.push_back(scan);
  report.have_cache = true;
  report.cache.size = 1;
  report.cache.hits = 3;
  report.cache.misses = 1;
  report.documents = 100;
  report.total_mappings = 7;
  report.matched_documents = 5;
  report.shards = 4;
  report.threads = 8;
  report.wall_ns = 1'500'000;

  const std::string text = report.ToText("spanex: ");
  EXPECT_NE(text.find("q0 100 docs: 93 skipped (93.0%"), std::string::npos);
  EXPECT_NE(text.find("7 evaluated (7.0%)"), std::string::npos);
  EXPECT_NE(text.find("spanex: s0 [sequential; 1 vars]\n"
                      "spanex: s0 100 docs: 96 skipped (96.0% — 0 ac, 96 "
                      "prefilter, 0 dfa), 4 evaluated (4.0%), 4 mappings "
                      "(0 dfa states, 0 atoms)\n"),
            std::string::npos);
  EXPECT_NE(text.find("plan cache: 1 plans, 3 hits, 1 misses"),
            std::string::npos);
  EXPECT_NE(text.find("1.5 ms"), std::string::npos);

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"evaluated\":7"), std::string::npos);
  EXPECT_NE(json.find("{\"label\":\"s0\",\"info\":\"sequential; 1 vars\","
                      "\"stats\":{\"documents\":100,\"mappings\":4,"
                      "\"ac_gate_skipped\":0,\"prefilter_skipped\":96,"
                      "\"dfa_skipped\":0,\"evaluated\":4},\"lazy_dfa\":"
                      "{\"states\":0,\"atoms\":0,\"misses\":0,"
                      "\"evictions\":0,\"fallbacks\":0}}"),
            std::string::npos);
  // The info string's quotes must be escaped, not break the object.
  EXPECT_NE(json.find("prefilter lit(\\\"x\\\")"), std::string::npos);
  EXPECT_NE(json.find("\"wall_ns\":1500000"), std::string::npos);
  EXPECT_EQ(json.find("\"metrics\""), std::string::npos);  // not requested
}

}  // namespace
}  // namespace obs
}  // namespace spanners
