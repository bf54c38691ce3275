// Tests for the batch-extraction engine: corpora and sharding, extraction
// plans (evaluator agreement), the thread pool, batch determinism
// across thread counts, and wire formatting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "dense_result.h"
#include "engine/engine.h"
#include "rgx/parser.h"
#include "workload/generators.h"

namespace spanners {
namespace engine {
namespace {

// ---- Corpus ------------------------------------------------------------

TEST(CorpusTest, FromDelimitedSplitsAtNewlines) {
  Corpus c = Corpus::FromDelimited("one\ntwo\nthree");
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].text(), "one");
  EXPECT_EQ(c[2].text(), "three");
}

TEST(CorpusTest, TrailingDelimiterAddsNoEmptyDocument) {
  Corpus c = Corpus::FromDelimited("a\nb\n");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[1].text(), "b");
}

TEST(CorpusTest, InteriorEmptyDocumentsAreKept) {
  Corpus c = Corpus::FromDelimited("a\n\nb");
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[1].text(), "");
}

TEST(CorpusTest, EmptyInputIsEmptyCorpus) {
  EXPECT_TRUE(Corpus::FromDelimited("").empty());
}

TEST(CorpusTest, NulDelimiter) {
  std::string text("a\nb\0c", 5);
  Corpus c = Corpus::FromDelimited(text, '\0');
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].text(), "a\nb");
  EXPECT_EQ(c[1].text(), "c");
}

TEST(CorpusTest, FromStreamAndTotalBytes) {
  std::istringstream in("xx\nyyy\n");
  Corpus c = Corpus::FromStream(in);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.TotalBytes(), 5u);
}

TEST(CorpusTest, AppendMovesDocumentsInOrder) {
  Corpus a = Corpus::FromDelimited("1\n2");
  Corpus b = Corpus::FromDelimited("3");
  a.Append(std::move(b));
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[2].text(), "3");
  Corpus empty;
  empty.Append(std::move(a));
  EXPECT_EQ(empty.size(), 3u);
}

TEST(CorpusTest, FromFileMissingFails) {
  Result<Corpus> r = Corpus::FromFile("/nonexistent/corpus.txt");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ---- sharding ----------------------------------------------------------

TEST(ShardingTest, CoversEveryDocumentExactlyOnceInOrder) {
  workload::CorpusOptions o;
  o.documents = 137;
  Corpus corpus(workload::LandRegistryCorpus(o));
  ShardingOptions so;
  so.max_shards = 8;
  so.min_docs_per_shard = 4;
  std::vector<Shard> shards = ShardCorpus(corpus, so);
  ASSERT_FALSE(shards.empty());
  EXPECT_LE(shards.size(), 8u);
  size_t next = 0;
  for (const Shard& s : shards) {
    EXPECT_EQ(s.begin, next);
    EXPECT_GT(s.end, s.begin);
    next = s.end;
  }
  EXPECT_EQ(next, corpus.size());
}

TEST(ShardingTest, RespectsMinDocsPerShard) {
  Corpus corpus(std::vector<Document>(10, Document("abc")));
  ShardingOptions so;
  so.max_shards = 100;
  so.min_docs_per_shard = 4;
  std::vector<Shard> shards = ShardCorpus(corpus, so);
  for (size_t i = 0; i + 1 < shards.size(); ++i)
    EXPECT_GE(shards[i].size(), 4u);
}

TEST(ShardingTest, EmptyCorpusHasNoShards) {
  EXPECT_TRUE(ShardCorpus(Corpus(), ShardingOptions()).empty());
}

// ---- thread pool -------------------------------------------------------

// Every task index runs exactly once, on a thread index below
// num_threads() that no other task holds at the same time, for every pool
// size and batch size.
TEST(ThreadPoolTest, RunsEveryTask) {
  for (size_t threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    for (size_t n : {0, 1, 3, 1000}) {
      std::vector<std::atomic<int>> runs(n);
      std::vector<std::atomic<bool>> busy(threads);
      std::atomic<int> bad_thread{0};
      pool.Run(n, [&](size_t task, size_t thread) {
        if (thread >= threads || busy[thread].exchange(true)) {
          bad_thread.fetch_add(1);
          return;
        }
        runs[task].fetch_add(1);
        busy[thread].store(false);
      });
      EXPECT_EQ(bad_thread.load(), 0) << threads << " threads, n " << n;
      for (size_t t = 0; t < n; ++t)
        ASSERT_EQ(runs[t].load(), 1) << threads << " threads, task " << t;
    }
  }
}

// A one-thread pool starts no thread: Run executes its tasks in index
// order on the calling thread.
TEST(ThreadPoolTest, OneThreadRunsTasksInOrderOnTheCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  bool on_caller = true;
  pool.Run(100, [&](size_t task, size_t thread) {
    order.push_back(task);
    on_caller = on_caller && thread == 0 &&
                std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(on_caller);
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

// A one-task Run wakes no worker, however many the pool has.
TEST(ThreadPoolTest, OneTaskRunsOnTheCaller) {
  ThreadPool pool(8);
  for (int i = 0; i < 100; ++i) {
    std::thread::id ran;
    size_t ran_thread = 1;
    pool.Run(1, [&](size_t, size_t thread) {
      ran = std::this_thread::get_id();
      ran_thread = thread;
    });
    EXPECT_EQ(ran, std::this_thread::get_id());
    EXPECT_EQ(ran_thread, 0u);
  }
}

// A task's exception leaves Run once every thread has stopped, and the
// pool runs the next call in full.
TEST(ThreadPoolTest, TaskExceptionLeavesRun) {
  for (size_t threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(pool.Run(100,
                          [](size_t task, size_t) {
                            if (task == 37) throw std::runtime_error("task");
                          }),
                 std::runtime_error);
    std::atomic<size_t> count{0};
    pool.Run(100, [&](size_t, size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 100u) << threads << " threads";
  }
}

// Run called from several threads at once serializes: no task of one call
// overlaps a task of another. The last task of a call to finish releases
// `owner`; a task that finds another call's mark counts an overlap.
TEST(ThreadPoolTest, ConcurrentRunsSerialize) {
  ThreadPool pool(4);
  constexpr size_t kTasks = 200;
  std::atomic<int> owner{-1};
  std::atomic<int> overlaps{0};
  std::atomic<size_t> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c)
    callers.emplace_back([&, c] {
      for (int round = 0; round < 20; ++round) {
        std::atomic<size_t> done{0};
        pool.Run(kTasks, [&](size_t, size_t) {
          int mark = -1;
          if (!owner.compare_exchange_strong(mark, c) && mark != c)
            overlaps.fetch_add(1);
          total.fetch_add(1);
          if (done.fetch_add(1) + 1 == kTasks) owner.store(-1);
        });
      }
    });
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(total.load(), 4 * 20 * kTasks);
}

// ---- ExtractionPlan ----------------------------------------------------

TEST(PlanTest, CompileErrorPropagates) {
  Result<ExtractionPlan> r = ExtractionPlan::Compile("x{a");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanTest, AnalysisFlags) {
  ExtractionPlan p = ExtractionPlan::Compile("x{a*}y{b*}").ValueOrDie();
  EXPECT_TRUE(p.info().sequential_va);
  EXPECT_TRUE(p.info().functional_rgx);
  EXPECT_FALSE(p.info().span_rgx);
  EXPECT_EQ(p.info().num_vars, 2u);
  EXPECT_EQ(p.pattern(), "x{a*}y{b*}");
  EXPECT_FALSE(p.info().ToString().empty());

  ExtractionPlan nonseq = ExtractionPlan::Compile("(x{a}|a)*").ValueOrDie();
  EXPECT_FALSE(nonseq.info().sequential_va);
}

TEST(PlanTest, EveryEvaluatorAgreesWithRunSemantics) {
  // Ground truth: brute-force run enumeration (the seed's ExtractAll).
  Spanner s = Spanner::FromPattern(".*Seller: (x{[^,\\n]*}),.*").ValueOrDie();
  workload::LandRegistryOptions o;
  o.rows = 12;
  Document doc = workload::LandRegistryDocument(o);
  MappingSet truth = s.ExtractAll(doc);
  ASSERT_FALSE(truth.empty());
  EXPECT_EQ(s.ExtractAllWith(Spanner::Evaluator::kRunEnumeration, doc), truth);
  EXPECT_EQ(s.ExtractAllWith(Spanner::Evaluator::kSequentialDelay, doc),
            truth);
  EXPECT_EQ(s.ExtractAllWith(Spanner::Evaluator::kFptDelay, doc), truth);
}

TEST(PlanTest, RecommendedEvaluatorPrefersRunEnumerationForFewVars) {
  Spanner s = Spanner::FromPattern("x{a*}").ValueOrDie();
  EXPECT_EQ(s.RecommendedEvaluator(), Spanner::Evaluator::kRunEnumeration);
}

TEST(PlanTest, StatsCountDocumentsAndMappings) {
  ExtractionPlan p = ExtractionPlan::Compile("x{a*}").ValueOrDie();
  p.Extract(Document("aa"));
  p.Extract(Document(""));
  PlanStats stats = p.stats();
  EXPECT_EQ(stats.documents, 2u);
  // Exact mapping count is pinned by the extraction itself, not guessed:
  uint64_t expected = p.Extract(Document("aa")).size() + 1;  // "" has {ε}
  EXPECT_EQ(stats.mappings, expected);
}

TEST(PlanTest, ExtractSortedIsSortedAndReusesScratch) {
  ExtractionPlan p =
      ExtractionPlan::Compile(".*(x{[a-z]+}).*").ValueOrDie();
  PlanScratch scratch;
  const std::vector<Mapping>& out =
      p.ExtractSorted(Document("ab cd"), &scratch);
  ASSERT_GT(out.size(), 1u);
  for (size_t i = 0; i + 1 < out.size(); ++i) EXPECT_TRUE(out[i] < out[i + 1]);
  const std::vector<Mapping>& again = p.ExtractSorted(Document("z"), &scratch);
  EXPECT_EQ(&again, &out);  // same buffer, reused
}

// ---- PlanCache ---------------------------------------------------------

TEST(PlanCacheTest, HitMissCounters) {
  PlanCache cache;
  auto a = cache.GetOrCompile("x{a*}").ValueOrDie();
  auto b = cache.GetOrCompile("x{a*}").ValueOrDie();
  EXPECT_EQ(a.get(), b.get());  // same shared plan
  PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.size, 1u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(PlanCacheTest, CompileErrorsAreNotCached) {
  PlanCache cache;
  EXPECT_FALSE(cache.GetOrCompile("x{a").ok());
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCacheOptions o;
  o.capacity = 2;
  PlanCache cache(o);
  cache.GetOrCompile("a").ValueOrDie();
  cache.GetOrCompile("b").ValueOrDie();
  cache.GetOrCompile("a").ValueOrDie();  // refresh a; b is now LRU
  cache.GetOrCompile("c").ValueOrDie();  // evicts b
  PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.size, 2u);
  EXPECT_NE(cache.Peek("a"), nullptr);
  EXPECT_EQ(cache.Peek("b"), nullptr);
  EXPECT_NE(cache.Peek("c"), nullptr);
}

TEST(PlanCacheTest, EvictedPlanStaysUsable) {
  PlanCacheOptions o;
  o.capacity = 1;
  PlanCache cache(o);
  auto plan = cache.GetOrCompile("x{a*}").ValueOrDie();
  cache.GetOrCompile("b*").ValueOrDie();  // evicts x{a*}
  EXPECT_EQ(cache.Peek("x{a*}"), nullptr);
  EXPECT_EQ(plan->Extract(Document("a")).size(), 1u);  // still works
}

TEST(PlanCacheTest, ClearDropsEverything) {
  PlanCache cache;
  cache.GetOrCompile("a").ValueOrDie();
  cache.Clear();
  EXPECT_EQ(cache.stats().size, 0u);
}

// ---- BatchExtractor ----------------------------------------------------

// Corpus extraction must equal per-document ExtractAll for every thread
// count — the engine may only reorganize work, never change results.
TEST(BatchExtractorTest, MatchesPerDocumentExtractionForEveryThreadCount) {
  workload::CorpusOptions o;
  o.documents = 64;
  o.rows_per_document = 3;
  Corpus corpus(workload::ServerLogCorpus(o));
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::LogLineRgx()));

  std::vector<std::vector<Mapping>> expected;
  for (const Document& d : corpus)
    expected.push_back(plan.spanner().ExtractAll(d).Sorted());

  for (size_t threads : {1u, 2u, 8u}) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;
    BatchExtractor extractor(bo);
    BatchResult result = extractor.Extract(plan, corpus);
    ASSERT_EQ(result.per_doc.size(), corpus.size());
    EXPECT_EQ(Dense(result.per_doc), expected) << "threads=" << threads;
  }
}

// With per-worker arenas enabled (the default), the fully formatted output
// must stay byte-identical between 1 and 8 threads: worker-local scratch
// may never leak into results.
TEST(BatchExtractorTest, ArenaBackedOutputByteIdenticalAcrossThreadCounts) {
  workload::CorpusOptions o;
  o.documents = 96;
  o.rows_per_document = 2;
  Corpus corpus(workload::ServerLogCorpus(o));
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::LogLineRgx()));

  auto formatted = [&](size_t threads) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;
    BatchExtractor extractor(bo);
    BatchResult result = extractor.Extract(plan, corpus);
    std::string out;
    for (size_t i = 0; i < result.per_doc.size(); ++i)
      for (const Mapping& m : result.per_doc[i])
        out += ToTsvRow(i, m, plan.spanner().vars(), corpus[i]);
    return out;
  };

  std::string one = formatted(1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, formatted(8));
}

// ExtractSortedInto (the arena path used by the engine) must agree with
// the allocation-per-call Extract().Sorted() path, with one scratch
// reused — Reset(), not freed — across documents.
TEST(ExtractionPlanTest, ExtractSortedIntoMatchesExtractAcrossDocuments) {
  workload::CorpusOptions o;
  o.documents = 32;
  o.rows_per_document = 3;
  Corpus corpus(workload::ServerLogCorpus(o));
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::LogLineRgx()));

  PlanScratch scratch;
  std::vector<Mapping> got;
  for (const Document& doc : corpus) {
    plan.ExtractSortedInto(doc, &scratch, &got);
    EXPECT_EQ(got, plan.Extract(doc).Sorted());
  }
  EXPECT_GT(scratch.arena.bytes_reserved(), 0u);
}

TEST(BatchExtractorTest, EmptyCorpus) {
  ExtractionPlan plan = ExtractionPlan::Compile("x{a*}").ValueOrDie();
  BatchExtractor extractor;
  BatchResult result = extractor.Extract(plan, Corpus());
  EXPECT_TRUE(result.per_doc.empty());
  EXPECT_EQ(result.total_mappings, 0u);
  EXPECT_EQ(result.shards, 0u);
  EXPECT_EQ(result.MatchedDocuments(), 0u);
}

// The empty pattern is ε: it matches exactly the empty document, with the
// empty mapping as its only output.
TEST(BatchExtractorTest, EmptyPattern) {
  ExtractionPlan plan = ExtractionPlan::Compile("").ValueOrDie();
  EXPECT_EQ(plan.info().num_vars, 0u);
  Corpus corpus = Corpus::FromDelimited("\nabc\n\n");  // "", "abc", ""
  BatchExtractor extractor;
  BatchResult result = extractor.Extract(plan, corpus);
  ASSERT_EQ(result.per_doc.size(), corpus.size());
  EXPECT_EQ(result.per_doc[0].size(), 1u);  // ∅ on ""
  EXPECT_TRUE(result.per_doc[1].empty());   // ε doesn't match "abc"
}

TEST(BatchExtractorTest, ReusableAcrossBatches) {
  ExtractionPlan plan = ExtractionPlan::Compile("x{a*}").ValueOrDie();
  BatchOptions bo;
  bo.num_threads = 2;
  BatchExtractor extractor(bo);
  Corpus c1 = Corpus::FromDelimited("a\naa");
  Corpus c2 = Corpus::FromDelimited("aaa");
  BatchResult r1 = extractor.Extract(plan, c1);
  BatchResult r2 = extractor.Extract(plan, c2);
  EXPECT_EQ(r1.per_doc.size(), 2u);
  EXPECT_EQ(r2.per_doc.size(), 1u);
  EXPECT_EQ(r2.per_doc[0].size(), 1u);  // x spans the whole document
}

// A refilled BatchResult must hold exactly what a fresh extraction of the
// new corpus gives: the second corpus is shorter and its needles sit on
// other documents, so stale slots of the first call must be emptied and
// truncated documents must not count.
TEST(BatchExtractorTest, ExtractIntoReuseMatchesFreshExtraction) {
  workload::NeedleOptions o;
  o.documents = 150;
  o.doc_bytes = 200;
  o.match_rate = 0.1;
  Corpus first(workload::NeedleCorpus(o));
  o.documents = 90;
  o.seed = 211;
  Corpus second(workload::NeedleCorpus(o));
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::NeedleRgx()));

  BatchOptions ro;
  ro.num_threads = 1;
  const BatchResult first_alone = BatchExtractor(ro).Extract(plan, first);
  const BatchResult want = BatchExtractor(ro).Extract(plan, second);
  size_t stale = 0;  // documents matched only in the first corpus
  size_t fresh = 0;  // ... and only in the second
  for (size_t i = 0; i < second.size(); ++i) {
    const bool a = !first_alone.per_doc[i].empty();
    const bool b = !want.per_doc[i].empty();
    stale += a && !b;
    fresh += b && !a;
  }
  ASSERT_GT(stale, 0u);
  ASSERT_GT(fresh, 0u);
  ASSERT_GT(want.total_mappings, 0u);

  for (size_t threads : {1u, 2u, 8u}) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;
    BatchExtractor extractor(bo);
    BatchResult reused;
    extractor.ExtractInto(plan, first, &reused);
    EXPECT_EQ(reused.total_mappings, first_alone.total_mappings)
        << "threads=" << threads;
    extractor.ExtractInto(plan, second, &reused);
    const BatchResult fresh_result = extractor.Extract(plan, second);
    EXPECT_EQ(Dense(reused.per_doc), Dense(want.per_doc))
        << "threads=" << threads;
    EXPECT_EQ(reused.total_mappings, want.total_mappings)
        << "threads=" << threads;
    EXPECT_EQ(reused.shards, fresh_result.shards) << "threads=" << threads;
  }
}

// ---- formatting --------------------------------------------------------

TEST(FormatTest, TsvRowPinsWireFormat) {
  Document doc("Seller: John,");
  VarSet vars;
  VarId x = Variable::Intern("x"), y = Variable::Intern("y");
  vars.Insert(x);
  vars.Insert(y);
  Mapping m = Mapping::Single(x, Span(9, 13));  // "John"
  EXPECT_EQ(TsvHeader(vars), "doc\tx.span\tx.text\ty.span\ty.text");
  EXPECT_EQ(ToTsvRow(7, m, vars, doc), "7\t9..13\tJohn\t⊥\t");
}

TEST(FormatTest, TsvEscapesControlCharacters) {
  Document doc("a\tb");
  VarSet vars;
  VarId x = Variable::Intern("x");
  vars.Insert(x);
  Mapping m = Mapping::Single(x, doc.Whole());
  EXPECT_EQ(ToTsvRow(0, m, vars, doc), "0\t1..4\ta\\tb");
}

TEST(FormatTest, JsonRowPinsWireFormat) {
  Document doc("say \"hi\"");
  VarSet vars;
  VarId x = Variable::Intern("x"), y = Variable::Intern("y");
  vars.Insert(x);
  vars.Insert(y);
  Mapping m = Mapping::Single(x, Span(5, 9));  // "\"hi\""
  EXPECT_EQ(ToJsonRow(3, m, vars, doc),
            "{\"doc\":3,\"x\":{\"span\":[5,9],\"text\":\"\\\"hi\\\"\"},"
            "\"y\":null}");

  // Every string the engine, its reports and the server write goes
  // through AppendJsonString: \n \t \r keep their short escapes, every
  // other byte below 0x20 is \u00XX, and bytes from 0x20 up (non-ASCII
  // too) pass through.
  std::string controls;
  for (int c = 0; c < 0x20; ++c) controls += static_cast<char>(c);
  std::string out;
  AppendJsonString(&out, controls + "\"\\ \xc3\xa9\x7f");
  EXPECT_EQ(out,
            "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
            "\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f"
            "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
            "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
            "\\\"\\\\ \xc3\xa9\x7f\"");
}

// ---- prefilter + lazy-DFA gate ------------------------------------------

// The gate may only skip provably-empty documents: gated and ungated
// plans must produce byte-identical batch results for every thread count,
// on random formulas over random corpora.
TEST(GateTest, GatedAndUngatedResultsIdenticalAcrossThreadCounts) {
  std::mt19937 rng(41);
  workload::RandomRgxOptions o;
  o.num_vars = 2;
  o.letters = "ab";
  std::uniform_int_distribution<size_t> len_pick(0, 10);
  for (int round = 0; round < 12; ++round) {
    RgxPtr rgx = workload::RandomRgx(o, &rng);
    std::vector<Document> docs;
    for (int i = 0; i < 48; ++i)
      docs.push_back(workload::RandomDocument("ab", len_pick(rng), &rng));
    Corpus corpus(std::move(docs));

    ExtractionPlan gated = ExtractionPlan::FromSpanner(Spanner::FromRgx(rgx));
    ExtractionPlan plain = ExtractionPlan::FromSpanner(Spanner::FromRgx(rgx));
    plain.set_gating_enabled(false);

    for (size_t threads : {1u, 2u, 8u}) {
      BatchOptions bo;
      bo.num_threads = threads;
      bo.min_docs_per_shard = 4;
      BatchExtractor extractor(bo);
      BatchResult got = extractor.Extract(gated, corpus);
      BatchResult want = extractor.Extract(plain, corpus);
      ASSERT_EQ(Dense(got.per_doc), Dense(want.per_doc))
          << "round " << round << " threads " << threads;
    }
  }
}

// On the low-selectivity needle corpus the gate must (a) change nothing
// about the output and (b) actually skip the non-matching majority.
TEST(GateTest, NeedleCorpusIsGateSkippedButResultIdentical) {
  workload::NeedleOptions o;
  o.documents = 300;
  o.doc_bytes = 256;
  o.match_rate = 0.05;
  Corpus corpus(workload::NeedleCorpus(o));

  ExtractionPlan gated =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::NeedleRgx()));
  ExtractionPlan plain =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::NeedleRgx()));
  plain.set_gating_enabled(false);

  BatchOptions bo;
  bo.num_threads = 2;
  bo.min_docs_per_shard = 8;
  BatchExtractor extractor(bo);
  BatchResult got = extractor.Extract(gated, corpus);
  BatchResult want = extractor.Extract(plain, corpus);
  EXPECT_EQ(Dense(got.per_doc), Dense(want.per_doc));
  EXPECT_GT(got.MatchedDocuments(), 0u);

  PlanStats stats = gated.stats();
  EXPECT_EQ(stats.documents, corpus.size());
  EXPECT_EQ(stats.prefilter_skipped + got.MatchedDocuments(), corpus.size())
      << "every non-matching document should fall to the literal scan";
  EXPECT_EQ(plain.stats().prefilter_skipped, 0u);
}

TEST(GateTest, PlanMatchesAgreesWithSpannerMatches) {
  std::mt19937 rng(43);
  workload::RandomRgxOptions o;
  o.num_vars = 2;
  o.letters = "ab";
  std::uniform_int_distribution<size_t> len_pick(0, 9);
  for (int round = 0; round < 25; ++round) {
    RgxPtr rgx = workload::RandomRgx(o, &rng);
    ExtractionPlan plan = ExtractionPlan::FromSpanner(Spanner::FromRgx(rgx));
    PlanScratch scratch;  // reused: the fallback tier must Reset() it
    for (int d = 0; d < 15; ++d) {
      Document doc = workload::RandomDocument("ab", len_pick(rng), &rng);
      bool want = plan.spanner().Matches(doc);
      EXPECT_EQ(plan.Matches(doc), want)
          << "round " << round << " doc '" << doc.text() << "'";
      EXPECT_EQ(plan.Matches(doc, &scratch), want)
          << "round " << round << " doc '" << doc.text() << "' (scratch)";
    }
  }
}

TEST(GateTest, PlanInfoReportsGateTiers) {
  ExtractionPlan plan =
      ExtractionPlan::Compile(".*Seller: (x{[^,\\n]*}),.*").ValueOrDie();
  std::string info = plan.info().ToString();
  EXPECT_NE(info.find("prefilter"), std::string::npos) << info;
  EXPECT_NE(info.find("Seller: "), std::string::npos) << info;
  EXPECT_NE(info.find("lazy-dfa"), std::string::npos) << info;
  EXPECT_GT(plan.lazy_dfa().num_atoms(), 0u);
}

// ---- streamed per-shard extraction --------------------------------------

// ExtractStream must deliver exactly Extract's result, shard by shard, in
// corpus order, for every thread count.
TEST(BatchExtractorTest, ExtractStreamMatchesExtractAndIsInOrder) {
  workload::CorpusOptions o;
  o.documents = 120;
  o.rows_per_document = 2;
  Corpus corpus(workload::ServerLogCorpus(o));
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::LogLineRgx()));

  BatchOptions ro;
  ro.num_threads = 1;
  BatchResult want = BatchExtractor(ro).Extract(plan, corpus);

  for (size_t threads : {1u, 2u, 8u}) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;
    BatchExtractor extractor(bo);

    std::vector<std::vector<Mapping>> streamed;
    size_t calls = 0;
    BatchExtractor::StreamStats stats = extractor.ExtractStream(
        plan, corpus,
        [&](size_t doc_begin, size_t doc_end,
            std::vector<std::vector<Mapping>>& per_doc) {
          ASSERT_EQ(doc_begin, streamed.size()) << "shards out of order";
          ASSERT_EQ(doc_end - doc_begin, per_doc.size());
          for (auto& ms : per_doc) streamed.push_back(std::move(ms));
          ++calls;
        });
    ASSERT_EQ(streamed.size(), corpus.size());
    EXPECT_EQ(streamed, Dense(want.per_doc)) << "threads=" << threads;
    EXPECT_EQ(calls, stats.shards);
    EXPECT_EQ(stats.total_mappings, want.total_mappings);
    EXPECT_EQ(stats.matched_documents, want.MatchedDocuments());
  }
}

TEST(BatchExtractorTest, ExtractStreamEmptyCorpus) {
  ExtractionPlan plan = ExtractionPlan::Compile("a*").ValueOrDie();
  Corpus corpus;
  BatchExtractor extractor;
  size_t calls = 0;
  BatchExtractor::StreamStats stats = extractor.ExtractStream(
      plan, corpus,
      [&](size_t, size_t, std::vector<std::vector<Mapping>>&) { ++calls; });
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(stats.shards, 0u);
  EXPECT_EQ(stats.total_mappings, 0u);
}

// ---- stream safety: a throwing consumer, the in-flight window -----------

// Counts the documents it extracts, to show how far a stream ran ahead of
// its consumer.
class CountingExtractor : public DocumentExtractor {
 public:
  explicit CountingExtractor(const ExtractionPlan& plan) : plan_(plan) {}
  const VarSet& vars() const override { return plan_.vars(); }
  void ExtractSortedInto(const Document& doc, PlanScratch* scratch,
                         std::vector<Mapping>* out) const override {
    plan_.ExtractSortedInto(doc, scratch, out);
    extracted_.fetch_add(1, std::memory_order_relaxed);
  }
  size_t extracted() const {
    return extracted_.load(std::memory_order_relaxed);
  }

 private:
  const ExtractionPlan& plan_;
  mutable std::atomic<size_t> extracted_{0};
};

Corpus LogCorpus(size_t rows_per_document) {
  workload::CorpusOptions o;
  o.documents = 256;
  o.rows_per_document = rows_per_document;
  return Corpus(workload::ServerLogCorpus(o));
}

ExtractionPlan LogPlan() {
  return ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::LogLineRgx()));
}

// Waits until every submitted shard has finished: `count` stops moving
// once the workers run out of work.
size_t Settled(const std::function<size_t()>& count) {
  size_t last = count();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const size_t now = count();
    if (now == last) return now;
    last = now;
  }
}

// A consumer that throws on its first shard: no shard task is running
// when it does (they reference the unwinding frame), and the same
// extractor then streams correctly.
TEST(BatchExtractorTest, StreamConsumerThrowIsSafe) {
  const Corpus corpus = LogCorpus(8);  // heavy enough to keep shards in flight
  const ExtractionPlan plan = LogPlan();
  const BatchResult want = BatchExtractor().Extract(plan, corpus);
  BatchOptions bo;
  bo.num_threads = 2;
  BatchExtractor extractor(bo);

  EXPECT_THROW(extractor.ExtractStream(
                   plan, corpus,
                   [](size_t, size_t, std::vector<std::vector<Mapping>>&) {
                     throw std::runtime_error("consumer");
                   }),
               std::runtime_error);
  std::vector<std::vector<Mapping>> streamed;
  extractor.ExtractStream(
      plan, corpus,
      [&](size_t, size_t, std::vector<std::vector<Mapping>>& per_doc) {
        for (auto& ms : per_doc) streamed.push_back(std::move(ms));
      });
  EXPECT_EQ(streamed, Dense(want.per_doc));
}

TEST(BatchExtractorTest, MultiStreamConsumerThrowIsSafe) {
  const Corpus corpus = LogCorpus(8);
  MultiQueryExtractor fleet({std::make_shared<const ExtractionPlan>(LogPlan()),
                             std::make_shared<const ExtractionPlan>(LogPlan())});
  const MultiBatchResult want = BatchExtractor().ExtractMulti(fleet, corpus);
  BatchOptions bo;
  bo.num_threads = 2;
  BatchExtractor extractor(bo);

  EXPECT_THROW(
      extractor.ExtractMultiStream(
          fleet, corpus,
          [](size_t, size_t, std::vector<std::vector<std::vector<Mapping>>>&) {
            throw std::runtime_error("consumer");
          }),
      std::runtime_error);
  std::vector<std::vector<std::vector<Mapping>>> streamed(fleet.num_plans());
  extractor.ExtractMultiStream(
      fleet, corpus,
      [&](size_t, size_t,
          std::vector<std::vector<std::vector<Mapping>>>& per_plan) {
        for (size_t p = 0; p < per_plan.size(); ++p)
          for (auto& ms : per_plan[p]) streamed[p].push_back(std::move(ms));
      });
  for (size_t p = 0; p < fleet.num_plans(); ++p)
    EXPECT_EQ(streamed[p], Dense(want.per_plan[p].per_doc)) << "plan " << p;
}

// With default options at 2 threads the corpus cuts into 8 shards, but
// at most 2 × threads of them are extracted ahead of the consumer: while
// the consumer holds the first shard, the rest of the corpus waits.
TEST(BatchExtractorTest, StreamWindowBoundsExtraction) {
  const Corpus corpus = LogCorpus(1);
  const ExtractionPlan plan = LogPlan();
  const CountingExtractor counting(plan);
  BatchOptions bo;
  bo.num_threads = 2;
  BatchExtractor extractor(bo);

  size_t calls = 0;
  size_t extracted_at_first = 0;
  extractor.ExtractStream(
      counting, corpus,
      [&](size_t, size_t, std::vector<std::vector<Mapping>>&) {
        if (calls++ == 0)
          extracted_at_first = Settled([&] { return counting.extracted(); });
      });
  ASSERT_GE(calls, 8u);
  EXPECT_LT(extracted_at_first, corpus.size());
  EXPECT_EQ(counting.extracted(), corpus.size());
}

TEST(BatchExtractorTest, MultiStreamWindowBoundsExtraction) {
  const Corpus corpus = LogCorpus(1);
  MultiQueryExtractor fleet({std::make_shared<const ExtractionPlan>(LogPlan())});
  BatchOptions bo;
  bo.num_threads = 2;
  BatchExtractor extractor(bo);

  size_t calls = 0;
  size_t extracted_at_first = 0;
  extractor.ExtractMultiStream(
      fleet, corpus,
      [&](size_t, size_t, std::vector<std::vector<std::vector<Mapping>>>&) {
        if (calls++ == 0)
          extracted_at_first = Settled([&] {
            return static_cast<size_t>(fleet.plan_stats(0).documents);
          });
      });
  ASSERT_GE(calls, 8u);
  EXPECT_LT(extracted_at_first, corpus.size());
  EXPECT_EQ(fleet.plan_stats(0).documents, corpus.size());
}

// ---- the caller extracts ------------------------------------------------

// Records the threads that extracted its documents.
class ThreadRecordingExtractor : public DocumentExtractor {
 public:
  explicit ThreadRecordingExtractor(const ExtractionPlan& plan)
      : plan_(plan) {}
  const VarSet& vars() const override { return plan_.vars(); }
  void ExtractSortedInto(const Document& doc, PlanScratch* scratch,
                         std::vector<Mapping>* out) const override {
    plan_.ExtractSortedInto(doc, scratch, out);
    std::lock_guard<std::mutex> lock(mu_);
    threads_.insert(std::this_thread::get_id());
  }
  std::set<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }

 private:
  const ExtractionPlan& plan_;
  mutable std::mutex mu_;
  mutable std::set<std::thread::id> threads_;
};

// The calling thread is an extraction thread: a one-thread extractor
// extracts on it alone, batch and stream, and a one-document batch
// extracts on it at any thread count.
TEST(BatchExtractorTest, CallerExtracts) {
  const Corpus corpus = LogCorpus(1);
  const ExtractionPlan plan = LogPlan();
  const std::set<std::thread::id> caller = {std::this_thread::get_id()};

  BatchOptions one;
  one.num_threads = 1;
  BatchExtractor single(one);
  const ThreadRecordingExtractor batch(plan);
  EXPECT_EQ(Dense(single.Extract(batch, corpus).per_doc),
            Dense(single.Extract(plan, corpus).per_doc));
  EXPECT_EQ(batch.threads(), caller);
  const ThreadRecordingExtractor stream(plan);
  size_t streamed = 0;
  single.ExtractStream(
      stream, corpus,
      [&](size_t begin, size_t end, std::vector<std::vector<Mapping>>&) {
        streamed += end - begin;
      });
  EXPECT_EQ(streamed, corpus.size());
  EXPECT_EQ(stream.threads(), caller);

  BatchOptions eight;
  eight.num_threads = 8;
  BatchExtractor wide(eight);
  const Corpus first(std::vector<Document>{corpus[0]});
  for (int i = 0; i < 20; ++i) {
    const ThreadRecordingExtractor doc(plan);
    wide.Extract(doc, first);
    EXPECT_EQ(doc.threads(), caller);
  }
}

TEST(FormatTest, ParseOutputFormat) {
  OutputFormat f;
  EXPECT_TRUE(ParseOutputFormat("tsv", &f));
  EXPECT_EQ(f, OutputFormat::kTsv);
  EXPECT_TRUE(ParseOutputFormat("json", &f));
  EXPECT_EQ(f, OutputFormat::kJson);
  EXPECT_FALSE(ParseOutputFormat("xml", &f));
}

}  // namespace
}  // namespace engine
}  // namespace spanners
