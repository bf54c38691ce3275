// Tests for cooperative cancellation and per-request resource governance
// (common/cancel.h): every long-running tier — the Aho–Corasick scan, the
// lazy DFA, each evaluator family, the enumerator, and the query layer's
// hash join — must observe a tripped CancelToken within a bounded number
// of steps; deadlines and arena-byte budgets must abort evaluation
// mid-flight with the right Status; and an armed-but-untripped token must
// leave results byte-identical to a run without one. Server-side: a
// request deadline fires mid-evaluation, a disconnect cancels queued AND
// in-flight work, and the per-request memory cap converts a pathological
// request into ResourceExhausted.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dense_result.h"
#include "automata/enumerate.h"
#include "automata/fpt.h"
#include "automata/matcher.h"
#include "automata/run_eval.h"
#include "automata/thompson.h"
#include "common/aho_corasick.h"
#include "common/cancel.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "query/compile.h"
#include "query/parser.h"
#include "rgx/parser.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/ngram_index.h"
#include "storage/segment.h"
#include "workload/generators.h"

namespace spanners {
namespace {

using engine::BatchExtractor;
using engine::BatchOptions;
using engine::BatchResult;
using engine::Corpus;
using engine::ExtractionPlan;
using engine::OutputFormat;
using engine::PlanScratch;
using std::chrono::steady_clock;

RgxPtr P(std::string_view p) { return ParseRgx(p).ValueOrDie(); }

ExtractionPlan MustCompile(std::string_view pattern) {
  auto plan = ExtractionPlan::Compile(pattern);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

// ---- token + gauge --------------------------------------------------

TEST(CancelTokenTest, CancelTripsAndConverts) {
  CancelToken tok;
  EXPECT_FALSE(tok.tripped());
  EXPECT_TRUE(tok.ToStatus().ok());
  tok.Cancel();
  EXPECT_TRUE(tok.Poll(0));
  EXPECT_TRUE(tok.tripped());
  EXPECT_EQ(tok.reason(), CancelToken::Reason::kCancelled);
  EXPECT_EQ(tok.ToStatus().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, DeadlineTripsAndConverts) {
  CancelToken tok;
  tok.ArmDeadline(steady_clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(tok.Poll(0));
  EXPECT_EQ(tok.reason(), CancelToken::Reason::kDeadline);
  EXPECT_EQ(tok.ToStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, MemoryBudgetTripsAndTracksPeak) {
  CancelToken tok;
  tok.ArmMemoryBudget(100);
  EXPECT_FALSE(tok.Poll(50));
  EXPECT_TRUE(tok.Poll(200));
  EXPECT_EQ(tok.reason(), CancelToken::Reason::kResourceExhausted);
  EXPECT_EQ(tok.ToStatus().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(tok.peak_arena_bytes(), 200u);
}

TEST(CancelTokenTest, FirstTripWins) {
  CancelToken tok;
  tok.ArmMemoryBudget(100);
  EXPECT_TRUE(tok.Poll(200));
  tok.Cancel();
  EXPECT_TRUE(tok.Poll(0));
  // The later Cancel() cannot replace the recorded reason.
  EXPECT_EQ(tok.reason(), CancelToken::Reason::kResourceExhausted);
}

TEST(CancelGaugeTest, NullGaugeNeverStops) {
  CancelGauge gauge;
  for (uint32_t i = 0; i < 4 * CancelGauge::kStride; ++i)
    ASSERT_FALSE(gauge.ShouldStop());
  EXPECT_FALSE(gauge.armed());
}

TEST(CancelGaugeTest, ObservesTripWithinOneStride) {
  CancelToken tok;
  tok.Cancel();
  CancelGauge gauge(&tok);
  uint32_t steps = 0;
  while (!gauge.ShouldStop()) {
    ++steps;
    ASSERT_LE(steps, CancelGauge::kStride);
  }
  EXPECT_LE(steps, CancelGauge::kStride);
  EXPECT_GE(tok.polls(), 1u);
}

// ---- scan tiers -----------------------------------------------------

TEST(CancelScanTest, AhoCorasickObservesCancellation) {
  const AhoCorasick ac(std::vector<std::string>{"needle", "pin"});
  std::string text(1u << 20, 'a');
  for (size_t i = 0; i + 6 < text.size(); i += 4096)
    text.replace(i, 6, "needle");

  size_t hits_uncancelled = 0;
  ac.Scan(text, [&](uint32_t, size_t) {
    ++hits_uncancelled;
    return true;
  });
  ASSERT_GT(hits_uncancelled, 0u);

  CancelToken tok;
  tok.Cancel();
  size_t hits = 0;
  ac.Scan(
      text,
      [&](uint32_t, size_t) {
        ++hits;
        return true;
      },
      &tok);
  // The scan polls before advancing and a pre-tripped token stops it at
  // the first poll: no hit is ever reported.
  EXPECT_EQ(hits, 0u);
  EXPECT_GE(tok.polls(), 1u);
}

TEST(CancelScanTest, LazyDfaObservesCancellation) {
  const ExtractionPlan plan = MustCompile(".*ERR x{[0-9]+}.*");
  const std::string text(1u << 20, 'a');
  ASSERT_TRUE(plan.lazy_dfa().Matches(text).has_value());

  CancelToken tok;
  tok.Cancel();
  EXPECT_EQ(plan.lazy_dfa().Matches(text, &tok), std::nullopt);
  EXPECT_GE(tok.polls(), 1u);
}

// ---- evaluator families ---------------------------------------------

TEST(CancelEvalTest, RunEvaluationObservesCancellation) {
  const VA a = CompileToVa(P(".*x{a*}.*"));
  const Document doc(std::string(128, 'a'));
  Arena arena;

  std::vector<Mapping> full;
  {
    VectorSink sink(&full);
    RunEvalTo(a, doc, &arena, sink);
  }
  ASSERT_GT(full.size(), CancelGauge::kStride);

  CancelToken tok;
  tok.Cancel();
  std::vector<Mapping> out;
  VectorSink sink(&out);
  RunEvalTo(a, doc, &arena, sink, nullptr, &tok);
  EXPECT_GE(tok.polls(), 1u);
  EXPECT_LT(out.size(), full.size());
}

TEST(CancelEvalTest, SequentialMatcherObservesCancellation) {
  const VA a = CompileToVa(P(".*x{a*}.*"));
  const Document doc(std::string(4096, 'a'));
  Arena arena;
  ASSERT_TRUE(EvalSequential(a, doc, ExtendedMapping(), &arena));

  CancelToken tok;
  tok.Cancel();
  EvalSequential(a, doc, ExtendedMapping(), &arena, &tok);
  // The returned bool is meaningless after a trip; the contract is that
  // the simulation consulted the token (and therefore aborted early).
  EXPECT_GE(tok.polls(), 1u);
}

TEST(CancelEvalTest, FptEvaluatorObservesCancellation) {
  const VA a = CompileToVa(P(".*x{a*}.*"));
  const Document doc(std::string(4096, 'a'));
  Arena arena;
  ASSERT_TRUE(EvalVa(a, doc, ExtendedMapping(), &arena));

  CancelToken tok;
  tok.Cancel();
  EvalVa(a, doc, ExtendedMapping(), &arena, &tok);
  EXPECT_GE(tok.polls(), 1u);
}

TEST(CancelEvalTest, EnumeratorObservesCancellation) {
  const VA a = CompileToVa(P(".*x{a*}.*"));
  const Document doc(std::string(128, 'a'));

  Arena full_arena;
  std::vector<Mapping> full;
  {
    VectorSink sink(&full);
    EnumerateSequentialTo(a, doc, &full_arena, sink);
  }
  ASSERT_GT(full.size(), CancelGauge::kStride);

  CancelToken tok;
  tok.Cancel();
  Arena arena;
  std::vector<Mapping> out;
  VectorSink sink(&out);
  EnumerateSequentialTo(a, doc, &arena, sink, &tok);
  EXPECT_GE(tok.polls(), 1u);
  // The enumerator's own gauge ends the DFS within one stride, so at
  // most a stride's worth of outputs can have been pushed.
  EXPECT_LE(out.size(), size_t{CancelGauge::kStride});
  EXPECT_LT(out.size(), full.size());
}

TEST(CancelQueryTest, HashJoinObservesCancellation) {
  auto expr = query::ParseQuery(
      "join(rgx(\".*x{a*}.*\"), rgx(\".*x{a*}b.*\"))");
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  auto q = query::CompiledQuery::Compile(expr.value());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->PlanString().substr(0, 5), "join(");

  const Document doc(std::string(300, 'a') + "b");
  CancelToken tok;
  tok.Cancel();
  PlanScratch scratch;
  scratch.cancel = &tok;
  std::vector<Mapping> out;
  q->ExtractSortedInto(doc, &scratch, &out);
  EXPECT_GE(tok.polls(), 1u);
}

TEST(CancelQueryTest, DeadlineAbortsJoinMidEvaluation) {
  auto expr = query::ParseQuery(
      "join(rgx(\".*x{a*}.*\"), rgx(\".*x{a*}b.*\"))");
  ASSERT_TRUE(expr.ok());
  auto q = query::CompiledQuery::Compile(expr.value());
  ASSERT_TRUE(q.ok());

  // Θ(n²) left-side mappings: far more work than the deadline allows.
  const Document doc(std::string(3000, 'a') + "b");
  CancelToken tok;
  tok.ArmDeadline(steady_clock::now() + std::chrono::milliseconds(20));
  PlanScratch scratch;
  scratch.cancel = &tok;
  std::vector<Mapping> out;
  const auto t0 = steady_clock::now();
  q->ExtractSortedInto(doc, &scratch, &out);
  EXPECT_TRUE(tok.tripped());
  EXPECT_EQ(tok.ToStatus().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(steady_clock::now() - t0, std::chrono::seconds(10));
}

// ---- plan-level deadline / budget / identity ------------------------

TEST(CancelPlanTest, DeadlineAbortsPathologicalExtraction) {
  const ExtractionPlan plan = MustCompile(workload::PathologicalRgxText());
  const std::vector<Document> bomb =
      workload::BombCorpus(workload::BombOptions{1, 4096});

  CancelToken tok;
  tok.ArmDeadline(steady_clock::now() + std::chrono::milliseconds(20));
  PlanScratch scratch;
  scratch.cancel = &tok;
  std::vector<Mapping> out;
  const auto t0 = steady_clock::now();
  plan.ExtractSortedInto(bomb[0], &scratch, &out);
  EXPECT_TRUE(tok.tripped());
  EXPECT_EQ(tok.ToStatus().code(), StatusCode::kDeadlineExceeded);
  // Abort latency is bounded by the poll stride, not by the Θ(n²)
  // remaining work (generous bound for sanitizer builds).
  EXPECT_LT(steady_clock::now() - t0, std::chrono::seconds(10));
}

TEST(CancelPlanTest, MemoryBudgetAbortsPathologicalExtraction) {
  const ExtractionPlan plan = MustCompile(workload::PathologicalRgxText());
  const std::vector<Document> bomb =
      workload::BombCorpus(workload::BombOptions{1, 2048});

  CancelToken tok;
  tok.ArmMemoryBudget(32u << 10);
  PlanScratch scratch;
  scratch.cancel = &tok;
  std::vector<Mapping> out;
  plan.ExtractSortedInto(bomb[0], &scratch, &out);
  EXPECT_TRUE(tok.tripped());
  EXPECT_EQ(tok.reason(), CancelToken::Reason::kResourceExhausted);
  EXPECT_EQ(tok.ToStatus().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(tok.peak_arena_bytes(), 32u << 10);
}

TEST(CancelPlanTest, UntrippedTokenIsByteIdentical) {
  const std::string pattern = ".*ALERT id=(x{[0-9]+}) code=(y{[A-Z]+})\\n.*";
  workload::NeedleOptions no;
  no.documents = 200;
  no.doc_bytes = 512;
  no.match_rate = 0.05;
  const Corpus corpus{workload::NeedleCorpus(no)};
  const ExtractionPlan plan = MustCompile(pattern);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    BatchOptions options;
    options.num_threads = threads;
    BatchExtractor batch(options);
    const BatchResult base = batch.Extract(plan, corpus);

    // Generously armed and never tripping: polls must have no side
    // effect on results.
    CancelToken tok;
    tok.ArmDeadline(steady_clock::now() + std::chrono::hours(1));
    tok.ArmMemoryBudget(uint64_t{1} << 40);
    batch.set_cancel(&tok);
    const BatchResult with_token = batch.Extract(plan, corpus);
    batch.set_cancel(nullptr);

    EXPECT_FALSE(tok.tripped());
    ASSERT_EQ(base.per_doc.size(), with_token.per_doc.size());
    for (size_t i = 0; i < base.per_doc.size(); ++i)
      EXPECT_EQ(base.per_doc[i], with_token.per_doc[i]) << "doc " << i;
    EXPECT_EQ(base.total_mappings, with_token.total_mappings);
  }
}

TEST(CancelPlanTest, PreTrippedTokenStopsBatchBetweenDocuments) {
  const ExtractionPlan plan = MustCompile(".*ERR x{[0-9]+}.*");
  Corpus corpus;
  for (int i = 0; i < 64; ++i)
    corpus.Add(Document("ERR " + std::to_string(i) + " payload"));

  BatchOptions options;
  options.num_threads = 2;
  BatchExtractor batch(options);
  const BatchResult base = batch.Extract(plan, corpus);
  ASSERT_GT(base.total_mappings, 64u);

  CancelToken tok;
  tok.Cancel();
  batch.set_cancel(&tok);
  const BatchResult cancelled = batch.Extract(plan, corpus);
  batch.set_cancel(nullptr);
  // Workers bail between documents once tripped; the partial result is
  // contractually meaningless but must be smaller than the full run.
  EXPECT_LT(cancelled.total_mappings, base.total_mappings);
}

// ---- the token on every BatchExtractor entry point -------------------

// What a caller sees of one entry-point run: document d's mappings, every
// output's in order, and the reported total.
struct EntryRun {
  std::vector<std::vector<Mapping>> rows;
  uint64_t total_mappings = 0;
};

EntryRun FromBatch(const BatchResult& r) {
  return EntryRun{engine::Dense(r.per_doc), r.total_mappings};
}

EntryRun FromMulti(const engine::MultiBatchResult& r, size_t num_docs) {
  EntryRun run;
  run.rows.resize(num_docs);
  for (const BatchResult& plan : r.per_plan)
    for (size_t d = 0; d < num_docs; ++d)
      run.rows[d].insert(run.rows[d].end(), plan.per_doc[d].begin(),
                         plan.per_doc[d].end());
  run.total_mappings = r.total_mappings;
  return run;
}

// Every public entry point over one needle corpus: in memory for the
// corpus calls, written as a segment plus trigram index for the indexed
// ones. The fleet holds two plans, so per-plan outputs interleave.
class EntryPoints {
 public:
  EntryPoints()
      : corpus_(NeedleCorpus()),
        plan_(MustCompile(".*ALERT id=(x{[0-9]+}) code=(y{[A-Z]+})\\n.*")),
        fleet_({std::make_shared<const ExtractionPlan>(
                    MustCompile(".*ALERT id=(x{[0-9]+}).*")),
                std::make_shared<const ExtractionPlan>(
                    MustCompile(".*code=(y{[A-Z]+})\\n.*"))}),
        path_(::testing::TempDir() + "spanners_cancel_entry_" +
              std::to_string(reinterpret_cast<uintptr_t>(this)) + ".seg") {
    EXPECT_TRUE(storage::SegmentStore::Write(corpus_, path_).ok());
    store_.emplace(storage::SegmentStore::Open(path_).ValueOrDie());
    const std::string index_path = storage::IndexPathFor(path_);
    EXPECT_TRUE(storage::NgramIndex::Build(*store_).Save(index_path).ok());
    index_.emplace(
        storage::NgramIndex::Open(index_path, store_->num_docs()).ValueOrDie());
  }

  ~EntryPoints() {
    std::remove(path_.c_str());
    std::remove(storage::IndexPathFor(path_).c_str());
  }

  static constexpr const char* kNames[] = {
      "Extract",        "ExtractInto",      "ExtractStream",
      "ExtractMulti",   "ExtractMultiInto", "ExtractMultiStream",
      "ExtractIndexed", "ExtractIndexedMulti"};

  // Runs entry point `e` (an index into kNames) on `batch`. The *Into
  // calls refill results kept across calls, as a serving loop does.
  EntryRun Run(size_t e, BatchExtractor& batch) {
    const size_t n = corpus_.size();
    EntryRun run;
    switch (e) {
      case 0:
        return FromBatch(batch.Extract(plan_, corpus_));
      case 1:
        batch.ExtractInto(plan_, corpus_, &reused_);
        return FromBatch(reused_);
      case 2:
        run.total_mappings =
            batch
                .ExtractStream(plan_, corpus_,
                               [&](size_t, size_t,
                                   std::vector<std::vector<Mapping>>& per_doc) {
                                 for (auto& ms : per_doc)
                                   run.rows.push_back(std::move(ms));
                               })
                .total_mappings;
        return run;
      case 3:
        return FromMulti(batch.ExtractMulti(fleet_, corpus_), n);
      case 4:
        batch.ExtractMultiInto(fleet_, corpus_, &reused_multi_);
        return FromMulti(reused_multi_, n);
      case 5:
        run.rows.resize(n);
        run.total_mappings =
            batch
                .ExtractMultiStream(
                    fleet_, corpus_,
                    [&](size_t begin, size_t end,
                        std::vector<std::vector<std::vector<Mapping>>>&
                            per_plan) {
                      for (auto& plan : per_plan)
                        for (size_t d = begin; d < end; ++d)
                          for (Mapping& m : plan[d - begin])
                            run.rows[d].push_back(std::move(m));
                    })
                .total_mappings;
        return run;
      case 6:
        return FromBatch(batch.ExtractIndexed(plan_, *store_, &*index_));
      default:
        return FromMulti(batch.ExtractIndexedMulti(fleet_, *store_, &*index_),
                         n);
    }
  }

 private:
  static Corpus NeedleCorpus() {
    workload::NeedleOptions no;
    no.documents = 200;
    no.doc_bytes = 512;
    no.match_rate = 0.05;
    return Corpus(workload::NeedleCorpus(no));
  }

  Corpus corpus_;
  ExtractionPlan plan_;
  engine::MultiQueryExtractor fleet_;
  std::string path_;
  std::optional<storage::SegmentStore> store_;
  std::optional<storage::NgramIndex> index_;
  BatchResult reused_;
  engine::MultiBatchResult reused_multi_;
};

// All eight entry points share one shard driver; each must honour the
// token exactly like Extract: an armed token that never trips changes
// nothing, and a tripped one stops the batch before its next document.
TEST(CancelPlanTest, TokenOnEveryEntryPoint) {
  EntryPoints entries;
  obs::Histogram* docs =
      obs::MetricsRegistry::Global().GetHistogram("engine.doc_ns");
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    BatchOptions options;
    options.num_threads = threads;
    BatchExtractor batch(options);
    for (size_t e = 0; e < std::size(EntryPoints::kNames); ++e) {
      SCOPED_TRACE(std::string(EntryPoints::kNames[e]) + ", threads " +
                   std::to_string(threads));
      const EntryRun base = entries.Run(e, batch);
      ASSERT_GT(base.total_mappings, 0u);

      CancelToken armed;
      armed.ArmDeadline(steady_clock::now() + std::chrono::hours(1));
      armed.ArmMemoryBudget(uint64_t{1} << 40);
      batch.set_cancel(&armed);
      const EntryRun with_token = entries.Run(e, batch);
      batch.set_cancel(nullptr);
      EXPECT_FALSE(armed.tripped());
      EXPECT_EQ(with_token.rows, base.rows);
      EXPECT_EQ(with_token.total_mappings, base.total_mappings);

      // A tripped token is seen before the first document: no document
      // even opens its engine.doc_ns span.
      CancelToken tripped;
      tripped.Cancel();
      ASSERT_TRUE(tripped.Poll(0));
      obs::SetEnabled(true);
      const uint64_t docs_before = docs->Count();
      batch.set_cancel(&tripped);
      const EntryRun cancelled = entries.Run(e, batch);
      batch.set_cancel(nullptr);
      const uint64_t docs_visited = docs->Count() - docs_before;
      obs::SetEnabled(false);
      EXPECT_LT(cancelled.total_mappings, base.total_mappings);
      EXPECT_EQ(docs_visited, 0u);
    }
  }
}

// ---- server: deadline, memory cap, disconnect -----------------------

class RunningServer {
 public:
  RunningServer(server::ServerOptions options, Corpus corpus) {
    if (options.socket_path.empty())
      options.socket_path = ::testing::TempDir() + "spanexd_cancel_test_" +
                            std::to_string(reinterpret_cast<uintptr_t>(this)) +
                            ".sock";
    socket_path_ = options.socket_path;
    options.num_threads = 2;
    server_.emplace(std::move(options), std::move(corpus));
    Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    thread_ = std::thread([this] { exit_code_ = server_->Serve(); });
  }

  ~RunningServer() { Shutdown(); }

  int Shutdown() {
    if (thread_.joinable()) {
      server_->RequestDrain();
      thread_.join();
    }
    std::remove(socket_path_.c_str());
    return exit_code_;
  }

  server::Server& server() { return *server_; }

  server::Client MustConnect() {
    Result<server::Client> c = server::Client::Connect(socket_path_);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(c).value();
  }

 private:
  std::optional<server::Server> server_;
  std::string socket_path_;
  std::thread thread_;
  int exit_code_ = -1;
};

Corpus BombServedCorpus(size_t doc_bytes) {
  return Corpus(workload::BombCorpus(workload::BombOptions{1, doc_bytes}));
}

TEST(CancelServerTest, DeadlineFiresMidEvaluation) {
  server::ServerOptions options;
  options.request_timeout_ms = 100;
  RunningServer rs(std::move(options), BombServedCorpus(1u << 15));
  server::Client client = rs.MustConnect();
  ASSERT_TRUE(client.Register(workload::PathologicalRgxText()).ok());

  const auto t0 = steady_clock::now();
  Result<server::Client::ExtractSummary> result =
      client.ExtractBatch(OutputFormat::kTsv, false, false,
                          [](const std::string&) {});
  const auto elapsed = steady_clock::now() - t0;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  // The Θ(n²) bomb would run for minutes; the deadline must abort the
  // RUNNING evaluation promptly (generous bound for sanitizer builds).
  EXPECT_LT(elapsed, std::chrono::seconds(30));
  EXPECT_GE(rs.server().StatsSnapshot().deadline_exceeded, 1u);
}

TEST(CancelServerTest, MemoryCapYieldsResourceExhausted) {
  server::ServerOptions options;
  options.request_memory_cap = 32u << 10;
  // Backstop so a regression in budget polling fails the EXPECT below
  // instead of hanging the test on the full Θ(n²) evaluation.
  options.request_timeout_ms = 30'000;
  RunningServer rs(std::move(options), BombServedCorpus(1u << 15));
  server::Client client = rs.MustConnect();
  ASSERT_TRUE(client.Register(workload::PathologicalRgxText()).ok());

  Result<server::Client::ExtractSummary> result =
      client.ExtractBatch(OutputFormat::kTsv, false, false,
                          [](const std::string&) {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_GE(rs.server().StatsSnapshot().resource_exhausted, 1u);
}

// Disconnects while `inflight` runs and a batch waits queued behind it.
void ExpectDisconnectCancels(const std::string& inflight) {
  SCOPED_TRACE(inflight);
  RunningServer rs(server::ServerOptions{}, BombServedCorpus(1u << 15));
  {
    server::Client client = rs.MustConnect();
    ASSERT_TRUE(client.Register(workload::PathologicalRgxText()).ok());
    // Two requests back to back: the first goes in-flight, the second (a
    // batch) waits in the queue behind it.
    ASSERT_TRUE(client.SendLine(inflight).ok());
    ASSERT_TRUE(
        client.SendLine("{\"op\":\"extract_batch\",\"id\":2}").ok());
    // Wait until the single-threaded executor has dequeued request 1
    // while request 2 still sits in the queue.
    const auto admit_deadline = steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      const engine::ServerStatsReport s = rs.server().StatsSnapshot();
      if (s.admitted >= 2 && s.queue_depth == 1) break;
      ASSERT_LT(steady_clock::now(), admit_deadline)
          << "request 1 never went in-flight";
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }  // disconnect: the destructor closes the socket mid-request

  // The in-flight request must observe the Cancel() (stats.cancelled)
  // and the queued item must be dropped at dequeue
  // (stats.cancelled_disconnect).
  const auto deadline = steady_clock::now() + std::chrono::seconds(30);
  engine::ServerStatsReport stats;
  for (;;) {
    stats = rs.server().StatsSnapshot();
    if ((stats.cancelled >= 1 && stats.cancelled_disconnect >= 1) ||
        steady_clock::now() >= deadline)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(stats.cancelled, 1u);
  EXPECT_GE(stats.cancelled_disconnect, 1u);
}

TEST(CancelServerTest, DisconnectCancelsQueuedAndInflightWork) {
  ExpectDisconnectCancels("{\"op\":\"extract_batch\",\"id\":1}");
  // A 60 s sleeping ping in flight is governed by the same token.
  ExpectDisconnectCancels("{\"op\":\"ping\",\"id\":1,\"sleep_ms\":60000}");
}

}  // namespace
}  // namespace spanners
