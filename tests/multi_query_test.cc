// Tests for single-pass multi-query extraction: byte-identity of
// ExtractMulti against running every plan alone (the gate may reorganize
// work, never change results) across thread counts, ordered streaming,
// per-plan skip counters, and the PlanCache-resident entry point.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "dense_result.h"
#include "engine/engine.h"
#include "workload/generators.h"

namespace spanners {
namespace engine {
namespace {

std::vector<std::shared_ptr<const ExtractionPlan>> CompileAll(
    const std::vector<std::string>& patterns) {
  std::vector<std::shared_ptr<const ExtractionPlan>> plans;
  for (const std::string& p : patterns)
    plans.push_back(std::make_shared<const ExtractionPlan>(
        ExtractionPlan::Compile(p).ValueOrDie()));
  return plans;
}

// ExtractMulti must be byte-identical to per-plan extraction for every
// plan, across thread counts {1, 2, 8} — the ISSUE's acceptance bar.
TEST(MultiQueryTest, FleetByteIdenticalToPerPlanExtractionAcrossThreads) {
  workload::FleetOptions o;
  o.num_patterns = 12;
  o.documents = 160;
  o.doc_bytes = 300;
  o.match_rate = 0.05;
  workload::PatternFleet generated = workload::MakePatternFleet(o);
  Corpus corpus(std::move(generated.documents));
  auto plans = CompileAll(generated.patterns);
  MultiQueryExtractor fleet(plans);

  // Ground truth: each plan alone, through fresh (gated) plans so the
  // fleet's shared counters/caches cannot leak into the expectation.
  std::vector<std::vector<std::vector<Mapping>>> expected;
  {
    BatchOptions bo;
    bo.num_threads = 1;
    BatchExtractor extractor(bo);
    for (const std::string& p : generated.patterns) {
      ExtractionPlan alone = ExtractionPlan::Compile(p).ValueOrDie();
      expected.push_back(Dense(extractor.Extract(alone, corpus).per_doc));
    }
  }

  for (size_t threads : {1u, 2u, 8u}) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;
    BatchExtractor extractor(bo);
    MultiBatchResult result = extractor.ExtractMulti(fleet, corpus);
    ASSERT_EQ(result.per_plan.size(), plans.size());
    for (size_t p = 0; p < plans.size(); ++p)
      EXPECT_EQ(Dense(result.per_plan[p].per_doc), expected[p])
          << "plan " << p << " threads " << threads;
  }
}

// Random formulas (not fleet-shaped: some without any usable literal, so
// part of the fleet is AC-gated and part falls through to the DFA tier).
TEST(MultiQueryTest, RandomPlansGatedFleetMatchesUngatedFleet) {
  std::mt19937 rng(59);
  workload::RandomRgxOptions o;
  o.num_vars = 2;
  o.letters = "ab";
  std::uniform_int_distribution<size_t> len_pick(0, 10);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::shared_ptr<const ExtractionPlan>> plans;
    std::vector<std::shared_ptr<const ExtractionPlan>> plain_plans;
    for (int p = 0; p < 6; ++p) {
      RgxPtr rgx = workload::RandomRgx(o, &rng);
      plans.push_back(std::make_shared<const ExtractionPlan>(
          ExtractionPlan::FromSpanner(Spanner::FromRgx(rgx))));
      auto plain = std::make_shared<ExtractionPlan>(
          ExtractionPlan::FromSpanner(Spanner::FromRgx(rgx)));
      plain->set_gating_enabled(false);
      plain_plans.push_back(std::move(plain));
    }
    std::vector<Document> docs;
    for (int i = 0; i < 40; ++i)
      docs.push_back(workload::RandomDocument("ab", len_pick(rng), &rng));
    Corpus corpus(std::move(docs));

    MultiQueryExtractor gated(plans);
    MultiQueryExtractor ungated(plain_plans);
    ungated.set_gating_enabled(false);

    for (size_t threads : {1u, 2u}) {
      BatchOptions bo;
      bo.num_threads = threads;
      bo.min_docs_per_shard = 4;
      BatchExtractor extractor(bo);
      MultiBatchResult got = extractor.ExtractMulti(gated, corpus);
      MultiBatchResult want = extractor.ExtractMulti(ungated, corpus);
      for (size_t p = 0; p < plans.size(); ++p)
        ASSERT_EQ(Dense(got.per_plan[p].per_doc),
                  Dense(want.per_plan[p].per_doc))
            << "round " << round << " plan " << p << " threads " << threads;
    }
  }
}

TEST(MultiQueryTest, ExtractMultiStreamMatchesExtractMultiInOrder) {
  workload::FleetOptions o;
  o.num_patterns = 6;
  o.documents = 120;
  o.doc_bytes = 200;
  o.match_rate = 0.05;
  workload::PatternFleet generated = workload::MakePatternFleet(o);
  Corpus corpus(std::move(generated.documents));
  MultiQueryExtractor fleet(CompileAll(generated.patterns));

  BatchOptions ro;
  ro.num_threads = 1;
  MultiBatchResult want = BatchExtractor(ro).ExtractMulti(fleet, corpus);

  for (size_t threads : {1u, 2u, 8u}) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;
    BatchExtractor extractor(bo);
    std::vector<std::vector<std::vector<Mapping>>> streamed(
        fleet.num_plans());
    size_t calls = 0;
    BatchExtractor::StreamStats stats = extractor.ExtractMultiStream(
        fleet, corpus,
        [&](size_t doc_begin, size_t doc_end,
            std::vector<std::vector<std::vector<Mapping>>>& per_plan) {
          ASSERT_EQ(per_plan.size(), fleet.num_plans());
          ASSERT_EQ(doc_begin, streamed[0].size()) << "shards out of order";
          ASSERT_EQ(doc_end - doc_begin, per_plan[0].size());
          for (size_t p = 0; p < per_plan.size(); ++p)
            for (auto& ms : per_plan[p]) streamed[p].push_back(std::move(ms));
          ++calls;
        });
    EXPECT_EQ(calls, stats.shards);
    EXPECT_EQ(stats.total_mappings, want.total_mappings);
    for (size_t p = 0; p < fleet.num_plans(); ++p)
      EXPECT_EQ(streamed[p], Dense(want.per_plan[p].per_doc))
          << "plan " << p << " threads " << threads;
  }
}

// plan_stats() derives each gated plan's shared-pass rejections from one
// fleet-wide document count, so it must stay exact across calls, thread
// counts and entry points: after each call, documents equals every
// document offered so far, and the four outcomes add up to it.
TEST(MultiQueryTest, PerPlanStatsAccountForEveryDocument) {
  workload::FleetOptions o;
  o.num_patterns = 4;
  o.documents = 100;
  o.doc_bytes = 200;
  o.match_rate = 0.1;
  workload::PatternFleet generated = workload::MakePatternFleet(o);
  Corpus corpus(std::move(generated.documents));
  MultiQueryExtractor fleet(CompileAll(generated.patterns));
  EXPECT_EQ(fleet.num_gated_plans(), 4u);
  EXPECT_GT(fleet.num_gate_literals(), 0u);

  uint64_t offered = 0;
  std::vector<uint64_t> matched(fleet.num_plans(), 0);
  std::vector<uint64_t> mappings(fleet.num_plans(), 0);
  auto check = [&](const std::string& after) {
    for (size_t p = 0; p < fleet.num_plans(); ++p) {
      PlanStats s = fleet.plan_stats(p);
      EXPECT_EQ(s.documents, offered) << after << " plan " << p;
      // Every document is either rejected by the shared AC pass (no tag
      // literal), the remaining-clause prefilter tier, the DFA tier, or
      // extracted; the fleet corpus is built so every extracted document
      // matches.
      EXPECT_EQ(s.ac_gate_skipped + s.prefilter_skipped + s.dfa_skipped +
                    matched[p],
                offered)
          << after << " plan " << p;
      EXPECT_EQ(s.evaluated(), matched[p]) << after << " plan " << p;
      EXPECT_GT(s.ac_gate_skipped, 0u) << after << " plan " << p;
      EXPECT_EQ(s.mappings, mappings[p]) << after << " plan " << p;
      EXPECT_FALSE(s.ToString().empty());
    }
  };

  for (size_t threads : {1u, 2u, 8u}) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;
    MultiBatchResult result = BatchExtractor(bo).ExtractMulti(fleet, corpus);
    offered += corpus.size();
    for (size_t p = 0; p < fleet.num_plans(); ++p) {
      matched[p] += result.per_plan[p].MatchedDocuments();
      mappings[p] += result.per_plan[p].total_mappings;
    }
    check("ExtractMulti threads " + std::to_string(threads));
  }

  BatchOptions bo;
  bo.num_threads = 2;
  bo.min_docs_per_shard = 4;
  BatchExtractor(bo).ExtractMultiStream(
      fleet, corpus,
      [&](size_t, size_t,
          std::vector<std::vector<std::vector<Mapping>>>& per_plan) {
        for (size_t p = 0; p < per_plan.size(); ++p)
          for (const auto& ms : per_plan[p]) {
            if (!ms.empty()) ++matched[p];
            mappings[p] += ms.size();
          }
      });
  offered += corpus.size();
  check("ExtractMultiStream");
  EXPECT_NE(fleet.ToString().find("4 plans"), std::string::npos);

  // With gating off every document reaches every evaluator: the shared
  // pass rejects nothing.
  MultiQueryExtractor plain(CompileAll(generated.patterns));
  plain.set_gating_enabled(false);
  BatchExtractor(bo).ExtractMulti(plain, corpus);
  for (size_t p = 0; p < plain.num_plans(); ++p) {
    PlanStats s = plain.plan_stats(p);
    EXPECT_EQ(s.ac_gate_skipped, 0u) << p;
    EXPECT_EQ(s.documents, corpus.size()) << p;
    EXPECT_EQ(s.evaluated(), corpus.size()) << p;
  }
}

// A fleet keeps the one record of what it offers its plans: its survivors
// are counted in plan_stats(p) alone, and each plan's own stats(), which
// counts what the plan is offered when run alone, stays at zero.
TEST(MultiQueryTest, FleetSurvivorsCountOnceInTheFleetRecord) {
  workload::FleetOptions o;
  o.num_patterns = 4;
  o.documents = 300;
  o.doc_bytes = 200;
  o.match_rate = 0.05;
  workload::PatternFleet generated = workload::MakePatternFleet(o);
  Corpus corpus(std::move(generated.documents));
  MultiQueryExtractor fleet(CompileAll(generated.patterns));
  MultiBatchResult result = BatchExtractor().ExtractMulti(fleet, corpus);
  for (size_t p = 0; p < fleet.num_plans(); ++p) {
    const PlanStats in_fleet = fleet.plan_stats(p);
    EXPECT_EQ(in_fleet.documents, 300u) << p;
    EXPECT_GT(in_fleet.evaluated(), 0u) << p;  // survivors reached it
    EXPECT_EQ(in_fleet.mappings, result.per_plan[p].total_mappings) << p;
    const PlanStats alone = fleet.plan(p).stats();
    EXPECT_EQ(alone.documents, 0u) << p;
    EXPECT_EQ(alone.mappings, 0u) << p;
  }
}

// A refilled MultiBatchResult must hold exactly what a fresh extraction
// of the new corpus gives: the second corpus is shorter and its needles
// sit on other (plan, document) pairs, so every stale slot of the first
// call must be emptied, and truncated documents must not count.
TEST(MultiQueryTest, ExtractMultiIntoReuseMatchesFreshExtraction) {
  workload::FleetOptions o;
  o.num_patterns = 6;
  o.documents = 150;
  o.doc_bytes = 200;
  o.match_rate = 0.08;
  workload::PatternFleet first_gen = workload::MakePatternFleet(o);
  o.documents = 90;
  o.seed = 977;
  workload::PatternFleet second_gen = workload::MakePatternFleet(o);
  ASSERT_EQ(first_gen.patterns, second_gen.patterns);
  Corpus first(std::move(first_gen.documents));
  Corpus second(std::move(second_gen.documents));
  MultiQueryExtractor fleet(CompileAll(first_gen.patterns));

  BatchOptions ro;
  ro.num_threads = 1;
  const MultiBatchResult first_alone =
      BatchExtractor(ro).ExtractMulti(fleet, first);
  const MultiBatchResult want = BatchExtractor(ro).ExtractMulti(fleet, second);
  size_t stale = 0;  // (plan, doc) pairs matched only in the first corpus
  size_t fresh = 0;  // ... and only in the second
  for (size_t p = 0; p < fleet.num_plans(); ++p)
    for (size_t i = 0; i < second.size(); ++i) {
      const bool a = !first_alone.per_plan[p].per_doc[i].empty();
      const bool b = !want.per_plan[p].per_doc[i].empty();
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
    MultiBatchResult reused;
    extractor.ExtractMultiInto(fleet, first, &reused);
    EXPECT_EQ(reused.total_mappings, first_alone.total_mappings)
        << "threads " << threads;
    extractor.ExtractMultiInto(fleet, second, &reused);
    ASSERT_EQ(reused.per_plan.size(), want.per_plan.size());
    EXPECT_EQ(reused.total_mappings, want.total_mappings)
        << "threads " << threads;
    const MultiBatchResult fresh_result = extractor.ExtractMulti(fleet, second);
    EXPECT_EQ(reused.shards, fresh_result.shards) << "threads " << threads;
    for (size_t p = 0; p < want.per_plan.size(); ++p) {
      EXPECT_EQ(Dense(reused.per_plan[p].per_doc),
                Dense(want.per_plan[p].per_doc))
          << "plan " << p << " threads " << threads;
      EXPECT_EQ(reused.per_plan[p].total_mappings,
                want.per_plan[p].total_mappings)
          << "plan " << p << " threads " << threads;
      EXPECT_EQ(reused.per_plan[p].shards, fresh_result.per_plan[p].shards)
          << "plan " << p << " threads " << threads;
    }
  }
}

TEST(MultiQueryTest, FromCacheGathersResidentPlansDeterministically) {
  PlanCache cache;
  cache.GetOrCompile(".*bbb(x{a*}).*").ValueOrDie();
  cache.GetOrCompile(".*aaa(x{a*}).*").ValueOrDie();
  std::vector<std::pair<std::string,
                        std::shared_ptr<const ExtractionPlan>>>
      resident = cache.ResidentPlans();
  ASSERT_EQ(resident.size(), 2u);
  EXPECT_EQ(resident[0].first, ".*aaa(x{a*}).*");  // key-sorted
  EXPECT_EQ(resident[1].first, ".*bbb(x{a*}).*");

  MultiQueryExtractor fleet = MultiQueryExtractor::FromCache(cache);
  ASSERT_EQ(fleet.num_plans(), 2u);
  EXPECT_EQ(fleet.plan(0).pattern(), ".*aaa(x{a*}).*");

  Corpus corpus = Corpus::FromDelimited("aaa\nbbbaa\nzzz");
  MultiBatchResult result = BatchExtractor().ExtractMulti(fleet, corpus);
  EXPECT_EQ(result.per_plan[0].MatchedDocuments(), 1u);  // "aaa"
  EXPECT_EQ(result.per_plan[1].MatchedDocuments(), 1u);  // "bbbaa"
}

TEST(MultiQueryTest, EmptyCorpusAndEmptyFleet) {
  MultiQueryExtractor empty_fleet(
      std::vector<std::shared_ptr<const ExtractionPlan>>{});
  BatchExtractor extractor;
  MultiBatchResult r = extractor.ExtractMulti(empty_fleet, Corpus());
  EXPECT_TRUE(r.per_plan.empty());
  EXPECT_EQ(r.total_mappings, 0u);

  auto plans = CompileAll({"x{a*}"});
  MultiQueryExtractor fleet(plans);
  r = extractor.ExtractMulti(fleet, Corpus());
  ASSERT_EQ(r.per_plan.size(), 1u);
  EXPECT_TRUE(r.per_plan[0].per_doc.empty());

  size_t calls = 0;
  BatchExtractor::StreamStats stats = extractor.ExtractMultiStream(
      fleet, Corpus(),
      [&](size_t, size_t, std::vector<std::vector<std::vector<Mapping>>>&) {
        ++calls;
      });
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(stats.total_mappings, 0u);
}

// Plans with no extractable literal (match-all prefilter) must flow
// through the fleet untouched by the AC tier.
TEST(MultiQueryTest, UngateablePlansStillExtractEverything) {
  auto plans = CompileAll({"x{a*}", ".*needle(y{[0-9]+}).*"});
  MultiQueryExtractor fleet(plans);
  EXPECT_EQ(fleet.num_gated_plans(), 1u);
  Corpus corpus = Corpus::FromDelimited("aa\nneedle7\n");
  MultiBatchResult result = BatchExtractor().ExtractMulti(fleet, corpus);
  EXPECT_EQ(result.per_plan[0].MatchedDocuments(), 1u);  // "aa" only
  EXPECT_EQ(result.per_plan[1].MatchedDocuments(), 1u);
  PlanStats s0 = fleet.plan_stats(0);
  EXPECT_EQ(s0.ac_gate_skipped, 0u);  // no clauses: AC cannot reject it
}

}  // namespace
}  // namespace engine
}  // namespace spanners
