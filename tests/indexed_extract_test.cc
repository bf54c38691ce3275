// Tests for index-gated batch extraction over a persisted segment: the
// acceptance invariant is byte-identity — ExtractIndexed restricted to
// posting-list candidates produces exactly the full scan's output, across
// thread counts {1, 2, 8}, for single plans and fleets, with or without
// an index, whether or not the index can narrow the plan.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dense_result.h"
#include "engine/engine.h"
#include "storage/ngram_index.h"
#include "storage/segment.h"
#include "workload/generators.h"

namespace spanners {
namespace engine {
namespace {

std::string TempSegPath(const std::string& tag) {
  return testing::TempDir() + "spanners_indexed_test_" + tag + "_" +
         std::to_string(::getpid()) + ".seg";
}

// Persists `corpus`, builds + saves + reopens the index through the
// validating path (what production readers run), and hands both back.
// Optional members because SegmentStore/NgramIndex are only constructible
// through their validating factories.
struct PersistedCorpus {
  std::string path;
  std::optional<storage::SegmentStore> store;
  std::optional<storage::NgramIndex> index;

  ~PersistedCorpus() {
    std::remove(path.c_str());
    std::remove(storage::IndexPathFor(path).c_str());
  }
};

std::unique_ptr<PersistedCorpus> Persist(const Corpus& corpus,
                                         const std::string& tag) {
  auto out = std::make_unique<PersistedCorpus>();
  out->path = TempSegPath(tag);
  EXPECT_TRUE(storage::SegmentStore::Write(corpus, out->path).ok());
  Result<storage::SegmentStore> store = storage::SegmentStore::Open(out->path);
  EXPECT_TRUE(store.ok());
  out->store = std::move(store).value();
  storage::NgramIndex built = storage::NgramIndex::Build(*out->store);
  const std::string idx_path = storage::IndexPathFor(out->path);
  EXPECT_TRUE(built.Save(idx_path).ok());
  Result<storage::NgramIndex> opened =
      storage::NgramIndex::Open(idx_path, out->store->num_docs());
  EXPECT_TRUE(opened.ok());
  out->index = std::move(opened).value();
  return out;
}

TEST(IndexedExtractTest, ByteIdenticalToFullScanAcrossThreads) {
  workload::NeedleOptions o;
  o.documents = 500;
  Corpus corpus(workload::NeedleCorpus(o));
  auto persisted = Persist(corpus, "identity");
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::NeedleRgx()));

  BatchOptions ro;
  ro.num_threads = 1;
  BatchResult want = BatchExtractor(ro).Extract(plan, corpus);
  ASSERT_GT(want.total_mappings, 0u);  // the comparison must not be vacuous

  for (size_t threads : {1u, 2u, 8u}) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;
    BatchExtractor extractor(bo);
    IndexedStats stats;
    BatchResult got = extractor.ExtractIndexed(plan, *persisted->store,
                                               &*persisted->index, &stats);
    EXPECT_EQ(Dense(got.per_doc), Dense(want.per_doc)) << "threads " << threads;
    EXPECT_EQ(got.total_mappings, want.total_mappings);
    EXPECT_TRUE(stats.narrowed);
    EXPECT_LT(stats.candidate_docs, stats.corpus_docs);
    EXPECT_EQ(stats.corpus_docs, corpus.size());
    EXPECT_GT(stats.postings_touched, 0u);
    EXPECT_LT(stats.CandidateRatio(), 1.0);
  }
}

TEST(IndexedExtractTest, NullIndexFullScanOverStoreIsIdentical) {
  workload::CorpusOptions o;
  o.documents = 150;
  Corpus corpus(workload::ServerLogCorpus(o));
  auto persisted = Persist(corpus, "nullindex");
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::LogLineRgx()));

  BatchResult want = BatchExtractor().Extract(plan, corpus);
  for (size_t threads : {1u, 2u}) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;
    IndexedStats stats;
    BatchResult got = BatchExtractor(bo).ExtractIndexed(
        plan, *persisted->store, /*index=*/nullptr, &stats);
    EXPECT_EQ(Dense(got.per_doc), Dense(want.per_doc)) << "threads " << threads;
    EXPECT_FALSE(stats.narrowed);
    EXPECT_EQ(stats.candidate_docs, corpus.size());
  }
}

// A plan the index cannot narrow (no literal ≥ 3 bytes → match-all
// candidate set) must fall back to scanning every stored document and
// still be identical.
TEST(IndexedExtractTest, UnnarrowablePlanScansEverythingIdentically) {
  Corpus corpus = Corpus::FromDelimited("aa\nab\nba\n\nabab");
  auto persisted = Persist(corpus, "unnarrowable");
  ExtractionPlan plan = ExtractionPlan::Compile("x{a*}.*").ValueOrDie();
  ASSERT_TRUE(plan.prefilter()
                  .IndexableClauses(storage::NgramIndex::kN)
                  .empty());

  BatchResult want = BatchExtractor().Extract(plan, corpus);
  IndexedStats stats;
  BatchResult got = BatchExtractor().ExtractIndexed(
      plan, *persisted->store, &*persisted->index, &stats);
  EXPECT_EQ(Dense(got.per_doc), Dense(want.per_doc));
  EXPECT_FALSE(stats.narrowed);
  EXPECT_EQ(stats.candidate_docs, corpus.size());
}

TEST(IndexedExtractTest, FleetByteIdenticalToInMemoryAcrossThreads) {
  workload::FleetOptions o;
  o.num_patterns = 10;
  o.documents = 200;
  o.doc_bytes = 300;
  o.match_rate = 0.05;
  workload::PatternFleet generated = workload::MakePatternFleet(o);
  Corpus corpus(std::move(generated.documents));
  auto persisted = Persist(corpus, "fleet");

  std::vector<std::shared_ptr<const ExtractionPlan>> plans;
  for (const std::string& p : generated.patterns)
    plans.push_back(std::make_shared<const ExtractionPlan>(
        ExtractionPlan::Compile(p).ValueOrDie()));
  MultiQueryExtractor fleet(plans);

  BatchOptions ro;
  ro.num_threads = 1;
  MultiBatchResult want = BatchExtractor(ro).ExtractMulti(fleet, corpus);

  for (size_t threads : {1u, 2u, 8u}) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;
    IndexedStats stats;
    MultiBatchResult got = BatchExtractor(bo).ExtractIndexedMulti(
        fleet, *persisted->store, &*persisted->index, &stats);
    ASSERT_EQ(got.per_plan.size(), want.per_plan.size());
    for (size_t p = 0; p < want.per_plan.size(); ++p)
      EXPECT_EQ(Dense(got.per_plan[p].per_doc),
                Dense(want.per_plan[p].per_doc))
          << "plan " << p << " threads " << threads;
    EXPECT_EQ(got.total_mappings, want.total_mappings);
    // The union of 10 plans' candidates still narrows a 5%-match corpus.
    EXPECT_TRUE(stats.narrowed);
    EXPECT_LT(stats.candidate_docs, stats.corpus_docs);
  }
}

TEST(IndexedExtractTest, EmptyFleetAndEmptyCorpus) {
  Corpus corpus = Corpus::FromDelimited("one\ntwo");
  auto persisted = Persist(corpus, "edge");
  MultiQueryExtractor empty_fleet(
      std::vector<std::shared_ptr<const ExtractionPlan>>{});
  MultiBatchResult r = BatchExtractor().ExtractIndexedMulti(
      empty_fleet, *persisted->store, &*persisted->index);
  EXPECT_TRUE(r.per_plan.empty());
  EXPECT_EQ(r.total_mappings, 0u);

  Corpus empty;
  auto persisted_empty = Persist(empty, "edge_empty");
  ExtractionPlan plan = ExtractionPlan::Compile(".*abc(x{d*}).*").ValueOrDie();
  BatchResult br = BatchExtractor().ExtractIndexed(
      plan, *persisted_empty->store, &*persisted_empty->index);
  EXPECT_TRUE(br.per_doc.empty());
  EXPECT_EQ(br.total_mappings, 0u);
}

// Extraction results hold spans plus documents materialized (copied) out
// of the mapping: nothing may dangle once the store and index are gone.
TEST(IndexedExtractTest, ResultsRemainValidAfterStoreAndIndexClose) {
  workload::NeedleOptions o;
  o.documents = 300;
  Corpus corpus(workload::NeedleCorpus(o));
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::NeedleRgx()));
  BatchResult want = BatchExtractor().Extract(plan, corpus);

  BatchResult got;
  std::vector<std::pair<size_t, Document>> matched_docs;
  {
    auto persisted = Persist(corpus, "lifetime");
    got = BatchExtractor().ExtractIndexed(plan, *persisted->store,
                                          &*persisted->index);
    for (size_t i = 0; i < got.per_doc.size(); ++i)
      if (!got.per_doc[i].empty())
        matched_docs.emplace_back(i, persisted->store->MaterializeDoc(i));
  }  // store unmapped, index destroyed, files deleted

  EXPECT_EQ(Dense(got.per_doc), Dense(want.per_doc));
  ASSERT_FALSE(matched_docs.empty());
  for (const auto& [doc_id, doc] : matched_docs) {
    EXPECT_EQ(doc.text(), corpus[doc_id].text());
    // The recorded spans still address real content in the copied bytes.
    for (const Mapping& m : got.per_doc[doc_id])
      for (const Mapping::Entry& e : m.entries())
        EXPECT_TRUE(doc.IsValidSpan(e.span)) << e.var;
  }
}

}  // namespace
}  // namespace engine
}  // namespace spanners
