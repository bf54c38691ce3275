// Tests for results sized by hits: through every materializing entry point
// (Extract, ExtractInto, ExtractMulti, ExtractMultiInto, ExtractIndexed,
// ExtractIndexedMulti) at threads {1, 2, 8}, per_doc[i] equals the paper's
// reference semantics (rgx/reference_eval, sorted by Mapping::operator<)
// for every document i; hits() is ascending and counts the matched
// documents; both streams (ExtractStream, ExtractMultiStream) hand every
// position of every shard's reused slice the same set, in corpus order; a
// reused result or extractor keeps no stale hit; and rows whose mappings
// leave variables unassigned (⊥ cells) keep Mapping::operator< order.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dense_result.h"
#include "engine/engine.h"
#include "rgx/parser.h"
#include "rgx/reference_eval.h"
#include "storage/ngram_index.h"
#include "storage/segment.h"

namespace spanners {
namespace engine {
namespace {

// Three plans with different hit sets, so the fleet's hit lists interleave.
// Plan 0 has no required literal (its ε branch matches the empty document
// with the empty mapping ∅), and its mappings assign x or y and maybe z:
// the paper's partial mappings, printed with ⊥ cells. Plans 1 and 2
// require "Qty" and "Key", so the fleet's shared pass gates them and the
// trigram index narrows them alone.
const std::vector<std::string>& Patterns() {
  static const std::vector<std::string> patterns = {
      "(.*Key((x{[0-9]+})|(y{[a-z]+}))((z{[0-9]})|\\e).*)|\\e",
      ".*Qty(w{[0-9]}).*",
      ".*Key(x{[0-9]+}).*",
  };
  return patterns;
}

// Document i of a corpus: a short filler, a Key run on the documents in
// `k_hits` (digits on even i, letters then a digit on odd i) and a Qty on
// those in `q_hits`; the documents in `empty` are "".
Corpus MakeCorpus(size_t n, const std::set<size_t>& k_hits,
                  const std::set<size_t>& q_hits,
                  const std::set<size_t>& empty = {}) {
  Corpus corpus;
  for (size_t i = 0; i < n; ++i) {
    std::string text;
    if (empty.count(i) == 0) {
      text = "n" + std::to_string(i);
      if (k_hits.count(i) > 0) text += i % 2 == 0 ? " Key75" : " Keyab5";
      if (q_hits.count(i) > 0) text += " Qty" + std::to_string(i % 10);
    }
    corpus.Add(Document(text));
  }
  return corpus;
}

// Hits on both sides of every 64-document boundary below n, and on the
// last document.
std::set<size_t> BoundaryHits(size_t n, std::set<size_t> at) {
  if (n > 0) at.insert(n - 1);
  std::set<size_t> in;
  for (size_t i : at)
    if (i < n) in.insert(i);
  return in;
}

// ref[p][i]: reference_eval's ⟦γ_p⟧ on document i, sorted.
using Dense3 = std::vector<std::vector<std::vector<Mapping>>>;
Dense3 Reference(const Corpus& corpus) {
  Dense3 ref;
  for (const std::string& pattern : Patterns()) {
    const RgxPtr rgx = ParseRgx(pattern).ValueOrDie();
    std::vector<std::vector<Mapping>> per_doc;
    for (size_t i = 0; i < corpus.size(); ++i)
      per_doc.push_back(ReferenceEval(rgx, corpus[i]).Sorted());
    ref.push_back(std::move(per_doc));
  }
  return ref;
}

// Checks one result against the reference of its output: every index,
// the hits, and the counts.
void ExpectMatches(const BatchResult& got,
                   const std::vector<std::vector<Mapping>>& want,
                   const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(got.per_doc.size(), want.size());
  size_t matched = 0;
  uint64_t mappings = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.per_doc[i], want[i]) << "document " << i;
    matched += !want[i].empty();
    mappings += want[i].size();
  }
  const std::vector<HitList::Hit>& hits = got.per_doc.hits();
  for (size_t h = 0; h < hits.size(); ++h) {
    if (h > 0) {
      EXPECT_LT(hits[h - 1].doc, hits[h].doc) << "hit " << h;
    }
    EXPECT_FALSE(hits[h].mappings.empty()) << "hit " << h;
    EXPECT_EQ(&got.per_doc[hits[h].doc], &hits[h].mappings) << "hit " << h;
  }
  EXPECT_EQ(hits.size(), matched);
  EXPECT_EQ(got.MatchedDocuments(), matched);
  EXPECT_EQ(got.total_mappings, mappings);
}

void ExpectMultiMatches(const MultiBatchResult& got, const Dense3& want,
                        const std::string& where) {
  ASSERT_EQ(got.per_plan.size(), want.size()) << where;
  uint64_t total = 0;
  std::vector<size_t> any;
  for (size_t p = 0; p < want.size(); ++p) {
    ExpectMatches(got.per_plan[p], want[p],
                  where + ", plan " + std::to_string(p));
    total += got.per_plan[p].total_mappings;
  }
  for (size_t i = 0; i < (want.empty() ? 0 : want[0].size()); ++i) {
    bool hit = false;
    for (const auto& plan : want) hit = hit || !plan[i].empty();
    if (hit) any.push_back(i);
  }
  EXPECT_EQ(got.HitDocuments(), any) << where;
  EXPECT_EQ(got.total_mappings, total) << where;
}

// Mappings and matched documents of one output's reference.
std::pair<uint64_t, size_t> Totals(
    const std::vector<std::vector<Mapping>>& want) {
  uint64_t mappings = 0;
  size_t matched = 0;
  for (const std::vector<Mapping>& ms : want) {
    mappings += ms.size();
    matched += !ms.empty();
  }
  return {mappings, matched};
}

// Runs ExtractStream under every plan and ExtractMultiStream over `corpus`
// and checks that the consumer calls cover the corpus in corpus order,
// that every slice position equals the reference, and the StreamStats
// totals. The consumers read each slice in place and never move from it,
// so an entry left over from an earlier shard of the same slice shows.
void ExpectStreamsMatch(
    BatchExtractor& batch,
    const std::vector<std::shared_ptr<const ExtractionPlan>>& plans,
    const MultiQueryExtractor& fleet, const Corpus& corpus,
    const Dense3& want, const std::string& where) {
  for (size_t p = 0; p < plans.size(); ++p) {
    SCOPED_TRACE(where + "ExtractStream, plan " + std::to_string(p));
    size_t next = 0;
    size_t calls = 0;
    const BatchExtractor::StreamStats stats = batch.ExtractStream(
        *plans[p], corpus,
        [&](size_t begin, size_t end,
            std::vector<std::vector<Mapping>>& per_doc) {
          ++calls;
          EXPECT_EQ(begin, next) << "shards out of order";
          EXPECT_LT(begin, end);
          next = end;
          ASSERT_EQ(per_doc.size(), end - begin);
          for (size_t i = begin; i < end; ++i)
            EXPECT_EQ(per_doc[i - begin], want[p][i]) << "document " << i;
        });
    const auto [mappings, matched] = Totals(want[p]);
    EXPECT_EQ(next, corpus.size());
    EXPECT_EQ(stats.shards, calls);
    EXPECT_EQ(stats.total_mappings, mappings);
    EXPECT_EQ(stats.matched_documents, matched);
  }

  SCOPED_TRACE(where + "ExtractMultiStream");
  size_t next = 0;
  size_t calls = 0;
  const BatchExtractor::StreamStats stats = batch.ExtractMultiStream(
      fleet, corpus,
      [&](size_t begin, size_t end,
          std::vector<std::vector<std::vector<Mapping>>>& per_plan) {
        ++calls;
        EXPECT_EQ(begin, next) << "shards out of order";
        EXPECT_LT(begin, end);
        next = end;
        ASSERT_EQ(per_plan.size(), want.size());
        for (size_t p = 0; p < want.size(); ++p) {
          ASSERT_EQ(per_plan[p].size(), end - begin) << "plan " << p;
          for (size_t i = begin; i < end; ++i)
            EXPECT_EQ(per_plan[p][i - begin], want[p][i])
                << "plan " << p << ", document " << i;
        }
      });
  EXPECT_EQ(next, corpus.size());
  EXPECT_EQ(stats.shards, calls);
  uint64_t mappings = 0;
  size_t matched = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    bool hit = false;
    for (const auto& plan : want) {
      mappings += plan[i].size();
      hit = hit || !plan[i].empty();
    }
    matched += hit;
  }
  EXPECT_EQ(stats.total_mappings, mappings);
  EXPECT_EQ(stats.matched_documents, matched);
}

std::vector<std::shared_ptr<const ExtractionPlan>> CompilePlans() {
  std::vector<std::shared_ptr<const ExtractionPlan>> plans;
  for (const std::string& pattern : Patterns())
    plans.push_back(std::make_shared<const ExtractionPlan>(
        ExtractionPlan::Compile(pattern).ValueOrDie()));
  return plans;
}

// A corpus written as a segment with its trigram index, reopened through
// the validating path.
class Persisted {
 public:
  Persisted(const Corpus& corpus, const std::string& tag)
      : path_(testing::TempDir() + "spanners_hit_list_" + tag + "_" +
              std::to_string(::getpid()) + ".seg") {
    EXPECT_TRUE(storage::SegmentStore::Write(corpus, path_).ok());
    store_.emplace(storage::SegmentStore::Open(path_).ValueOrDie());
    const std::string index_path = storage::IndexPathFor(path_);
    EXPECT_TRUE(storage::NgramIndex::Build(*store_).Save(index_path).ok());
    index_.emplace(
        storage::NgramIndex::Open(index_path, store_->num_docs()).ValueOrDie());
  }
  ~Persisted() {
    std::remove(path_.c_str());
    std::remove(storage::IndexPathFor(path_).c_str());
  }
  const storage::SegmentStore& store() const { return *store_; }
  const storage::NgramIndex* index() const { return &*index_; }

 private:
  std::string path_;
  std::optional<storage::SegmentStore> store_;
  std::optional<storage::NgramIndex> index_;
};

// Runs all six materializing entry points and both streams over `corpus`
// at threads {1, 2, 8} and checks each against the reference.
void CheckEveryEntryPoint(const Corpus& corpus, const std::string& tag) {
  const Dense3 want = Reference(corpus);
  const auto plans = CompilePlans();
  const MultiQueryExtractor fleet(plans);
  const Persisted persisted(corpus, tag);
  for (size_t threads : {1u, 2u, 8u}) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;  // shard edges off the 64-document blocks
    BatchExtractor batch(bo);
    const std::string where =
        tag + ", threads " + std::to_string(threads) + ", ";
    BatchResult reused;
    MultiBatchResult reused_multi;
    for (size_t p = 0; p < plans.size(); ++p) {
      const std::string plan = ", plan " + std::to_string(p);
      ExpectMatches(batch.Extract(*plans[p], corpus), want[p],
                    where + "Extract" + plan);
      batch.ExtractInto(*plans[p], corpus, &reused);
      ExpectMatches(reused, want[p], where + "ExtractInto" + plan);
      IndexedStats stats;
      ExpectMatches(batch.ExtractIndexed(*plans[p], persisted.store(),
                                         persisted.index(), &stats),
                    want[p], where + "ExtractIndexed" + plan);
      EXPECT_EQ(stats.narrowed, p > 0) << where << plan;
    }
    ExpectMultiMatches(batch.ExtractMulti(fleet, corpus), want,
                       where + "ExtractMulti");
    batch.ExtractMultiInto(fleet, corpus, &reused_multi);
    ExpectMultiMatches(reused_multi, want, where + "ExtractMultiInto");
    ExpectMultiMatches(batch.ExtractIndexedMulti(fleet, persisted.store(),
                                                 persisted.index()),
                       want, where + "ExtractIndexedMulti");
    ExpectStreamsMatch(batch, plans, fleet, corpus, want, where);
  }
}

TEST(HitListTest, EveryEntryPointAroundTheBlockBoundaries) {
  const std::set<size_t> k_at = {0, 62, 63, 64, 65, 127, 128};
  const std::set<size_t> q_at = {1, 63, 64, 128};
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 129u}) {
    const Corpus corpus = MakeCorpus(n, BoundaryHits(n, k_at),
                                     BoundaryHits(n, q_at));
    CheckEveryEntryPoint(corpus, "n" + std::to_string(n));
  }
}

TEST(HitListTest, EveryEntryPointOnAnAllHitCorpus) {
  std::set<size_t> all;
  for (size_t i = 0; i < 129; ++i) all.insert(i);
  const Corpus corpus = MakeCorpus(129, all, all);
  const Dense3 want = Reference(corpus);
  for (size_t i = 0; i < corpus.size(); ++i)
    ASSERT_FALSE(want[1][i].empty()) << "document " << i;  // not vacuous
  CheckEveryEntryPoint(corpus, "all");
}

// The empty document's only mapping is ∅: it is a hit of plan 0, one row
// long, and the plans that need a literal have no hit there.
TEST(HitListTest, EmptyDocumentWhoseOnlyMappingIsTheEmptyMapping) {
  const Corpus corpus = MakeCorpus(70, {2, 66}, {66}, {5, 64});
  const Dense3 want = Reference(corpus);
  ASSERT_EQ(want[0][5], std::vector<Mapping>{Mapping()});
  ASSERT_EQ(want[0][64], std::vector<Mapping>{Mapping()});
  ASSERT_TRUE(want[1][5].empty());
  CheckEveryEntryPoint(corpus, "empty");
}

// One result refilled over a longer corpus, then a shorter one whose hits
// sit on other documents, then the longer one again: every call reads
// exactly its own corpus, with no stale hit, size or index — and so does
// every stream through the same extractor.
TEST(HitListTest, ReusedResultKeepsNoStaleHit) {
  const Corpus longer = MakeCorpus(129, {0, 63, 64, 100, 128}, {1, 70, 127});
  const Corpus shorter = MakeCorpus(65, {2, 62, 65}, {3, 64}, {10});
  const Corpus none = MakeCorpus(40, {}, {});
  const auto plans = CompilePlans();
  const MultiQueryExtractor fleet(plans);
  for (size_t threads : {1u, 2u, 8u}) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;
    BatchExtractor batch(bo);
    BatchResult reused;
    MultiBatchResult reused_multi;
    for (const Corpus* corpus : {&longer, &shorter, &none, &longer}) {
      const Dense3 want = Reference(*corpus);
      const std::string where = "threads " + std::to_string(threads) +
                                ", " + std::to_string(corpus->size()) +
                                " documents";
      batch.ExtractInto(*plans[0], *corpus, &reused);
      ExpectMatches(reused, want[0], where + ", ExtractInto");
      batch.ExtractMultiInto(fleet, *corpus, &reused_multi);
      ExpectMultiMatches(reused_multi, want, where + ", ExtractMultiInto");
      ExpectStreamsMatch(batch, plans, fleet, *corpus, want, where + ", ");
    }
  }
}

// Row order with ⊥ cells: on documents that leave variables unassigned,
// each document's rows are reference_eval's set in Mapping::operator<
// order — an unassigned variable's row sorts before the same prefix with
// it assigned — through the streams too.
TEST(HitListTest, RowsWithUnassignedVariablesKeepMappingOrder) {
  const Corpus corpus = MakeCorpus(80, {0, 1, 40, 63, 64, 79}, {});
  const Dense3 want = Reference(corpus);
  // Not vacuous: document 0 ("n0 Key75") has {x:7} < {x:7, z:5} < {x:75},
  // and document 1 ("n1 Keyab5") {y:a} < {y:ab} < {y:ab, z:5}.
  ASSERT_EQ(want[0][0].size(), 3u);
  EXPECT_EQ(want[0][0][0].size(), 1u);
  EXPECT_EQ(want[0][0][1].size(), 2u);
  EXPECT_EQ(want[0][0][2].size(), 1u);
  ASSERT_EQ(want[0][1].size(), 3u);
  EXPECT_EQ(want[0][1][2].size(), 2u);

  const auto plans = CompilePlans();
  const MultiQueryExtractor fleet(plans);
  for (size_t threads : {1u, 2u, 8u}) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;
    BatchExtractor batch(bo);
    const std::string where = "threads " + std::to_string(threads);
    std::vector<std::vector<Mapping>> streamed;
    batch.ExtractStream(
        *plans[0], corpus,
        [&](size_t, size_t, std::vector<std::vector<Mapping>>& per_doc) {
          for (auto& ms : per_doc) streamed.push_back(std::move(ms));
        });
    EXPECT_EQ(streamed, want[0]) << where << ", ExtractStream";
    Dense3 multi(plans.size());
    batch.ExtractMultiStream(
        fleet, corpus,
        [&](size_t, size_t,
            std::vector<std::vector<std::vector<Mapping>>>& per_plan) {
          for (size_t p = 0; p < per_plan.size(); ++p)
            for (auto& ms : per_plan[p]) multi[p].push_back(std::move(ms));
        });
    EXPECT_EQ(multi, want) << where << ", ExtractMultiStream";
  }
  CheckEveryEntryPoint(corpus, "unassigned");
}

}  // namespace
}  // namespace engine
}  // namespace spanners
