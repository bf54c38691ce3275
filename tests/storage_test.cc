// Tests for the persistent corpus storage layer: segment round-trips
// (including empty documents, binary bytes and documents larger than a
// page), the trigram posting index against naive substring-scan ground
// truth, result lifetime after the store closes, and a seeded fuzz sweep
// asserting that EVERY truncation or bit flip of a segment or index file
// is rejected with a clean Status — never accepted, never UB.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "engine/corpus.h"
#include "engine/plan.h"
#include "engine/prefilter.h"
#include "engine/thread_pool.h"
#include "storage/ngram_index.h"
#include "storage/segment.h"
#include "workload/generators.h"

namespace spanners {
namespace storage {
namespace {

using engine::Corpus;

std::string TempPath(const std::string& tag) {
  return testing::TempDir() + "spanners_storage_test_" + tag + "_" +
         std::to_string(::getpid()) + ".seg";
}

// A corpus exercising the layout's edge cases: empty documents, interior
// NUL and newline bytes, every byte value, and one document bigger than
// the 4 KiB page size.
Corpus EdgeCaseCorpus() {
  std::vector<Document> docs;
  docs.emplace_back(std::string(""));
  docs.emplace_back(std::string("plain text"));
  docs.emplace_back(std::string("nul\0inside", 10));
  docs.emplace_back(std::string("line1\nline2\n"));
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) all_bytes.push_back(static_cast<char>(b));
  docs.emplace_back(std::move(all_bytes));
  docs.emplace_back(std::string(""));  // empty between non-empty
  docs.emplace_back(std::string(10000, 'x') + "needle" +
                    std::string(3000, 'y'));  // > page_size
  return Corpus(std::move(docs));
}

TEST(SegmentStoreTest, RoundTripPreservesEveryDocumentByte) {
  Corpus corpus = EdgeCaseCorpus();
  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(SegmentStore::Write(corpus, path).ok());

  Result<SegmentStore> opened = SegmentStore::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const SegmentStore& store = opened.value();
  ASSERT_EQ(store.num_docs(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(store.doc_view(i), corpus[i].text()) << "doc " << i;
    EXPECT_EQ(store.doc_bytes(i), corpus[i].text().size()) << "doc " << i;
    EXPECT_EQ(store.MaterializeDoc(i).text(), corpus[i].text()) << "doc " << i;
  }
  Corpus all = store.ReadAll();
  ASSERT_EQ(all.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i)
    EXPECT_EQ(all[i].text(), corpus[i].text()) << "doc " << i;
  EXPECT_NE(store.ToString().find("docs"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SegmentStoreTest, EmptyCorpusRoundTrips) {
  const std::string path = TempPath("empty");
  ASSERT_TRUE(SegmentStore::Write(Corpus(), path).ok());
  Result<SegmentStore> opened = SegmentStore::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().num_docs(), 0u);
  EXPECT_EQ(opened.value().ReadAll().size(), 0u);
  std::remove(path.c_str());
}

// Byte-identical files: a pool parallelizes the segment's page checksums
// and the trigram index's per-shard extraction (4 shards per thread),
// nothing else.
TEST(SegmentStoreTest, ParallelWriteMatchesInlineWrite) {
  workload::CorpusOptions o;
  o.documents = 300;
  Corpus corpus(workload::ServerLogCorpus(o));
  auto read = [](const std::string& path) {
    Result<MappedFile> f = MappedFile::Open(path);
    EXPECT_TRUE(f.ok()) << path;
    return f.ok() ? std::string(f.value().view()) : std::string();
  };
  const std::string inline_path = TempPath("inline");
  ASSERT_TRUE(SegmentStore::Write(corpus, inline_path).ok());
  const std::string want_segment = read(inline_path);
  Result<SegmentStore> store = SegmentStore::Open(inline_path);
  ASSERT_TRUE(store.ok());
  const std::string idx_path = TempPath("index");
  auto index_bytes = [&](engine::ThreadPool* pool) {
    EXPECT_TRUE(NgramIndex::Build(store.value(), pool).Save(idx_path).ok());
    return read(idx_path);
  };
  const std::string want_index = index_bytes(nullptr);
  EXPECT_FALSE(want_index.empty());

  const std::string pooled_path = TempPath("pooled");
  for (size_t threads : {1, 2, 4}) {
    engine::ThreadPool pool(threads);
    SegmentWriteOptions wo;
    wo.pool = &pool;
    ASSERT_TRUE(SegmentStore::Write(corpus, pooled_path, wo).ok());
    EXPECT_TRUE(read(pooled_path) == want_segment) << threads << " threads";
    EXPECT_TRUE(index_bytes(&pool) == want_index) << threads << " threads";
  }
  std::remove(inline_path.c_str());
  std::remove(pooled_path.c_str());
  std::remove(idx_path.c_str());
}

TEST(SegmentStoreTest, OpenRejectsMissingFile) {
  EXPECT_FALSE(SegmentStore::Open(TempPath("nonexistent")).ok());
}

// Documents materialized from the store copy their bytes: results built
// from them must survive the store (and its mmap) being destroyed.
TEST(SegmentStoreTest, MaterializedDocumentsOutliveTheStore) {
  Corpus corpus = EdgeCaseCorpus();
  const std::string path = TempPath("lifetime");
  ASSERT_TRUE(SegmentStore::Write(corpus, path).ok());

  std::vector<Document> materialized;
  {
    Result<SegmentStore> opened = SegmentStore::Open(path);
    ASSERT_TRUE(opened.ok());
    for (size_t i = 0; i < opened.value().num_docs(); ++i)
      materialized.push_back(opened.value().MaterializeDoc(i));
  }  // store destroyed, mapping gone
  std::remove(path.c_str());
  ASSERT_EQ(materialized.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i)
    EXPECT_EQ(materialized[i].text(), corpus[i].text()) << "doc " << i;
}

// ---- n-gram index --------------------------------------------------------

// Ground truth: documents containing `literal` by naive substring scan.
std::vector<uint32_t> NaiveDocsContaining(const Corpus& corpus,
                                          const std::string& literal) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < corpus.size(); ++i)
    if (corpus[i].text().find(literal) != std::string::npos)
      out.push_back(static_cast<uint32_t>(i));
  return out;
}

// candidates(literal) must be a superset of the exact answer (soundness),
// and sorted/deduplicated.
void ExpectSoundSuperset(const std::vector<uint32_t>& candidates,
                         const std::vector<uint32_t>& exact,
                         const std::string& literal) {
  ASSERT_TRUE(std::is_sorted(candidates.begin(), candidates.end())) << literal;
  for (uint32_t doc : exact)
    EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(), doc))
        << "doc " << doc << " contains '" << literal
        << "' but is not a candidate";
}

TEST(NgramIndexTest, LiteralCandidatesAreSoundAndUsuallyExact) {
  workload::CorpusOptions o;
  o.documents = 200;
  Corpus corpus(workload::ServerLogCorpus(o));
  const std::string path = TempPath("idx_sound");
  ASSERT_TRUE(SegmentStore::Write(corpus, path).ok());
  Result<SegmentStore> store = SegmentStore::Open(path);
  ASSERT_TRUE(store.ok());
  NgramIndex index = NgramIndex::Build(store.value());
  EXPECT_EQ(index.num_docs(), corpus.size());
  EXPECT_GT(index.num_terms(), 0u);

  for (const std::string literal :
       {"GET", "POST", "err=", "definitely-not-present", " 200", "GET /"}) {
    LookupStats stats;
    std::vector<uint32_t> candidates =
        index.LiteralCandidates(literal, &stats);
    ExpectSoundSuperset(candidates, NaiveDocsContaining(corpus, literal),
                        literal);
    EXPECT_GT(stats.terms_probed, 0u) << literal;
  }
  // A literal with an absent trigram is provably nowhere.
  LookupStats stats;
  EXPECT_TRUE(index.LiteralCandidates("\x01\x02\x03zzz", &stats).empty());
  std::remove(path.c_str());
}

TEST(NgramIndexTest, SaveOpenRoundTripAnswersIdentically) {
  workload::CorpusOptions o;
  o.documents = 120;
  Corpus corpus(workload::ServerLogCorpus(o));
  const std::string path = TempPath("idx_rt");
  ASSERT_TRUE(SegmentStore::Write(corpus, path).ok());
  Result<SegmentStore> store = SegmentStore::Open(path);
  ASSERT_TRUE(store.ok());

  NgramIndex built = NgramIndex::Build(store.value());
  const std::string idx_path = IndexPathFor(path);
  ASSERT_TRUE(built.Save(idx_path).ok());
  Result<NgramIndex> opened = NgramIndex::Open(idx_path, corpus.size());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().num_terms(), built.num_terms());
  EXPECT_EQ(opened.value().num_docs(), built.num_docs());

  for (const std::string literal : {"GET", "err=", "absent-literal"}) {
    LookupStats s1, s2;
    EXPECT_EQ(built.LiteralCandidates(literal, &s1),
              opened.value().LiteralCandidates(literal, &s2))
        << literal;
  }
  EXPECT_EQ(built.DocFreq("GET"), opened.value().DocFreq("GET"));

  // An index for a different corpus must be refused up front.
  EXPECT_FALSE(NgramIndex::Open(idx_path, corpus.size() + 1).ok());
  std::remove(path.c_str());
  std::remove(idx_path.c_str());
}

TEST(NgramIndexTest, PrefilterCandidatesNarrowAndStaySound) {
  workload::NeedleOptions o;
  o.documents = 400;
  Corpus corpus(workload::NeedleCorpus(o));
  const std::string path = TempPath("idx_pref");
  ASSERT_TRUE(SegmentStore::Write(corpus, path).ok());
  Result<SegmentStore> store = SegmentStore::Open(path);
  ASSERT_TRUE(store.ok());
  NgramIndex index = NgramIndex::Build(store.value());

  engine::ExtractionPlan plan =
      engine::ExtractionPlan::FromSpanner(
          Spanner::FromRgx(workload::NeedleRgx()));
  ASSERT_TRUE(plan.prefilter().CanPrune());
  LookupStats stats;
  CandidateSet cand = index.Candidates(plan.prefilter(), &stats);
  ASSERT_FALSE(cand.all);
  EXPECT_LT(cand.docs.size(), corpus.size());  // 1% selectivity narrows
  // Soundness: every document the prefilter cannot reject is a candidate.
  for (size_t i = 0; i < corpus.size(); ++i)
    if (plan.prefilter().Matches(corpus[i].text()))
      EXPECT_TRUE(std::binary_search(cand.docs.begin(), cand.docs.end(),
                                     static_cast<uint32_t>(i)))
          << "doc " << i;

  // A match-all prefilter cannot narrow: all = true.
  CandidateSet all = index.Candidates(engine::Prefilter(), &stats);
  EXPECT_TRUE(all.all);
  EXPECT_EQ(all.CountIn(corpus.size()), corpus.size());
  std::remove(path.c_str());
}

// ---- corruption fuzzing --------------------------------------------------

std::string ReadFileBytes(const std::string& path) {
  Result<MappedFile> f = MappedFile::Open(path);
  EXPECT_TRUE(f.ok());
  return std::string(f.value().view());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty())
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

// 200+ seeded rounds of truncation and bit flips at random offsets over
// both file formats. The invariant is absolute: every corrupted load
// returns a failed Status (corruption detected), and none crashes or
// reads out of bounds — the ASan CI job runs this same test.
TEST(StorageCorruptionFuzzTest, EveryTruncationAndBitFlipIsRejected) {
  workload::CorpusOptions o;
  o.documents = 60;
  Corpus corpus(workload::ServerLogCorpus(o));
  const std::string seg_path = TempPath("fuzz");
  const std::string idx_path = IndexPathFor(seg_path);
  ASSERT_TRUE(SegmentStore::Write(corpus, seg_path).ok());
  {
    Result<SegmentStore> store = SegmentStore::Open(seg_path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(NgramIndex::Build(store.value()).Save(idx_path).ok());
  }
  const std::string seg_bytes = ReadFileBytes(seg_path);
  const std::string idx_bytes = ReadFileBytes(idx_path);
  ASSERT_GT(seg_bytes.size(), 0u);
  ASSERT_GT(idx_bytes.size(), 0u);

  const std::string mangled_path = TempPath("fuzz_mangled");
  std::mt19937 rng(20260808);
  int rejected = 0;
  for (int round = 0; round < 240; ++round) {
    const bool is_index = (round % 2) == 1;
    const std::string& pristine = is_index ? idx_bytes : seg_bytes;
    std::string bytes = pristine;
    std::string what;
    if (round % 4 < 2) {
      // Truncate to a strictly shorter length (0 included: empty file).
      std::uniform_int_distribution<size_t> len_pick(0, bytes.size() - 1);
      const size_t len = len_pick(rng);
      bytes.resize(len);
      what = "truncate to " + std::to_string(len);
    } else {
      std::uniform_int_distribution<size_t> pos_pick(0, bytes.size() - 1);
      std::uniform_int_distribution<int> bit_pick(0, 7);
      const size_t pos = pos_pick(rng);
      const int bit = bit_pick(rng);
      bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << bit));
      what = "flip bit " + std::to_string(bit) + " at " + std::to_string(pos);
    }
    WriteFileBytes(mangled_path, bytes);

    if (is_index) {
      Result<NgramIndex> r = NgramIndex::Open(mangled_path, corpus.size());
      EXPECT_FALSE(r.ok()) << "index accepted after " << what;
      if (!r.ok()) ++rejected;
    } else {
      Result<SegmentStore> r = SegmentStore::Open(mangled_path);
      EXPECT_FALSE(r.ok()) << "segment accepted after " << what;
      if (!r.ok()) ++rejected;
    }
  }
  EXPECT_EQ(rejected, 240);
  std::remove(seg_path.c_str());
  std::remove(idx_path.c_str());
  std::remove(mangled_path.c_str());
}

}  // namespace
}  // namespace storage
}  // namespace spanners
