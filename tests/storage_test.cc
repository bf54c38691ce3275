// Tests for the persistent corpus storage layer: segment round-trips
// (including empty documents, binary bytes and documents larger than a
// page), the trigram posting index against naive substring-scan ground
// truth and its saved bytes against a reference encoder, result lifetime
// after the store closes, structural faults behind valid checksums, and a
// seeded fuzz sweep asserting that EVERY truncation or bit flip of a
// segment or index file is rejected with a clean Status — never
// accepted, never UB.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "engine/corpus.h"
#include "engine/plan.h"
#include "engine/prefilter.h"
#include "engine/thread_pool.h"
#include "rgx/parser.h"
#include "storage/crc32c.h"
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

std::string ReadFileBytes(const std::string& path) {
  Result<MappedFile> f = MappedFile::Open(path);
  EXPECT_TRUE(f.ok());
  return std::string(f.value().view());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
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

// Byte-identical files: a pool parallelizes the segment's page checksums,
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

  const std::string pooled_path = TempPath("pooled");
  for (size_t threads : {1, 2, 4}) {
    engine::ThreadPool pool(threads);
    SegmentWriteOptions wo;
    wo.pool = &pool;
    ASSERT_TRUE(SegmentStore::Write(corpus, pooled_path, wo).ok());
    EXPECT_TRUE(read(pooled_path) == want_segment) << threads << " threads";
  }
  std::remove(inline_path.c_str());
  std::remove(pooled_path.c_str());
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

// Once the rarest trigram leaves at most kFewCandidates documents, a
// lookup decodes no other list, and Candidates skips the remaining
// clauses: the gate cascade verifies the few survivors anyway.
TEST(NgramIndexTest, LookupStopsOnceCandidatesAreFew) {
  std::vector<Document> docs;
  for (int d = 0; d < 200; ++d)
    docs.emplace_back(std::string(d % 50 == 7 ? "prefix abcQRSTU suffix"
                                              : "prefix abc only"));
  Corpus corpus(std::move(docs));
  const std::string path = TempPath("idx_few");
  ASSERT_TRUE(SegmentStore::Write(corpus, path).ok());
  Result<SegmentStore> store = SegmentStore::Open(path);
  ASSERT_TRUE(store.ok());
  NgramIndex index = NgramIndex::Build(store.value());

  const std::string literal = "abcQRSTU";
  uint32_t rarest = UINT32_MAX;
  for (size_t i = 0; i + NgramIndex::kN <= literal.size(); ++i)
    rarest = std::min(rarest, index.DocFreq(literal.substr(i, NgramIndex::kN)));
  ASSERT_EQ(rarest, 4u);
  ASSERT_LE(rarest, NgramIndex::kFewCandidates);
  ASSERT_EQ(index.DocFreq("abc"), corpus.size());

  LookupStats stats;
  const std::vector<uint32_t> candidates =
      index.LiteralCandidates(literal, &stats);
  EXPECT_EQ(stats.postings_touched, rarest);
  EXPECT_EQ(candidates, NaiveDocsContaining(corpus, literal));

  // The rare literal's clause comes first (longest literal); the clause
  // of "pre", in every document, is never decoded.
  const engine::Prefilter prefilter = engine::Prefilter::FromRgx(
      ParseRgx(".*abcQRSTU.*pre.*").ValueOrDie());
  ASSERT_EQ(prefilter.IndexableClauses(NgramIndex::kN).size(), 2u);
  LookupStats clause_stats;
  const CandidateSet set = index.Candidates(prefilter, &clause_stats);
  ASSERT_FALSE(set.all);
  EXPECT_EQ(clause_stats.postings_touched, rarest);
  EXPECT_EQ(set.docs, NaiveDocsContaining(corpus, literal));
  std::remove(path.c_str());
}

// ---- index format ---------------------------------------------------------

void PutLE(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out->push_back(char(v >> (8 * i)));
}

// The documented layout, encoded from a naive trigram → document-set map:
// one {u32 trigram, u32 doc_freq, u64 postings_offset} entry per trigram
// in increasing order, then each list as LEB128 varints, the first id
// absolute and the rest gaps. Little-endian throughout.
std::string ReferenceIndexBody(const Corpus& corpus) {
  std::map<uint32_t, std::set<uint32_t>> postings;
  for (size_t d = 0; d < corpus.size(); ++d) {
    const std::string& text = corpus[d].text();
    for (size_t i = 0; i + 3 <= text.size(); ++i)
      postings[uint32_t(uint8_t(text[i])) << 16 |
               uint32_t(uint8_t(text[i + 1])) << 8 | uint8_t(text[i + 2])]
          .insert(uint32_t(d));
  }
  std::string terms, lists;
  for (const auto& [trigram, ids] : postings) {
    PutLE(&terms, trigram, 4);
    PutLE(&terms, ids.size(), 4);
    PutLE(&terms, lists.size(), 8);
    uint32_t prev = 0;
    for (const uint32_t id : ids) {
      uint32_t v = id == *ids.begin() ? id : id - prev;
      for (; v >= 0x80; v >>= 7) lists.push_back(char(v | 0x80));
      lists.push_back(char(v));
      prev = id;
    }
  }
  return terms + lists;
}

constexpr size_t kIndexFooterBytes = 40;

// Saves the index of `corpus` and returns the file's bytes.
std::string SavedIndexBytes(const Corpus& corpus, const std::string& tag) {
  const std::string path = TempPath(tag);
  const std::string idx_path = IndexPathFor(path);
  EXPECT_TRUE(SegmentStore::Write(corpus, path).ok());
  Result<SegmentStore> store = SegmentStore::Open(path);
  EXPECT_TRUE(store.ok());
  EXPECT_TRUE(NgramIndex::Build(store.value()).Save(idx_path).ok());
  Result<NgramIndex> opened = NgramIndex::Open(idx_path, corpus.size());
  EXPECT_TRUE(opened.ok()) << tag << ": " << opened.status().ToString();
  std::string bytes = ReadFileBytes(idx_path);
  std::remove(path.c_str());
  std::remove(idx_path.c_str());
  return bytes;
}

// The saved body equals the reference encoding byte for byte, on corpora
// at the format's edges.
TEST(NgramIndexTest, SavedBodyMatchesReferenceEncoder) {
  std::vector<std::pair<std::string, std::vector<std::string>>> cases;
  cases.push_back({"no_documents", {}});
  cases.push_back({"short", {"", "a", "ab", "", "abc", "xy", "abcd", ""}});
  std::string up, down;
  for (int b = 0; b < 256; ++b) {
    up.push_back(char(b));
    down.push_back(char(255 - b));
  }
  cases.push_back({"all_bytes",
                   {up, down, std::string(5, '\0'), std::string(5, '\xff'),
                    std::string("\xff\x00\xff\x00", 4)}});
  cases.push_back(
      {"repeats", {"aaaaaaaa", "abcabcabcabc", "xaaax", "aaa", "abcabc"}});
  // Over 16,384 documents: ids and gaps take 1-, 2- and 3-byte varints.
  std::vector<std::string> many;
  for (int d = 0; d < 17000; ++d) {
    std::string text = "d" + std::to_string(d % 97);
    if (d == 0 || d == 200 || d == 16999) text += " rare";
    if (d >= 16500 && d % 3 == 0) text += " late";
    many.push_back(std::move(text));
  }
  cases.push_back({"many", std::move(many)});

  for (const auto& [tag, texts] : cases) {
    std::vector<Document> docs;
    for (const std::string& text : texts) docs.emplace_back(text);
    Corpus corpus(std::move(docs));
    const std::string bytes = SavedIndexBytes(corpus, "ref_" + tag);
    ASSERT_GE(bytes.size(), kIndexFooterBytes) << tag;
    const std::string body = bytes.substr(0, bytes.size() - kIndexFooterBytes);
    const std::string want = ReferenceIndexBody(corpus);
    EXPECT_EQ(body.size(), want.size()) << tag;
    EXPECT_TRUE(body == want) << tag;
  }
}

// Open checks the structure that lookups trust, not just the checksums:
// each fault below is patched into a valid index whose body and footer
// CRCs are then recomputed, so only the structural checks can catch it.
TEST(NgramIndexTest, OpenRejectsStructuralFaultsBehindValidChecksums) {
  std::vector<Document> docs;
  for (const char* text : {"abcdef", "abcxyz", "xyzabc", "bcdefg", "", "zzzz"})
    docs.emplace_back(std::string(text));
  Corpus corpus(std::move(docs));
  const uint64_t num_docs = corpus.size();
  const std::string pristine = SavedIndexBytes(corpus, "idx_struct");
  ASSERT_GT(pristine.size(), kIndexFooterBytes);
  const size_t body = pristine.size() - kIndexFooterBytes;

  auto get = [](const std::string& b, size_t at, int width) {
    uint64_t v = 0;
    for (int i = 0; i < width; ++i)
      v |= uint64_t(uint8_t(b[at + i])) << (8 * i);
    return v;
  };
  auto put = [](std::string* b, size_t at, uint64_t v, int width) {
    for (int i = 0; i < width; ++i) (*b)[at + i] = char(v >> (8 * i));
  };
  const uint64_t num_terms = get(pristine, body + 24, 8);
  const size_t term_bytes = num_terms * 16;
  ASSERT_GE(num_terms, 3u);
  auto entry = [](size_t k) { return k * 16; };
  // A term whose list holds two or more ids (each id here fits one byte).
  size_t multi = 0;
  while (multi < num_terms && get(pristine, entry(multi) + 4, 4) < 2) ++multi;
  ASSERT_LT(multi, num_terms);
  // The last list ("zzz") is one id, the body's last byte.
  ASSERT_EQ(get(pristine, entry(num_terms - 1) + 4, 4), 1u);
  const size_t multi_list = term_bytes + get(pristine, entry(multi) + 8, 8);

  const std::vector<std::pair<std::string, std::function<void(std::string*)>>>
      faults = {
          {"unsorted term table",
           [&](std::string* b) {
             const uint64_t t0 = get(*b, entry(0), 4);
             put(b, entry(0), get(*b, entry(1), 4), 4);
             put(b, entry(1), t0, 4);
           }},
          {"trigram of 2^24",
           [&](std::string* b) { put(b, entry(num_terms - 1), 1u << 24, 4); }},
          {"doc_freq 0", [&](std::string* b) { put(b, entry(0) + 4, 0, 4); }},
          {"doc_freq above num_docs",
           [&](std::string* b) { put(b, entry(0) + 4, num_docs + 1, 4); }},
          {"doc_freq near 2^32",
           [&](std::string* b) { put(b, entry(0) + 4, 0xfffffff0u, 4); }},
          {"first offset not 0",
           [&](std::string* b) { put(b, entry(0) + 8, 1, 8); }},
          {"decreasing offset",
           [&](std::string* b) { put(b, entry(2) + 8, 0, 8); }},
          {"offset past the postings",
           [&](std::string* b) {
             put(b, entry(num_terms - 1) + 8, body - term_bytes + 1, 8);
           }},
          {"posting id of num_docs",
           [&](std::string* b) { (*b)[term_bytes] = char(num_docs); }},
          {"repeated posting id",
           [&](std::string* b) { (*b)[multi_list + 1] = 0; }},
          {"list shorter than its doc_freq",
           [&](std::string* b) {
             put(b, entry(multi) + 4, get(*b, entry(multi) + 4, 4) - 1, 4);
           }},
          {"bytes past the last list",
           [&](std::string* b) { b->insert(body, 1, '\0'); }},
          {"varint above 32 bits",
           [&](std::string* b) {
             b->replace(body - 1, 1, std::string("\xff\xff\xff\xff\x7f"));
           }},
          {"term count that wraps the table size",
           [&](std::string* b) {
             put(b, b->size() - kIndexFooterBytes + 24,
                 num_terms + (uint64_t(1) << 60), 8);
           }},
      };

  // Recomputes the body CRC and then the footer CRC over the patch.
  auto reseal = [&](std::string b) {
    const size_t at = b.size() - kIndexFooterBytes;
    put(&b, at + 32, Crc32c(b.data(), at), 4);
    put(&b, at + 36, Crc32c(b.data() + at, kIndexFooterBytes - 4), 4);
    return b;
  };
  const std::string path = TempPath("idx_struct_patched");
  WriteFileBytes(path, reseal(pristine));
  ASSERT_TRUE(NgramIndex::Open(path, num_docs).ok());
  for (const auto& [what, patch] : faults) {
    std::string bytes = pristine;
    patch(&bytes);
    ASSERT_NE(bytes, pristine) << what;
    WriteFileBytes(path, reseal(bytes));
    Result<NgramIndex> r = NgramIndex::Open(path, num_docs);
    EXPECT_FALSE(r.ok()) << what;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
          << what << ": " << r.status().ToString();
    }
  }
  std::remove(path.c_str());
}

// ---- corruption fuzzing --------------------------------------------------

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
