#include "storage/ngram_index.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "storage/crc32c.h"
#include "storage/file_io.h"

namespace spanners {
namespace storage {

namespace {

// "SPANIDX1"
constexpr uint64_t kIdxMagic = 0x3158444e41505331ull;
constexpr uint32_t kIdxVersion = 1;
// magic + version + n + num_docs + num_terms + body_crc + footer_crc
constexpr size_t kIdxFooterSize = 8 + 4 + 4 + 8 + 8 + 4 + 4;
constexpr size_t kTermEntrySize = 16;  // u32 trigram, u32 df, u64 offset

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(char((v >> (8 * i)) & 0xff));
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(char((v >> (8 * i)) & 0xff));
}
uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void PutVarint(std::string* out, uint32_t v) {
  while (v >= 0x80) {
    out->push_back(char(v | 0x80));
    v >>= 7;
  }
  out->push_back(char(v));
}

uint32_t TrigramAt(std::string_view text, size_t i) {
  return uint32_t(uint8_t(text[i])) << 16 | uint32_t(uint8_t(text[i + 1])) << 8 |
         uint32_t(uint8_t(text[i + 2]));
}

// Writes the distinct (trigram, docid) pairs of docids [begin, end) to
// `out`, sorted by (trigram, docid) — packed as trigram<<32 | docid so a
// plain u64 sort gives the posting order — and returns how many it wrote.
// `out` must hold TrigramBound of the range.
size_t PairsOfRange(const SegmentStore& store, size_t begin, size_t end,
                    uint64_t* out) {
  uint64_t* p = out;
  for (size_t d = begin; d < end; ++d) {
    const std::string_view text = store.doc_view(d);
    for (size_t i = 0; i + NgramIndex::kN <= text.size(); ++i)
      *p++ = uint64_t(TrigramAt(text, i)) << 32 | uint64_t(d);
  }
  std::sort(out, p);
  return std::unique(out, p) - out;
}

// Trigram positions in docids [begin, end): a bound on their distinct
// (trigram, docid) pairs.
size_t TrigramBound(const SegmentStore& store, size_t begin, size_t end) {
  size_t bound = 0;
  for (size_t d = begin; d < end; ++d) {
    const size_t len = store.doc_bytes(d);
    if (len >= NgramIndex::kN) bound += len - (NgramIndex::kN - 1);
  }
  return bound;
}

// Sorted-vector set ops used by the candidate computation.
std::vector<uint32_t> Intersect(const std::vector<uint32_t>& a,
                                const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<uint32_t> Union(const std::vector<uint32_t>& a,
                            const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

}  // namespace

NgramIndex NgramIndex::Build(const SegmentStore& store,
                             engine::ThreadPool* pool) {
  const auto build_start = std::chrono::steady_clock::now();
  const size_t num_docs = store.num_docs();

  // One buffer holds every pair, sized by the trigram bound: each shard
  // fills and sorts its own slice of it (on `pool`, when given), then the
  // slices are compacted to the front and, when there are several,
  // sorted together.
  const size_t max_shards = pool != nullptr ? pool->num_threads() * 4 : 1;
  const size_t chunk =
      std::max<size_t>(1, (num_docs + max_shards - 1) / max_shards);
  const size_t num_shards = (num_docs + chunk - 1) / chunk;
  auto end_of = [&](size_t s) { return std::min(s * chunk + chunk, num_docs); };
  std::vector<size_t> slice(num_shards + 1, 0);  // shard s fills from slice[s]
  for (size_t s = 0; s < num_shards; ++s)
    slice[s + 1] = slice[s] + TrigramBound(store, s * chunk, end_of(s));
  std::unique_ptr<uint64_t[]> pairs(new uint64_t[slice[num_shards]]);
  std::vector<size_t> filled(num_shards, 0);
  auto fill = [&](size_t s, size_t) {
    filled[s] =
        PairsOfRange(store, s * chunk, end_of(s), pairs.get() + slice[s]);
  };
  if (pool != nullptr) {
    pool->Run(num_shards, fill);
  } else {
    for (size_t s = 0; s < num_shards; ++s) fill(s, 0);
  }
  size_t total = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    std::memmove(pairs.get() + total, pairs.get() + slice[s],
                 filled[s] * sizeof(uint64_t));
    total += filled[s];
  }
  if (num_shards > 1) std::sort(pairs.get(), pairs.get() + total);

  // Encode: one term entry + one delta-varint run per distinct trigram.
  NgramIndex index;
  index.num_docs_ = num_docs;
  std::string& terms = index.owned_terms_;
  std::string& postings = index.owned_postings_;
  size_t i = 0;
  while (i < total) {
    const uint32_t trigram = uint32_t(pairs[i] >> 32);
    const uint64_t offset = postings.size();
    uint32_t df = 0;
    uint32_t prev = 0;
    for (; i < total && uint32_t(pairs[i] >> 32) == trigram; ++i) {
      const uint32_t doc = uint32_t(pairs[i]);
      PutVarint(&postings, df == 0 ? doc : doc - prev);
      prev = doc;
      ++df;
    }
    PutU32(&terms, trigram);
    PutU32(&terms, df);
    PutU64(&terms, offset);
    ++index.num_terms_;
  }
  index.term_bytes_ = terms.size();
  index.postings_bytes_ = postings.size();

  // index.build_bytes / index.build_ns: MB/s is their quotient across any
  // telemetry window (same two-counter idiom as the engine's rates).
  if (obs::Enabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    static obs::Counter* build_bytes = reg.GetCounter("index.build_bytes");
    static obs::Counter* build_ns = reg.GetCounter("index.build_ns");
    build_bytes->Add(store.data_bytes());
    build_ns->Add(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - build_start)
            .count()));
  }
  return index;
}

Status NgramIndex::Save(const std::string& path) const {
  std::string file;
  file.reserve(term_bytes_ + postings_bytes_ + kIdxFooterSize);
  file.append(reinterpret_cast<const char*>(TermData()), term_bytes_);
  file.append(reinterpret_cast<const char*>(PostingsData()), postings_bytes_);
  const uint32_t body_crc = Crc32c(file.data(), file.size());

  std::string footer;
  PutU64(&footer, kIdxMagic);
  PutU32(&footer, kIdxVersion);
  PutU32(&footer, static_cast<uint32_t>(kN));
  PutU64(&footer, num_docs_);
  PutU64(&footer, num_terms_);
  PutU32(&footer, body_crc);
  PutU32(&footer, Crc32c(footer.data(), footer.size()));
  file += footer;

  // The same crash-atomic tmp → fsync → rename → dirsync discipline as
  // the segment writer (the old path here never fsynced at all, so a
  // crash after rename could surface a torn index that still had a
  // visible name).
  return WriteFileDurable(path, file);
}

Result<NgramIndex> NgramIndex::Open(const std::string& path,
                                    size_t expect_num_docs) {
  SPANNERS_ASSIGN_OR_RETURN(MappedFile mapped, MappedFile::Open(path));
  const uint8_t* base = mapped.data();
  const size_t size = mapped.size();
  if (size < kIdxFooterSize)
    return Status::Corruption("index " + path + ": file shorter than the " +
                              std::to_string(kIdxFooterSize) +
                              "-byte footer");

  const uint8_t* f = base + size - kIdxFooterSize;
  const uint64_t magic = GetU64(f);
  const uint32_t version = GetU32(f + 8);
  const uint32_t n = GetU32(f + 12);
  const uint64_t num_docs = GetU64(f + 16);
  const uint64_t num_terms = GetU64(f + 24);
  const uint32_t body_crc = GetU32(f + 32);
  const uint32_t footer_crc = GetU32(f + 36);
  if (magic != kIdxMagic)
    return Status::Corruption("index " + path + ": bad magic");
  if (footer_crc != Crc32c(f, kIdxFooterSize - 4))
    return Status::Corruption("index " + path + ": footer checksum mismatch");
  if (version != kIdxVersion || n != kN)
    return Status::Corruption("index " + path + ": unsupported version/n");

  const uint64_t body = size - kIdxFooterSize;
  const uint64_t term_bytes = num_terms * kTermEntrySize;
  if (term_bytes > body)
    return Status::Corruption("index " + path +
                              ": term table exceeds file size");
  if (body_crc != Crc32c(base, body))
    return Status::Corruption("index " + path + ": body checksum mismatch");
  if (num_docs != expect_num_docs)
    return Status::InvalidArgument(
        "index " + path + " covers " + std::to_string(num_docs) +
        " docs but the segment holds " + std::to_string(expect_num_docs));

  NgramIndex index;
  index.file_ = std::make_shared<const MappedFile>(std::move(mapped));
  index.term_bytes_ = term_bytes;
  index.postings_bytes_ = body - term_bytes;
  index.num_terms_ = static_cast<size_t>(num_terms);
  index.num_docs_ = static_cast<size_t>(num_docs);
  return index;
}

bool NgramIndex::FindTerm(uint32_t trigram, Term* out) const {
  const uint8_t* terms = TermData();
  size_t lo = 0, hi = num_terms_;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    const uint32_t t = GetU32(terms + mid * kTermEntrySize);
    if (t < trigram) {
      lo = mid + 1;
    } else if (t > trigram) {
      hi = mid;
    } else {
      out->trigram = t;
      out->doc_freq = GetU32(terms + mid * kTermEntrySize + 4);
      out->postings_offset = GetU64(terms + mid * kTermEntrySize + 8);
      return true;
    }
  }
  return false;
}

void NgramIndex::DecodePostings(const Term& term,
                                std::vector<uint32_t>* out) const {
  out->clear();
  out->reserve(term.doc_freq);
  const uint8_t* p = PostingsData() + term.postings_offset;
  const uint8_t* limit = PostingsData() + postings_bytes_;
  uint32_t doc = 0;
  for (uint32_t k = 0; k < term.doc_freq && p < limit; ++k) {
    uint32_t v = 0;
    int shift = 0;
    while (p < limit) {
      const uint8_t byte = *p++;
      v |= uint32_t(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    doc = k == 0 ? v : doc + v;
    out->push_back(doc);
  }
}

std::vector<uint32_t> NgramIndex::LiteralCandidates(std::string_view literal,
                                                    LookupStats* stats) const {
  // Distinct trigrams of the literal, rarest first; a missing trigram
  // proves no document contains the literal.
  std::vector<Term> terms;
  for (size_t i = 0; i + kN <= literal.size(); ++i) {
    const uint32_t trigram = TrigramAt(literal, i);
    if (std::any_of(terms.begin(), terms.end(), [&](const Term& t) {
          return t.trigram == trigram;
        }))
      continue;
    Term t;
    if (stats != nullptr) ++stats->terms_probed;
    if (!FindTerm(trigram, &t)) return {};
    terms.push_back(t);
  }
  if (terms.empty()) return {};
  std::sort(terms.begin(), terms.end(), [](const Term& a, const Term& b) {
    return a.doc_freq < b.doc_freq;
  });

  std::vector<uint32_t> result, next;
  DecodePostings(terms[0], &result);
  if (stats != nullptr) stats->postings_touched += terms[0].doc_freq;
  for (size_t i = 1; i < terms.size() && !result.empty(); ++i) {
    DecodePostings(terms[i], &next);
    if (stats != nullptr) stats->postings_touched += terms[i].doc_freq;
    result = Intersect(result, next);
  }
  return result;
}

CandidateSet NgramIndex::Candidates(const engine::Prefilter& prefilter,
                                    LookupStats* stats) const {
  const std::vector<engine::Prefilter::Clause> clauses =
      prefilter.IndexableClauses(kN);
  CandidateSet out;
  if (clauses.empty()) return out;  // all = true: index cannot narrow

  out.all = false;
  bool first = true;
  for (const engine::Prefilter::Clause& clause : clauses) {
    std::vector<uint32_t> clause_docs;
    for (const std::string& lit : clause.literals)
      clause_docs = Union(clause_docs, LiteralCandidates(lit, stats));
    out.docs = first ? std::move(clause_docs)
                     : Intersect(out.docs, clause_docs);
    first = false;
    if (out.docs.empty()) break;  // provably nothing matches
  }
  return out;
}

uint32_t NgramIndex::DocFreq(std::string_view trigram) const {
  if (trigram.size() != kN) return 0;
  Term t;
  return FindTerm(TrigramAt(trigram, 0), &t) ? t.doc_freq : 0;
}

std::string NgramIndex::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "ngram-index: %zu terms over %zu docs, %.1f KiB",
                num_terms_, num_docs_, double(body_bytes()) / 1024.0);
  return buf;
}

}  // namespace storage
}  // namespace spanners
