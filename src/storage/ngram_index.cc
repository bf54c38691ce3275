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

void PutU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = uint8_t(v >> (8 * i));
}
void PutU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = uint8_t(v >> (8 * i));
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

constexpr uint32_t kTrigramLimit = 1u << 24;

size_t VarintSize(uint32_t v) {
  return 1 + (v >= 1u << 7) + (v >= 1u << 14) + (v >= 1u << 21) +
         (v >= 1u << 28);
}

uint8_t* PutVarint(uint8_t* p, uint32_t v) {
  while (v >= 0x80) {
    *p++ = uint8_t(v | 0x80);
    v >>= 7;
  }
  *p++ = uint8_t(v);
  return p;
}

// Reads one LEB128 u32 at *p: false when it runs past `limit` or carries
// bits beyond 32 (a fifth byte above 0x0f), which no writer produces.
bool ReadVarint(const uint8_t** p, const uint8_t* limit, uint32_t* out) {
  if (*p < limit && **p < 0x80) {  // one byte, the common case
    *out = *(*p)++;
    return true;
  }
  uint32_t v = 0;
  for (int shift = 0; shift < 35 && *p < limit; shift += 7) {
    const uint8_t byte = *(*p)++;
    if (shift == 28 && byte > 0x0f) return false;
    v |= uint32_t(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

uint32_t TrigramAt(std::string_view text, size_t i) {
  return uint32_t(uint8_t(text[i])) << 16 | uint32_t(uint8_t(text[i + 1])) << 8 |
         uint32_t(uint8_t(text[i + 2]));
}

// The counting build's map from trigram to its term: open addressing with
// linear probing, kept at most half full. `n` is the term's document
// count in the first pass and its next write position in the second;
// `last` is one past the last document that touched it, so a document
// counts each of its trigrams once.
class TermCounts {
 public:
  struct Slot {
    uint32_t trigram = kTrigramLimit;  // kTrigramLimit: empty
    uint32_t last = 0;
    uint64_t n = 0;
  };

  TermCounts() : slots_(size_t(1) << kInitialBits) {}

  Slot& operator[](uint32_t trigram) {
    Slot* s = Probe(trigram);
    if (s->trigram == trigram) return *s;
    if (2 * (size_ + 1) > slots_.size()) {
      Grow();
      s = Probe(trigram);
    }
    ++size_;
    s->trigram = trigram;
    return *s;
  }

  size_t size() const { return size_; }
  std::vector<Slot>& slots() { return slots_; }

 private:
  static constexpr int kInitialBits = 12;

  Slot* Probe(uint32_t trigram) {
    const size_t mask = slots_.size() - 1;
    size_t i = size_t(trigram * 0x9e3779b1u) >> shift_;
    while (slots_[i].trigram != trigram &&
           slots_[i].trigram != kTrigramLimit)
      i = (i + 1) & mask;
    return &slots_[i];
  }

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    for (const Slot& s : old)
      if (s.trigram != kTrigramLimit) *Probe(s.trigram) = s;
  }

  std::vector<Slot> slots_;
  int shift_ = 32 - kInitialBits;
  size_t size_ = 0;
};

// Calls visit(slot, d) once for each distinct trigram of each document d
// of `store`, in document order. Expects every slot's `last` at 0.
template <typename Visit>
void VisitTerms(const SegmentStore& store, TermCounts* counts, Visit visit) {
  for (size_t d = 0; d < store.num_docs(); ++d) {
    const std::string_view text = store.doc_view(d);
    if (text.size() < NgramIndex::kN) continue;
    const uint32_t mark = uint32_t(d) + 1;
    uint32_t t = uint32_t(uint8_t(text[0])) << 8 | uint8_t(text[1]);
    for (size_t i = 2; i < text.size(); ++i) {
      t = (t << 8 | uint8_t(text[i])) & (kTrigramLimit - 1);
      TermCounts::Slot& s = (*counts)[t];
      if (s.last != mark) {
        s.last = mark;
        visit(s, uint32_t(d));
      }
    }
  }
}

// Checks the structure lookups trust: trigrams strictly increasing and
// below 2^24, 1 <= doc_freq <= num_docs, and posting lists back to back
// from offset 0 to the end of the blob, each decoding to exactly doc_freq
// strictly increasing ids below num_docs. A matching checksum does not
// prove any of it (CRC32C authenticates nothing, and a writer bug
// checksums its own output), and each fault has a cost: an unsorted table
// hides present trigrams from the binary search (silently dropped rows),
// an id >= num_docs indexes past the segment's offset table, and a huge
// doc_freq sizes a huge decode buffer. Returns the first fault, or null.
const char* StructureFault(const uint8_t* terms, uint64_t num_terms,
                           const uint8_t* postings, uint64_t postings_bytes,
                           uint64_t num_docs) {
  const uint8_t* const limit = postings + postings_bytes;
  const uint8_t* p = postings;
  for (uint64_t k = 0; k < num_terms; ++k) {
    const uint8_t* e = terms + k * kTermEntrySize;
    const uint32_t trigram = GetU32(e);
    const uint32_t doc_freq = GetU32(e + 4);
    if (trigram >= kTrigramLimit) return "trigram out of range";
    if (k > 0 && trigram <= GetU32(e - kTermEntrySize))
      return "term table not sorted by trigram";
    if (doc_freq == 0 || doc_freq > num_docs)
      return "doc_freq out of range";
    if (GetU64(e + 8) != uint64_t(p - postings))
      return "posting list does not start where the previous one ends";
    // The last id is the sum of the first and the gaps; with every gap
    // nonzero the ids increase, so the last one bounds them all.
    uint32_t v = 0;
    if (!ReadVarint(&p, limit, &v)) return "malformed posting list";
    uint64_t last = v;
    for (uint32_t j = 1; j < doc_freq; ++j) {
      if (!ReadVarint(&p, limit, &v)) return "malformed posting list";
      if (v == 0) return "posting ids not strictly increasing";
      last += v;
    }
    if (last >= num_docs) return "posting id out of range";
  }
  if (p != limit) return "postings blob has bytes past the last list";
  return nullptr;
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

NgramIndex NgramIndex::Build(const SegmentStore& store) {
  const auto build_start = std::chrono::steady_clock::now();
  const size_t num_docs = store.num_docs();

  // Pass 1: each term's document count.
  TermCounts counts;
  VisitTerms(store, &counts, [](TermCounts::Slot& s, uint32_t) { ++s.n; });

  // The term table: the distinct trigrams in order, each list's slice of
  // `docs` laid out back to back in that order.
  std::vector<TermCounts::Slot*> order;
  order.reserve(counts.size());
  for (TermCounts::Slot& s : counts.slots())
    if (s.trigram != kTrigramLimit) order.push_back(&s);
  std::sort(order.begin(), order.end(),
            [](const TermCounts::Slot* a, const TermCounts::Slot* b) {
              return a->trigram < b->trigram;
            });
  struct List {
    uint32_t trigram, doc_freq;
    uint64_t start;  // in `docs`
  };
  std::vector<List> lists(order.size());
  uint64_t num_pairs = 0;
  for (size_t k = 0; k < order.size(); ++k) {
    lists[k] = List{order[k]->trigram, uint32_t(order[k]->n), num_pairs};
    order[k]->n = num_pairs;
    order[k]->last = 0;
    num_pairs += lists[k].doc_freq;
  }

  // Pass 2: scatter each document's id into its terms' slices, so every
  // list comes out sorted and deduplicated.
  std::unique_ptr<uint32_t[]> docs(new uint32_t[num_pairs]);
  VisitTerms(store, &counts,
             [&](TermCounts::Slot& s, uint32_t d) { docs[s.n++] = d; });

  // Encode into exactly-sized buffers: one 16-byte entry per term, then
  // each list as its first id and the gaps after it.
  uint64_t postings_bytes = 0;
  for (const List& list : lists) {
    const uint32_t* ids = docs.get() + list.start;
    postings_bytes += VarintSize(ids[0]);
    for (uint32_t j = 1; j < list.doc_freq; ++j)
      postings_bytes += VarintSize(ids[j] - ids[j - 1]);
  }
  NgramIndex index;
  index.num_docs_ = num_docs;
  index.num_terms_ = lists.size();
  index.owned_terms_.resize(lists.size() * kTermEntrySize);
  index.owned_postings_.resize(postings_bytes);
  uint8_t* entry = reinterpret_cast<uint8_t*>(index.owned_terms_.data());
  uint8_t* const postings =
      reinterpret_cast<uint8_t*>(index.owned_postings_.data());
  uint8_t* p = postings;
  for (const List& list : lists) {
    const uint32_t* ids = docs.get() + list.start;
    PutU32(entry, list.trigram);
    PutU32(entry + 4, list.doc_freq);
    PutU64(entry + 8, uint64_t(p - postings));
    entry += kTermEntrySize;
    p = PutVarint(p, ids[0]);
    for (uint32_t j = 1; j < list.doc_freq; ++j)
      p = PutVarint(p, ids[j] - ids[j - 1]);
  }
  index.term_bytes_ = index.owned_terms_.size();
  index.postings_bytes_ = postings_bytes;

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

  uint8_t footer[kIdxFooterSize];
  PutU64(footer, kIdxMagic);
  PutU32(footer + 8, kIdxVersion);
  PutU32(footer + 12, static_cast<uint32_t>(kN));
  PutU64(footer + 16, num_docs_);
  PutU64(footer + 24, num_terms_);
  PutU32(footer + 32, body_crc);
  PutU32(footer + 36, Crc32c(footer, kIdxFooterSize - 4));
  file.append(reinterpret_cast<const char*>(footer), kIdxFooterSize);

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
  if (num_terms > body / kTermEntrySize)
    return Status::Corruption("index " + path +
                              ": term table exceeds file size");
  const uint64_t term_bytes = num_terms * kTermEntrySize;
  if (body_crc != Crc32c(base, body))
    return Status::Corruption("index " + path + ": body checksum mismatch");
  if (num_docs != expect_num_docs)
    return Status::InvalidArgument(
        "index " + path + " covers " + std::to_string(num_docs) +
        " docs but the segment holds " + std::to_string(expect_num_docs));
  if (const char* fault = StructureFault(base, num_terms, base + term_bytes,
                                         body - term_bytes, num_docs))
    return Status::Corruption("index " + path + ": " + fault);

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
  uint32_t doc = 0, v = 0;
  for (uint32_t k = 0; k < term.doc_freq && ReadVarint(&p, limit, &v); ++k) {
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
  for (size_t i = 1; i < terms.size() && result.size() > kFewCandidates;
       ++i) {
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
    if (out.docs.size() <= kFewCandidates) break;  // few enough, or none
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
