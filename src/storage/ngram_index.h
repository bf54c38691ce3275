// N-gram posting-list index over a segment's document bytes: the lookup
// structure that turns required-literal prefilter clauses into candidate
// document ids, so gating cost becomes O(result) instead of O(corpus).
//
// The index maps every trigram (3 consecutive bytes) occurring in the
// corpus to the sorted, delta-varint-encoded list of documents containing
// it. A literal of length ≥ 3 is contained in a document only if ALL of
// the literal's trigrams are — so docs(literal) ⊆ ∩ docs(trigram), an
// overapproximation the engine's existing gate tiers (AC / prefilter /
// lazy DFA) then verify exactly. A prefilter requirement
//     (lit_a | lit_b) & lit_c & …        (CNF over literals)
// becomes union-of-intersections per clause, intersected across clauses.
// The returned candidate set is always a SUPERSET of the matching
// documents, which is the soundness invariant: extraction restricted to
// candidates is byte-identical to the full scan.
//
// On-disk layout (little-endian), stored alongside the segment
// (IndexPathFor):
//
//   ┌───────────────────────────────────────────┐ offset 0
//   │ term table: num_terms × {u32 trigram,     │
//   │ u32 doc_freq, u64 postings_offset},       │
//   │ sorted by trigram                         │
//   ├───────────────────────────────────────────┤
//   │ postings blob: per term, doc_freq         │
//   │ delta-varint docids (LEB128, first id     │
//   │ absolute, then gaps)                      │
//   ├───────────────────────────────────────────┤ file_size - footer
//   │ footer: magic, version, ngram n, num_docs,│
//   │ num_terms, body_crc, footer_crc           │
//   └───────────────────────────────────────────┘
//
// Open() verifies the footer, the whole-body CRC and the structure that
// lookups trust before returning (Status::Corruption otherwise); lookups
// then decode postings straight out of the mapping. Document-frequency
// statistics (doc_freq per term) come for free and drive intersection
// order (rarest trigram first) — they are also the cardinality-estimate
// input the cost-based-planning direction wants.
#ifndef SPANNERS_STORAGE_NGRAM_INDEX_H_
#define SPANNERS_STORAGE_NGRAM_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/prefilter.h"
#include "storage/segment.h"

namespace spanners {
namespace storage {

/// A candidate-docid set: either an explicit sorted id list, or "every
/// document" when the query has no indexable clause (the index cannot
/// narrow anything down; the caller falls back to the full scan).
struct CandidateSet {
  bool all = true;
  std::vector<uint32_t> docs;  // sorted, meaningful when !all

  size_t CountIn(size_t corpus_docs) const {
    return all ? corpus_docs : docs.size();
  }
};

/// Per-lookup accounting, surfaced through obs counters and EngineReport.
struct LookupStats {
  uint64_t postings_touched = 0;  // posting entries decoded
  uint64_t terms_probed = 0;      // term-table binary searches
};

class NgramIndex {
 public:
  /// Trigrams: the shortest n-gram no shorter than the prefilter's
  /// kMinLiteralLen, so every clause the prefilter keeps is indexable.
  static constexpr size_t kN = 3;

  /// A lookup stops intersecting once its running candidate set holds at
  /// most this many documents. A surplus candidate costs one
  /// materialization plus the gate cascade (~1 µs); a decoded posting
  /// costs ~4 ns, so once the set is this small, decoding further lists
  /// rarely drops enough candidates to pay for itself. The result stays a
  /// sound superset: every candidate still runs the full gate cascade.
  static constexpr size_t kFewCandidates = 16;

  /// Builds the index over every document of `store`, by counting: one
  /// pass counts each trigram's documents in a hash table, the distinct
  /// trigrams are sorted, and a second pass scatters document ids, in
  /// document order, into one exactly-sized array. It holds ~4 B per
  /// distinct (trigram, document) pair plus the term table, besides the
  /// encoded result.
  static NgramIndex Build(const SegmentStore& store);

  /// Serializes to `path` (atomic rename, like SegmentStore::Write).
  Status Save(const std::string& path) const;

  /// Maps and validates an index file; Status::Corruption on any checksum
  /// or structural mismatch, and InvalidArgument when `expect_num_docs`
  /// (from the segment it sits beside) disagrees — an index for a
  /// different corpus must not silently gate this one. The structural
  /// checks decode every posting list once: trigrams strictly increasing
  /// and below 2^24, 1 <= doc_freq <= num_docs, lists back to back from
  /// offset 0 to the end of the postings, each decoding to exactly
  /// doc_freq strictly increasing ids below num_docs.
  static Result<NgramIndex> Open(const std::string& path,
                                 size_t expect_num_docs);

  size_t num_docs() const { return num_docs_; }
  size_t num_terms() const { return num_terms_; }
  /// Serialized size (term table + postings, excluding the footer).
  uint64_t body_bytes() const { return term_bytes_ + postings_bytes_; }

  /// Documents that may contain `literal`: its trigrams' lists intersected
  /// rarest first, stopping once at most kFewCandidates remain.
  /// Precondition: literal.size() >= kN. Empty result = provably no
  /// document matches.
  std::vector<uint32_t> LiteralCandidates(std::string_view literal,
                                          LookupStats* stats) const;

  /// Candidate documents for a whole prefilter requirement: union over a
  /// clause's literals, intersection across clauses, skipping the
  /// remaining clauses once at most kFewCandidates remain. Clauses with
  /// any literal shorter than kN are skipped (they cannot narrow the set);
  /// when no clause survives, the result has all = true.
  CandidateSet Candidates(const engine::Prefilter& prefilter,
                          LookupStats* stats) const;

  /// Document frequency of one trigram (cardinality statistics for
  /// planning); 0 when absent.
  uint32_t DocFreq(std::string_view trigram) const;

  /// e.g. "ngram-index: 48321 terms over 1000 docs, 312.4 KiB".
  std::string ToString() const;

 private:
  NgramIndex() = default;

  struct Term {
    uint32_t trigram;
    uint32_t doc_freq;
    uint64_t postings_offset;
  };

  /// Term-table binary search; nullopt-like: found flag + term.
  bool FindTerm(uint32_t trigram, Term* out) const;
  /// Decodes one posting list into `out` (cleared first).
  void DecodePostings(const Term& term, std::vector<uint32_t>* out) const;

  /// The backing bytes, whichever representation holds them. Computed per
  /// call (never cached as members) so moving the index — which moves the
  /// owned strings — cannot leave a stale pointer behind.
  const uint8_t* TermData() const {
    return file_ != nullptr
               ? file_->data()
               : reinterpret_cast<const uint8_t*>(owned_terms_.data());
  }
  const uint8_t* PostingsData() const {
    return file_ != nullptr
               ? file_->data() + term_bytes_
               : reinterpret_cast<const uint8_t*>(owned_postings_.data());
  }

  // Exactly one of these backs term/postings bytes: the owned buffers
  // (Build) or the mapping (Open; terms at offset 0, postings after).
  std::string owned_terms_, owned_postings_;
  std::shared_ptr<const MappedFile> file_;
  uint64_t term_bytes_ = 0;
  uint64_t postings_bytes_ = 0;
  size_t num_terms_ = 0;
  size_t num_docs_ = 0;
};

}  // namespace storage
}  // namespace spanners

#endif  // SPANNERS_STORAGE_NGRAM_INDEX_H_
