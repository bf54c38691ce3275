// BatchExtractor: extracts a corpus on a fixed thread pool whose calling
// thread extracts too.
// Every entry point is one Drive call over two axes:
//   - source: a Corpus, or a SegmentStore's index candidates;
//   - step:   one DocumentExtractor (a compiled pattern plan or a whole
//             algebra query), or a MultiQueryExtractor fleet's plans.
// Its one sink is each shard's hits, which a materializing call joins
// into its results and a stream hands to its consumer shard by shard.
// The documents are cut into byte-balanced shards (≈ oversubscription ×
// threads of them, so a thread that finishes early claims the next shard
// and skew evens out); each thread extracts its shard's documents in
// corpus order, and shards are joined in corpus order. Output is
// therefore deterministic and independent of the thread count:
// per_doc[i] is the sorted ⟦γ⟧_{d_i}.
#ifndef SPANNERS_ENGINE_BATCH_EXTRACTOR_H_
#define SPANNERS_ENGINE_BATCH_EXTRACTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/mapping.h"
#include "engine/corpus.h"
#include "engine/multi_query.h"
#include "engine/plan.h"
#include "engine/thread_pool.h"
#include "storage/ngram_index.h"
#include "storage/segment.h"

namespace spanners {
namespace engine {

struct BatchOptions {
  /// Threads that extract, the caller included; 0 = hardware concurrency.
  /// One thread extracts on the caller alone and starts no other.
  size_t num_threads = 0;
  /// Shards ≈ num_threads × oversubscription (skew insurance).
  size_t shard_oversubscription = 4;
  /// Never shard finer than this many documents.
  size_t min_docs_per_shard = 16;
};

/// One output's mappings over a call's documents, sized by its hits. A
/// spanner's output on a document is a set of (possibly partial)
/// mappings, and under a selective query nearly every set is empty, so
/// only the documents that have mappings are stored: hits() holds
/// (document, sorted mappings) in ascending document order. Beside them,
/// one bit per document with a running popcount rank answers (*this)[i]
/// in O(1) — a constant number of loads, so a caller may visit every
/// index. That bit index is built only when the list has hits; a
/// document without mappings reads one shared empty vector.
class HitList {
 public:
  struct Hit {
    size_t doc;
    std::vector<Mapping> mappings;  // sorted, never empty
  };

  /// The call's documents: indices 0 .. size() − 1.
  size_t size() const { return num_docs_; }
  bool empty() const { return num_docs_ == 0; }

  /// Sorted mappings of document i < size().
  const std::vector<Mapping>& operator[](size_t i) const {
    if (blocks_.empty()) return kNoMappings;
    const Block& block = blocks_[i >> 6];
    const uint64_t bit = uint64_t{1} << (i & 63);
    if ((block.bits & bit) == 0) return kNoMappings;
    const int below = __builtin_popcountll(block.bits & (bit - 1));
    return hits_[block.rank + static_cast<size_t>(below)].mappings;
  }

  /// The documents that have mappings, ascending.
  const std::vector<Hit>& hits() const { return hits_; }

 private:
  friend class BatchExtractor;

  // Documents 64w .. 64w + 63: bit k marks a hit on document 64w + k, and
  // `rank` counts the hits before the block.
  struct Block {
    uint64_t bits = 0;
    size_t rank = 0;
  };

  /// Rebuilds blocks_ over hits_ and num_docs_.
  void Index();

  static const std::vector<Mapping> kNoMappings;
  size_t num_docs_ = 0;
  std::vector<Hit> hits_;
  std::vector<Block> blocks_;  // empty when hits_ is
};

/// A materializing call's output for one extractor (or one fleet plan).
/// A reused result (ExtractInto, ExtractMultiInto) has its hits replaced,
/// so what a call costs and holds grows with its hits, not with corpus
/// size × outputs.
struct BatchResult {
  /// per_doc[i]: sorted mappings of document i (corpus position, or store
  /// document id for an indexed call); per_doc.size() is the document
  /// count.
  HitList per_doc;
  uint64_t total_mappings = 0;
  size_t shards = 0;

  /// Documents with at least one mapping.
  size_t MatchedDocuments() const { return per_doc.hits().size(); }
};

/// One ExtractMulti call's output: per_plan[p] is byte-identical to the
/// BatchResult of running plan p alone over the same corpus.
struct MultiBatchResult {
  std::vector<BatchResult> per_plan;
  uint64_t total_mappings = 0;  // across every plan
  size_t shards = 0;

  /// Documents with a mapping under at least one plan, ascending: the
  /// plans' hit lists merged in document order.
  std::vector<size_t> HitDocuments() const;
};

/// Accounting of one ExtractIndexed{,Multi} call: how much the posting
/// index narrowed the scan, what the lookup cost, and the mmap paging the
/// candidate materialization incurred. Mirrored into obs index.* metrics.
struct IndexedStats {
  size_t corpus_docs = 0;
  /// Documents actually materialized and extracted (== corpus_docs when
  /// the index could not narrow the query).
  size_t candidate_docs = 0;
  /// Whether the index produced an explicit candidate set (some clause
  /// was indexable); false = full scan over the store.
  bool narrowed = false;
  uint64_t postings_touched = 0;  // posting entries decoded
  uint64_t terms_probed = 0;      // term-table binary searches
  uint64_t lookup_ns = 0;         // candidate-set computation wall time
  uint64_t minor_faults = 0;      // getrusage deltas across the call
  uint64_t major_faults = 0;

  /// candidate_docs / corpus_docs in [0, 1]; 1.0 for an empty corpus.
  double CandidateRatio() const {
    return corpus_docs == 0
               ? 1.0
               : static_cast<double>(candidate_docs) / corpus_docs;
  }
};

class BatchExtractor {
 public:
  explicit BatchExtractor(BatchOptions options = {});

  size_t num_threads() const { return pool_.num_threads(); }

  /// Token governing the NEXT Extract* call (and every one after, until
  /// replaced): each thread polls it between documents and hands it to the
  /// evaluators so it aborts mid-document too. Not owned; null = never
  /// cancels. Set it before the call, from the same thread — the extractor
  /// is not reentrant anyway. After a trip the result is partial and
  /// meaningless: the caller checks the token, never the result. With no
  /// token (or an untripped one) results are byte-identical to a run
  /// without this feature — the polls have no other side effect.
  void set_cancel(CancelToken* cancel) { cancel_ = cancel; }
  CancelToken* cancel() const { return cancel_; }

  /// Extracts every document of `corpus` under `extractor` — an
  /// ExtractionPlan or a query::CompiledQuery. Blocking; safe to call
  /// repeatedly (the pool is reused across batches — each thread's
  /// extraction arenas are Reset() between documents, never freed, so
  /// evaluation's transient state allocates nothing once warm). Each
  /// thread extracts a document into its own scratch slot per output and
  /// moves only non-empty slots' mappings into the result's hits, one
  /// exactly sized vector per (output, matched document). The extractor
  /// and corpus must outlive the call (they are borrowed, not copied).
  /// Not safe to call concurrently on the same BatchExtractor: the
  /// per-thread scratch is reused across calls.
  BatchResult Extract(const DocumentExtractor& extractor,
                      const Corpus& corpus);

  /// Like Extract but refills a caller-owned result: the previous batch's
  /// hits are replaced by this batch's once every shard is extracted.
  void ExtractInto(const DocumentExtractor& extractor, const Corpus& corpus,
                   BatchResult* result);

  /// Aggregate of a streamed extraction (ExtractStream's return value).
  struct StreamStats {
    uint64_t total_mappings = 0;
    size_t matched_documents = 0;
    size_t shards = 0;
  };

  /// Receives one completed shard: the sorted mappings of corpus documents
  /// [doc_begin, doc_end), with per_doc[i] belonging to document
  /// doc_begin + i. The slice is valid only during the call: its entries
  /// may be moved from (not resized), and it is emptied and reused for the
  /// next shard.
  using ShardConsumer = std::function<void(
      size_t doc_begin, size_t doc_end,
      std::vector<std::vector<Mapping>>& per_doc)>;

  /// Streamed variant of Extract: the shards are extracted a window of
  /// 2 × threads at a time, and after each window `consumer` is invoked
  /// once per shard of it, in corpus order, on the calling thread. So
  /// output never materializes the whole BatchResult — a stream holds one
  /// window's hits plus one shard-wide slice, which the call allocates
  /// once and the shards' hits move into one shard at a time — and
  /// consumption does not overlap extraction. The emitted stream is
  /// byte-identical for every thread count: shard boundaries and
  /// per-document mapping order do not depend on scheduling. A throwing
  /// consumer leaves no task running. Same borrowing and non-reentrancy
  /// rules as Extract.
  StreamStats ExtractStream(const DocumentExtractor& extractor,
                            const Corpus& corpus,
                            const ShardConsumer& consumer);

  /// Runs a whole plan fleet over the corpus in a single pass: each
  /// document is scanned once by the fleet's shared Aho–Corasick gate and
  /// extracted under every surviving plan, instead of one full corpus
  /// sweep per plan. Output per_plan[p] is byte-identical — for every
  /// thread count — to Extract(fleet.plan(p), corpus). Same borrowing and
  /// non-reentrancy rules as Extract.
  MultiBatchResult ExtractMulti(const MultiQueryExtractor& fleet,
                                const Corpus& corpus);

  /// Like ExtractMulti but refills a caller-owned result, replacing the
  /// previous batch's hits as ExtractInto does.
  void ExtractMultiInto(const MultiQueryExtractor& fleet,
                        const Corpus& corpus, MultiBatchResult* result);

  /// Receives one completed multi-query shard: per_plan[p][i - doc_begin]
  /// is the sorted mapping set of corpus document i under plan p. As with
  /// ShardConsumer, the slice is valid only during the call, its entries
  /// may be moved from, and it is reused for the next shard.
  using MultiShardConsumer = std::function<void(
      size_t doc_begin, size_t doc_end,
      std::vector<std::vector<std::vector<Mapping>>>& per_plan)>;

  /// Streamed ExtractMulti: shards arrive in corpus order on the calling
  /// thread, a window of 2 × threads of them after it is extracted, as in
  /// ExtractStream. StreamStats aggregates over every plan
  /// (matched_documents counts documents matched by at least one plan).
  /// Byte-identical for every thread count.
  StreamStats ExtractMultiStream(const MultiQueryExtractor& fleet,
                                 const Corpus& corpus,
                                 const MultiShardConsumer& consumer);

  /// Index-accelerated Extract over a persisted segment: the plan's
  /// prefilter requirement compiles to posting-list intersections
  /// (NgramIndex::Candidates) and ONLY candidate documents are
  /// materialized out of the mapping and extracted — non-candidates
  /// (provably without mappings) are never touched, and the result holds
  /// only the candidates' hits. per_doc spans every store document, so
  /// per_doc[id] reads document id. The result is byte-identical, for
  /// every thread count, to
  /// Extract(plan, store.ReadAll()): candidates are a superset of the
  /// matching documents and every survivor still runs the full gate
  /// cascade. `index` may be null (or unable to narrow the plan), in
  /// which case every document is scanned. Extracted documents are
  /// copied out of the mapping (SegmentStore::MaterializeDoc), so results
  /// never dangle after the store closes.
  BatchResult ExtractIndexed(const ExtractionPlan& plan,
                             const storage::SegmentStore& store,
                             const storage::NgramIndex* index,
                             IndexedStats* stats = nullptr);

  /// Indexed ExtractMulti: candidates are the UNION of every resident
  /// plan's candidate set (any plan that the index cannot narrow widens
  /// the union to the whole store), and each candidate document runs the
  /// fleet's normal shared-AC cascade. per_plan[p] is byte-identical to
  /// Extract(fleet.plan(p), store.ReadAll()) for every thread count.
  MultiBatchResult ExtractIndexedMulti(const MultiQueryExtractor& fleet,
                                       const storage::SegmentStore& store,
                                       const storage::NgramIndex* index,
                                       IndexedStats* stats = nullptr);

 private:
  /// The one shard driver behind every Extract* call (batch_extractor.cc):
  /// `source` yields the documents and `step` extracts one into its
  /// thread's slots. Every task moves its shard's hits out of those slots;
  /// then either `results` (one per output, refilled in place; one
  /// ThreadPool::Run over every shard) takes them, or, when that is null,
  /// `consumer` gets them a window at a time (one Run per window), moved
  /// into one reused slice per shard in corpus order.
  template <typename Source, typename Step>
  StreamStats Drive(const Source& source, const Step& step,
                    BatchResult* results, const MultiShardConsumer* consumer);
  // Its per-document steps (batch_extractor.cc): members, so the fleet
  // step may take MultiQueryExtractor's private survivor path.
  struct ExtractorStep;
  struct FleetStep;

  // What one pool thread keeps across documents and calls.
  struct ThreadState {
    PlanScratch scratch;  // arenas, sort buffer, mapping pool
    // The one sink's slots, one per output, and their addresses as the
    // step takes them. Every call extracts a document here and moves its
    // non-empty slots to the shard's hits, so every slot is empty between
    // documents.
    std::vector<std::vector<Mapping>> slots;
    std::vector<std::vector<Mapping>*> slot_ptrs;
  };
  // One shard's hit of output `output` on the call's document at
  // position `at` (Source::id(at) is its document id).
  struct ShardHit {
    size_t output;
    size_t at;
    std::vector<Mapping> mappings;
  };

  BatchOptions options_;
  ThreadPool pool_;
  CancelToken* cancel_ = nullptr;
  // One state per pool thread, the caller's included, addressed by
  // ThreadPool::Run's thread index; unique_ptr keeps addresses stable.
  std::vector<std::unique_ptr<ThreadState>> threads_;
  // Per shard of the current call, its hits in document order (each
  // document's outputs ascending); cleared once joined or handed over,
  // kept for their capacity.
  std::vector<std::vector<ShardHit>> shard_hits_;
};

}  // namespace engine
}  // namespace spanners

#endif  // SPANNERS_ENGINE_BATCH_EXTRACTOR_H_
