// A corpus: an ordered collection of documents extracted as one batch.
// Documents keep their insertion index, so engine results can be reported
// in a deterministic, thread-count-independent order. Also corpus sharding:
// byte-balanced contiguous ranges claimed by the extraction threads.
#ifndef SPANNERS_ENGINE_CORPUS_H_
#define SPANNERS_ENGINE_CORPUS_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/document.h"

namespace spanners {
namespace engine {

/// An immutable-after-build, index-addressed document collection.
class Corpus {
 public:
  Corpus() = default;
  explicit Corpus(std::vector<Document> docs) : docs_(std::move(docs)) {}

  /// Splits `text` at `delimiter`, one document per piece. A trailing
  /// delimiter does not produce an extra empty document; interior empty
  /// pieces are kept (an empty document is a valid Σ-string).
  static Corpus FromDelimited(std::string_view text, char delimiter = '\n');

  /// Reads the whole stream and splits at `delimiter`.
  static Corpus FromStream(std::istream& in, char delimiter = '\n');

  /// Reads and splits a file. Fails with kInvalidArgument when unreadable.
  static Result<Corpus> FromFile(const std::string& path,
                                 char delimiter = '\n');

  /// Reads every file of `paths` in order, "-" meaning standard input, and
  /// concatenates their documents. Fails on the first unreadable file.
  static Result<Corpus> FromFiles(const std::vector<std::string>& paths,
                                  char delimiter = '\n');

  void Add(Document doc) { docs_.push_back(std::move(doc)); }

  /// Moves every document of `other` onto the end of this corpus.
  void Append(Corpus&& other);

  size_t size() const { return docs_.size(); }
  bool empty() const { return docs_.empty(); }
  const Document& operator[](size_t i) const { return docs_[i]; }
  const std::vector<Document>& docs() const { return docs_; }

  auto begin() const { return docs_.begin(); }
  auto end() const { return docs_.end(); }

  /// Σ |d_i|: total corpus size in characters.
  size_t TotalBytes() const;

 private:
  std::vector<Document> docs_;
};

/// A contiguous [begin, end) range of corpus indices processed by one task.
struct Shard {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
  bool operator==(const Shard& o) const {
    return begin == o.begin && end == o.end;
  }
};

struct ShardingOptions {
  /// Upper bound on the number of shards (≈ threads × oversubscription so
  /// idle threads claim the next shard when documents are skewed).
  size_t max_shards = 1;
  /// Lower bound on documents per shard; avoids drowning tiny corpora in
  /// scheduling overhead.
  size_t min_docs_per_shard = 16;
};

/// Partitions [0, n) into at most `options.max_shards` contiguous shards,
/// balanced by bytes(i), the size of item i (a shard closes once it holds
/// ≥ total/max_shards bytes and ≥ min_docs_per_shard items). Every item
/// lands in exactly one shard; shards are returned in order. n = 0 → no
/// shards.
template <typename Bytes>
std::vector<Shard> ShardByBytes(size_t n, Bytes bytes,
                                const ShardingOptions& options) {
  std::vector<Shard> shards;
  if (n == 0) return shards;

  const size_t max_shards = options.max_shards == 0 ? 1 : options.max_shards;
  const size_t min_docs =
      options.min_docs_per_shard == 0 ? 1 : options.min_docs_per_shard;
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) total += bytes(i);
  // Byte budget per shard; +1 so the last shard absorbs rounding rather
  // than spilling into a tiny max_shards+1'th shard.
  const size_t budget = total / max_shards + 1;

  Shard current{0, 0};
  size_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += bytes(i);
    current.end = i + 1;
    if (acc >= budget && current.size() >= min_docs &&
        shards.size() + 1 < max_shards) {
      shards.push_back(current);
      current = Shard{i + 1, i + 1};
      acc = 0;
    }
  }
  if (current.size() > 0) shards.push_back(current);
  return shards;
}

/// ShardByBytes over the corpus's documents.
std::vector<Shard> ShardCorpus(const Corpus& corpus,
                               const ShardingOptions& options);

}  // namespace engine
}  // namespace spanners

#endif  // SPANNERS_ENGINE_CORPUS_H_
