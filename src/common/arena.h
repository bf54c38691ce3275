// Per-extraction memory subsystem: a bump-pointer Arena with chunked
// growth and O(1) Reset() reuse, an ArenaVector<T> for run frontiers, and
// flat open-addressing sets (FlatKeySet, FlatMappingSet) that replace the
// node-allocating std::unordered_set in the evaluator hot paths. One arena
// serves one extraction at a time; the engine keeps one per worker thread
// and Reset()s it (retaining the chunks) between documents of a shard, so
// steady-state extraction performs no heap allocation at all.
#ifndef SPANNERS_COMMON_ARENA_H_
#define SPANNERS_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace spanners {

/// A bump-pointer allocator. Memory is carved from geometrically growing
/// chunks; individual allocations are never freed. Reset() rewinds the
/// bump pointer to the first chunk while *retaining* every chunk, so a
/// reused arena reaches a high-water mark once and then stops touching
/// malloc entirely. Not thread-safe; use one arena per thread.
class Arena {
 public:
  static constexpr size_t kDefaultFirstChunk = 4096;
  static constexpr size_t kMaxChunk = size_t{8} << 20;  // growth cap

  explicit Arena(size_t first_chunk_bytes = kDefaultFirstChunk)
      : next_chunk_bytes_(first_chunk_bytes < 64 ? 64 : first_chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// `bytes` of storage aligned to `align` (a power of two). The memory is
  /// uninitialized and valid until the next Reset(). Allocate(0) returns a
  /// valid unique-use pointer.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    size_t offset = (offset_ + (align - 1)) & ~(align - 1);
    if (current_ < chunks_.size() && offset + bytes <= chunks_[current_].capacity) {
      void* p = chunks_[current_].data.get() + offset;
      offset_ = offset + bytes;
      total_allocated_ += bytes;
      return p;
    }
    return AllocateSlow(bytes, align);
  }

  /// Uninitialized storage for `n` objects of trivially destructible T.
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Rewinds to empty while keeping every chunk for reuse. O(1).
  void Reset() {
    used_before_current_ = 0;
    current_ = 0;
    offset_ = 0;
  }

  /// Bytes handed out since the last Reset (excluding alignment padding is
  /// not attempted; this counts bump-pointer advancement).
  size_t bytes_used() const { return used_before_current_ + offset_; }
  /// Total chunk capacity held (survives Reset).
  size_t bytes_reserved() const {
    size_t total = 0;
    for (const Chunk& c : chunks_) total += c.capacity;
    return total;
  }
  size_t num_chunks() const { return chunks_.size(); }
  /// Lifetime-cumulative bytes handed out; never rewound by Reset().
  /// Deltas of this counter feed per-evaluation memory budgets
  /// (common/cancel.h): enumeration churn keeps allocating through
  /// per-oracle-call Resets, so bytes_used() alone would never see it.
  uint64_t TotalAllocatedBytes() const { return total_allocated_; }

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t capacity;
  };

  void* AllocateSlow(size_t bytes, size_t align);

  std::vector<Chunk> chunks_;
  size_t current_ = 0;  // chunk being bumped; == chunks_.size() when none
  size_t offset_ = 0;   // bump offset inside chunks_[current_]
  size_t used_before_current_ = 0;
  size_t next_chunk_bytes_;
  uint64_t total_allocated_ = 0;
};

/// A minimal vector whose storage lives in an Arena: push_back/pop_back,
/// indexing, clear. Growth allocates a fresh doubled array from the arena
/// (the old one becomes arena garbage until Reset — bounded by 2× the peak
/// size). Restricted to trivially copyable element types so growth is a
/// memcpy and Reset needs no destructors.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ArenaVector elements must be trivially copyable");

 public:
  explicit ArenaVector(Arena* arena) : arena_(arena) {}

  void push_back(const T& v) {
    if (size_ == capacity_) Grow(size_ + 1);
    data_[size_++] = v;
  }
  void pop_back() { --size_; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void append(const T* src, size_t n) {
    if (size_ + n > capacity_) Grow(size_ + n);
    std::memcpy(data_ + size_, src, n * sizeof(T));
    size_ += n;
  }
  /// Sets the size to `n`, value-initializing any newly exposed elements.
  void resize(size_t n) {
    if (n > capacity_) Grow(n);
    if (n > size_) std::memset(data_ + size_, 0, (n - size_) * sizeof(T));
    size_ = n;
  }
  void assign(size_t n, const T& fill) {
    if (n > capacity_) Grow(n);
    for (size_t i = 0; i < n; ++i) data_[i] = fill;
    size_ = n;
  }
  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }
  void clear() { size_ = 0; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void Grow(size_t need) {
    size_t cap = capacity_ == 0 ? 8 : capacity_ * 2;
    while (cap < need) cap *= 2;
    T* fresh = arena_->AllocateArray<T>(cap);
    if (size_ > 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    data_ = fresh;
    capacity_ = cap;
  }

  Arena* arena_;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

/// The shared hash of the flat sets: a Murmur-inspired word-at-a-time
/// mix (8 input bytes per multiply instead of FNV's one — evaluator keys
/// are tens of bytes, so hashing is a visible part of probe cost).
inline uint64_t HashBytes64(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const uint64_t mul = 0x9ddfea08eb382d69ULL;
  uint64_t h = 0xcbf29ce484222325ULL ^ (static_cast<uint64_t>(n) * mul);
  while (n >= 8) {
    uint64_t k;
    std::memcpy(&k, p, 8);
    k *= mul;
    k ^= k >> 47;
    h = (h ^ k) * mul;
    p += 8;
    n -= 8;
  }
  uint64_t tail = 0;  // endianness-independent partial-word load
  for (size_t i = 0; i < n; ++i)
    tail |= static_cast<uint64_t>(p[i]) << (8 * i);
  if (n > 0) h = (h ^ (tail * mul)) * mul;
  // Finalize so low bits (slot masks) and bits 0-6 (H2 tags) depend on
  // every input byte.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

// ---- group-probed flat sets (SwissTable-style) --------------------------
// Both flat sets keep a control byte per slot in a separate dense array:
// 0x80 = empty, otherwise the low 7 bits of the key's hash ("H2").
// Probing inspects the control bytes a *group* at a time — 16 bytes with
// one SSE2 compare, 8 bytes with a SWAR trick on a uint64 load — so a
// lookup touches the wide Slot array only for the rare control-byte
// candidates, instead of walking Slot-sized strides.

/// Control byte marking an empty slot (high bit set, never equals an H2).
inline constexpr uint8_t kCtrlEmpty = 0x80;

/// An insert-only set of byte strings with group-probed open addressing.
/// Key bytes are copied once into the arena; Insert returns a pointer to
/// the stored copy, which stays valid across rehashes (only the slot table
/// moves). Replaces std::unordered_set<std::string> for visited-config
/// dedup in the evaluators.
class FlatKeySet {
 public:
  explicit FlatKeySet(Arena* arena, size_t initial_capacity = 64);

  /// Returns {stored key bytes, true} when newly inserted, or
  /// {previously stored bytes, false} when already present.
  std::pair<const char*, bool> Insert(const char* bytes, uint32_t len) {
    return InsertHashed(HashBytes64(bytes, len), bytes, len);
  }
  std::pair<const char*, bool> InsertHashed(uint64_t hash, const char* bytes,
                                            uint32_t len);

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  size_t rehash_count() const { return rehashes_; }

 private:
  struct Slot {
    uint64_t hash;
    const char* bytes;
    uint32_t len;
  };

  void Rehash(size_t new_capacity);

  Arena* arena_;
  Slot* slots_;
  uint8_t* ctrl_;    // capacity_ control bytes
  size_t capacity_;  // power of two, ≥ the probe group width
  size_t size_ = 0;
  size_t rehashes_ = 0;
};

/// One (variable, span) pair of a candidate mapping, as a flat POD so the
/// set never touches Mapping's heap-backed entry vector on the hot path.
struct SpanTuple {
  uint32_t var;
  uint32_t begin;
  uint32_t end;

  bool operator==(const SpanTuple& o) const {
    return var == o.var && begin == o.begin && end == o.end;
  }
};

/// An insert-only deduplicating set of span-tuple lists (flat mappings):
/// group-probed open addressing with precomputed tuple hashing. Tuple
/// storage, the slot table and the control bytes all live in the arena.
class FlatMappingSet {
 public:
  explicit FlatMappingSet(Arena* arena, size_t initial_capacity = 32);

  /// `tuples` must be sorted by var (the canonical mapping order).
  /// Returns true when the mapping was new.
  bool Insert(const SpanTuple* tuples, uint32_t n) {
    return InsertHashed(Hash(tuples, n), tuples, n);
  }
  bool InsertHashed(uint64_t hash, const SpanTuple* tuples, uint32_t n);

  bool Contains(const SpanTuple* tuples, uint32_t n) const;

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  size_t rehash_count() const { return rehashes_; }

  /// Visits every stored mapping as (const SpanTuple*, uint32_t count).
  template <typename F>
  void ForEach(F&& f) const {
    for (size_t i = 0; i < capacity_; ++i)
      if (ctrl_[i] < kCtrlEmpty)  // live slots carry an H2 in [0, 0x7F]
        f(slots_[i].tuples, slots_[i].len);
  }

  static uint64_t Hash(const SpanTuple* tuples, uint32_t n) {
    return HashBytes64(tuples, n * sizeof(SpanTuple));
  }

 private:
  struct Slot {
    uint64_t hash;
    const SpanTuple* tuples;
    uint32_t len;
  };

  void Rehash(size_t new_capacity);

  Arena* arena_;
  Slot* slots_;
  uint8_t* ctrl_;    // capacity_ control bytes
  size_t capacity_;  // power of two, ≥ the probe group width
  size_t size_ = 0;
  size_t rehashes_ = 0;
};

}  // namespace spanners

#endif  // SPANNERS_COMMON_ARENA_H_
