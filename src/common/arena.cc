#include "common/arena.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace spanners {

void* Arena::AllocateSlow(size_t bytes, size_t align) {
  total_allocated_ += bytes;
  // Advance through retained chunks until one fits, then bump from it.
  while (current_ < chunks_.size()) {
    size_t offset = (offset_ + (align - 1)) & ~(align - 1);
    if (offset + bytes <= chunks_[current_].capacity) {
      void* p = chunks_[current_].data.get() + offset;
      offset_ = offset + bytes;
      return p;
    }
    used_before_current_ += offset_;
    ++current_;
    offset_ = 0;
  }
  // No retained chunk fits: grow. Oversized requests get a chunk of their
  // own; regular requests follow the geometric schedule.
  size_t chunk_bytes = next_chunk_bytes_;
  if (bytes + align > chunk_bytes) chunk_bytes = bytes + align;
  if (next_chunk_bytes_ < kMaxChunk) next_chunk_bytes_ *= 2;
  chunks_.push_back(Chunk{std::make_unique<char[]>(chunk_bytes), chunk_bytes});
  current_ = chunks_.size() - 1;
  // operator new[] guarantees max_align_t alignment for the chunk base.
  size_t offset = 0;
  uintptr_t base = reinterpret_cast<uintptr_t>(chunks_[current_].data.get());
  offset = ((base + align - 1) & ~(uintptr_t{align} - 1)) - base;
  void* p = chunks_[current_].data.get() + offset;
  offset_ = offset + bytes;
  return p;
}

// ---- group probing ------------------------------------------------------
// The control bytes are matched a group at a time: 16 with one SSE2
// compare, 8 with a SWAR trick on a uint64. Candidate bits may include
// false positives (the SWAR zero-byte trick can flag a byte right after a
// true match) but never miss a real one — every candidate is verified
// against the full hash and key bytes anyway, and the insertion slot is
// re-found with an exact scalar scan.

namespace {

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// memcpy/memcmp wrappers tolerating (nullptr, 0) — the empty mapping is a
// legal key.
void CopyBytes(void* dst, const void* src, size_t n) {
  if (n > 0) std::memcpy(dst, src, n);
}
bool BytesEqual(const void* a, const void* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n) == 0;
}

inline size_t H1(uint64_t hash) { return static_cast<size_t>(hash >> 7); }
inline uint8_t H2(uint64_t hash) { return static_cast<uint8_t>(hash & 0x7f); }

#if defined(__SSE2__)

constexpr size_t kGroupWidth = 16;

// A 16-byte window of control bytes; Match* return one bit per byte.
struct Group {
  __m128i ctrl;

  static Group Load(const uint8_t* p) {
    return Group{_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  uint32_t Match(uint8_t byte) const {
    return static_cast<uint32_t>(_mm_movemask_epi8(
        _mm_cmpeq_epi8(ctrl, _mm_set1_epi8(static_cast<char>(byte)))));
  }
  bool HasEmpty() const { return Match(kCtrlEmpty) != 0; }
};

inline uint32_t LowestBitIndex(uint32_t mask) {
  return static_cast<uint32_t>(__builtin_ctz(mask));
}
inline uint32_t ClearLowestBit(uint32_t mask) { return mask & (mask - 1); }

#else  // SWAR fallback

constexpr size_t kGroupWidth = 8;
constexpr uint64_t kLsbs = 0x0101010101010101ULL;
constexpr uint64_t kMsbs = 0x8080808080808080ULL;

struct Group {
  uint64_t ctrl;

  static Group Load(const uint8_t* p) {
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);  // keep bit-index → byte-index mapping
#endif
    return Group{v};
  }
  // Zero-byte SWAR: a true match always sets its byte's high bit; a byte
  // directly above a match may be flagged spuriously (callers verify).
  uint64_t Match(uint8_t byte) const {
    uint64_t x = ctrl ^ (kLsbs * byte);
    return (x - kLsbs) & ~x & kMsbs;
  }
  bool HasEmpty() const { return Match(kCtrlEmpty) != 0; }
};

inline uint32_t LowestBitIndex(uint64_t mask) {
  return static_cast<uint32_t>(__builtin_ctzll(mask)) / 8;
}
inline uint64_t ClearLowestBit(uint64_t mask) { return mask & (mask - 1); }

#endif

// First empty slot of `group` (exact scalar scan; used only to pick
// insertion slots).
inline size_t FirstFreeInGroup(const uint8_t* ctrl, size_t group_base) {
  for (size_t i = 0; i < kGroupWidth; ++i)
    if (ctrl[group_base + i] == kCtrlEmpty) return group_base + i;
  return SIZE_MAX;
}

inline size_t TableCapacity(size_t requested) {
  return NextPow2(requested < kGroupWidth ? kGroupWidth : requested);
}

inline uint8_t* NewCtrl(Arena* arena, size_t capacity) {
  uint8_t* ctrl = arena->AllocateArray<uint8_t>(capacity);
  std::memset(ctrl, kCtrlEmpty, capacity);
  return ctrl;
}

}  // namespace

// ---- FlatKeySet ---------------------------------------------------------

FlatKeySet::FlatKeySet(Arena* arena, size_t initial_capacity)
    : arena_(arena), capacity_(TableCapacity(initial_capacity)) {
  slots_ = arena_->AllocateArray<Slot>(capacity_);
  ctrl_ = NewCtrl(arena_, capacity_);
}

std::pair<const char*, bool> FlatKeySet::InsertHashed(uint64_t hash,
                                                      const char* bytes,
                                                      uint32_t len) {
  if ((size_ + 1) * 8 >= capacity_ * 7) Rehash(capacity_ * 2);

  const uint8_t h2 = H2(hash);
  const size_t group_mask = capacity_ / kGroupWidth - 1;
  size_t g = H1(hash) & group_mask;
  for (;;) {
    const size_t base = g * kGroupWidth;
    Group group = Group::Load(ctrl_ + base);
    for (auto m = group.Match(h2); m != 0; m = ClearLowestBit(m)) {
      const size_t idx = base + LowestBitIndex(m);
      const Slot& s = slots_[idx];
      if (ctrl_[idx] == h2 && s.hash == hash && s.len == len &&
          BytesEqual(s.bytes, bytes, len))
        return {s.bytes, false};
    }
    if (group.HasEmpty()) {
      // This is the first group with an empty slot on the probe path, so
      // the key is absent and belongs here (neither set deletes).
      const size_t idx = FirstFreeInGroup(ctrl_, base);
      char* copy = arena_->AllocateArray<char>(len);
      CopyBytes(copy, bytes, len);
      slots_[idx] = Slot{hash, copy, len};
      ctrl_[idx] = h2;
      ++size_;
      return {copy, true};
    }
    g = (g + 1) & group_mask;
  }
}

void FlatKeySet::Rehash(size_t new_capacity) {
  Slot* old_slots = slots_;
  uint8_t* old_ctrl = ctrl_;
  const size_t old_cap = capacity_;
  capacity_ = new_capacity;
  slots_ = arena_->AllocateArray<Slot>(capacity_);
  ctrl_ = NewCtrl(arena_, capacity_);
  ++rehashes_;

  const size_t group_mask = capacity_ / kGroupWidth - 1;
  for (size_t i = 0; i < old_cap; ++i) {
    if (old_ctrl[i] >= kCtrlEmpty) continue;
    const Slot& s = old_slots[i];
    size_t g = H1(s.hash) & group_mask;
    for (;;) {
      const size_t base = g * kGroupWidth;
      if (Group::Load(ctrl_ + base).HasEmpty()) {
        const size_t idx = FirstFreeInGroup(ctrl_, base);
        slots_[idx] = s;
        ctrl_[idx] = H2(s.hash);
        break;
      }
      g = (g + 1) & group_mask;
    }
  }
}

// ---- FlatMappingSet -----------------------------------------------------

FlatMappingSet::FlatMappingSet(Arena* arena, size_t initial_capacity)
    : arena_(arena), capacity_(TableCapacity(initial_capacity)) {
  slots_ = arena_->AllocateArray<Slot>(capacity_);
  ctrl_ = NewCtrl(arena_, capacity_);
}

bool FlatMappingSet::Contains(const SpanTuple* tuples, uint32_t n) const {
  const uint64_t hash = Hash(tuples, n);
  const uint8_t h2 = H2(hash);
  const size_t group_mask = capacity_ / kGroupWidth - 1;
  size_t g = H1(hash) & group_mask;
  for (;;) {
    const size_t base = g * kGroupWidth;
    Group group = Group::Load(ctrl_ + base);
    for (auto m = group.Match(h2); m != 0; m = ClearLowestBit(m)) {
      const size_t idx = base + LowestBitIndex(m);
      const Slot& s = slots_[idx];
      if (ctrl_[idx] == h2 && s.hash == hash && s.len == n &&
          BytesEqual(s.tuples, tuples, n * sizeof(SpanTuple)))
        return true;
    }
    if (group.HasEmpty()) return false;  // an empty slot ends the probe
    g = (g + 1) & group_mask;
  }
}

bool FlatMappingSet::InsertHashed(uint64_t hash, const SpanTuple* tuples,
                                  uint32_t n) {
  if ((size_ + 1) * 8 >= capacity_ * 7) Rehash(capacity_ * 2);

  const uint8_t h2 = H2(hash);
  const size_t group_mask = capacity_ / kGroupWidth - 1;
  size_t g = H1(hash) & group_mask;
  for (;;) {
    const size_t base = g * kGroupWidth;
    Group group = Group::Load(ctrl_ + base);
    for (auto m = group.Match(h2); m != 0; m = ClearLowestBit(m)) {
      const size_t idx = base + LowestBitIndex(m);
      const Slot& s = slots_[idx];
      if (ctrl_[idx] == h2 && s.hash == hash && s.len == n &&
          BytesEqual(s.tuples, tuples, n * sizeof(SpanTuple)))
        return false;
    }
    if (group.HasEmpty()) {
      const size_t idx = FirstFreeInGroup(ctrl_, base);
      SpanTuple* copy = arena_->AllocateArray<SpanTuple>(n);
      CopyBytes(copy, tuples, n * sizeof(SpanTuple));
      slots_[idx] = Slot{hash, copy, n};
      ctrl_[idx] = h2;
      ++size_;
      return true;
    }
    g = (g + 1) & group_mask;
  }
}

void FlatMappingSet::Rehash(size_t new_capacity) {
  Slot* old_slots = slots_;
  uint8_t* old_ctrl = ctrl_;
  const size_t old_cap = capacity_;
  capacity_ = new_capacity;
  slots_ = arena_->AllocateArray<Slot>(capacity_);
  ctrl_ = NewCtrl(arena_, capacity_);
  ++rehashes_;

  const size_t group_mask = capacity_ / kGroupWidth - 1;
  for (size_t i = 0; i < old_cap; ++i) {
    if (old_ctrl[i] >= kCtrlEmpty) continue;
    const Slot& s = old_slots[i];
    size_t g = H1(s.hash) & group_mask;
    for (;;) {
      const size_t base = g * kGroupWidth;
      if (Group::Load(ctrl_ + base).HasEmpty()) {
        const size_t idx = FirstFreeInGroup(ctrl_, base);
        slots_[idx] = s;
        ctrl_[idx] = H2(s.hash);
        break;
      }
      g = (g + 1) & group_mask;
    }
  }
}

}  // namespace spanners
