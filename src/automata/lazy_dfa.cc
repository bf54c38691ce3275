#include "automata/lazy_dfa.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "automata/determinize.h"
#include "common/logging.h"
#include "obs/span.h"

namespace spanners {

namespace {

// Table + subset footprint of one state.
size_t StateBytes(size_t stride, size_t subset_size) {
  return stride * sizeof(uint32_t) + subset_size * sizeof(StateId);
}

/// Writer-lock waits of every lazy DFA in the process: the one place
/// contention on a transition cache becomes visible. The cache's counts
/// live in each instance's LazyDfaStats.
obs::Histogram* LockWaitHistogram() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("lazy_dfa.lock_wait_ns");
  return h;
}

}  // namespace

LazyDfa::LazyDfa(const VA& a, LazyDfaOptions options)
    : va_(a), options_(options) {
  // Atom-compress the alphabet: every letter CharSet of the VA behaves
  // uniformly on each atom, so one representative byte per atom decides
  // charset membership for all 256 bytes mapped to it.
  std::vector<CharSet> charsets;
  for (StateId q = 0; q < a.NumStates(); ++q)
    for (const VaTransition& t : a.TransitionsFrom(q))
      if (t.kind == TransKind::kChars) charsets.push_back(t.chars);
  atoms_ = PartitionAtoms(charsets);

  for (int b = 0; b < 256; ++b) byte_to_atom_[b] = 0;
  for (size_t i = 0; i < atoms_.size(); ++i)
    for (int b = 0; b < 256; ++b)
      if (atoms_[i].Contains(static_cast<char>(b)))
        byte_to_atom_[b] = static_cast<uint16_t>(i + 1);

  stride_ = static_cast<uint32_t>(atoms_.size() + 1);
  start_subset_ = Closure({a.initial()});
  Clear();
  SPANNERS_CHECK(accepting_.size() == 2)
      << "lazy-DFA bounds too small for even the start state";
}

std::vector<StateId> LazyDfa::Closure(std::vector<StateId> subset) const {
  // BFS under ε and relaxed variable operations. `in` doubles as the
  // visited set; `subset` is the work list.
  std::vector<uint8_t> in(va_.NumStates(), 0);
  for (StateId q : subset) in[q] = 1;
  for (size_t head = 0; head < subset.size(); ++head) {
    StateId q = subset[head];
    for (const VaTransition& t : va_.TransitionsFrom(q)) {
      if (t.kind == TransKind::kChars) continue;
      if (!in[t.to]) {
        in[t.to] = 1;
        subset.push_back(t.to);
      }
    }
  }
  std::sort(subset.begin(), subset.end());
  return subset;
}

uint32_t LazyDfa::Intern(const std::vector<StateId>& subset) const {
  auto it = interned_.find(subset);
  if (it != interned_.end()) return it->second;
  const size_t bytes = StateBytes(stride_, subset.size());
  if (accepting_.size() >= options_.max_states ||
      table_bytes_ + bytes > options_.max_table_bytes)
    return kUnknown;

  const uint32_t id = static_cast<uint32_t>(table_.size());
  it = interned_.emplace(subset, id).first;
  subsets_.push_back(&it->first);
  accepting_.push_back(std::any_of(subset.begin(), subset.end(),
                                   [&](StateId q) { return va_.IsFinal(q); }));
  table_.resize(table_.size() + stride_, kUnknown);
  table_[id] = kDead;
  table_bytes_ += bytes;
  return id;
}

void LazyDfa::Clear() const {
  // The start row is rebuilt too: its entries may name dropped states.
  const size_t dropped = accepting_.size() > 2 ? accepting_.size() - 2 : 0;
  evictions_ += dropped;
  table_.clear();
  accepting_.clear();
  subsets_.clear();
  interned_.clear();
  table_bytes_ = 0;
  // The dead row holds only kUnknown, so a scan standing on it leaves
  // the warm loop on its next byte and answers false (see Follow).
  if (Intern({}) == kDead) std::fill_n(table_.begin(), stride_, kUnknown);
  Intern(start_subset_);
}

uint32_t LazyDfa::Extend(uint32_t* cur, uint32_t atom) const {
  SPANNERS_DCHECK(atom > 0 && atom < stride_);
  ++misses_;
  // Atoms refine every letter CharSet, so one representative byte decides
  // whether the whole atom is inside a transition's class.
  const char rep = atoms_[atom - 1].AnyMember();
  std::vector<StateId> next;
  for (StateId q : *subsets_[*cur / stride_])
    for (const VaTransition& t : va_.TransitionsFrom(q))
      if (t.kind == TransKind::kChars && t.chars.Contains(rep))
        next.push_back(t.to);
  std::sort(next.begin(), next.end());
  next.erase(std::unique(next.begin(), next.end()), next.end());
  next = Closure(std::move(next));

  uint32_t to = Intern(next);
  if (to == kUnknown) {
    // Full: clear, stand on the current subset again, and retry there.
    const std::vector<StateId> here = *subsets_[*cur / stride_];
    Clear();
    *cur = Intern(here);
    if (*cur == kUnknown) return kUnknown;
    to = Intern(next);
  }
  if (to != kUnknown) table_[*cur + atom] = to;
  return to;
}

LazyDfa::Walk LazyDfa::Follow(std::string_view text, size_t* pos,
                              uint32_t* cur, CancelToken* cancel) const {
  constexpr size_t kChunk = CancelGauge::kScanChunkBytes;
  const uint32_t* table = table_.data();
  uint32_t s = *cur;
  for (size_t i = *pos; i < text.size();) {
    // Poll once per chunk, not per byte: the check stays off the per-byte
    // fast path. Tripped ⇒ nullopt; the caller must consult the token
    // before treating this as a capacity fallback.
    if (cancel != nullptr && i % kChunk == 0 && cancel->Poll(0))
      return Walk::kCancelled;
    const size_t end = std::min(text.size(), i - i % kChunk + kChunk);
    for (; i < end; ++i) {
      const uint32_t next =
          table[s + byte_to_atom_[static_cast<unsigned char>(text[i])]];
      if (next == kUnknown) {  // a miss, or the dead row (see Clear)
        *pos = i;
        *cur = s;
        return s == kDead ? Walk::kDone : Walk::kMiss;
      }
      s = next;
    }
  }
  *cur = s;
  return Walk::kDone;
}

std::optional<bool> LazyDfa::Matches(std::string_view text,
                                     CancelToken* cancel) const {
  size_t pos = 0;
  uint32_t cur = stride_;  // the start state: row 1
  std::vector<StateId> subset;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    const Walk walk = Follow(text, &pos, &cur, cancel);
    if (walk == Walk::kCancelled) return std::nullopt;
    if (walk == Walk::kDone) return accepting(cur);
    // First miss: carry the subset, not the id, across the unlocked
    // window — a clear may run before the exclusive lock is ours.
    subset = *subsets_[cur / stride_];
  }
  const uint64_t wait_start = obs::Enabled() ? obs::NowNanos() : 0;
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (wait_start != 0)
    LockWaitHistogram()->Record(obs::NowNanos() - wait_start);
  cur = Intern(subset);
  if (cur == kUnknown) {  // a clear ran while unlocked and left no room
    Clear();
    cur = Intern(subset);
  }
  while (cur != kUnknown) {
    const Walk walk = Follow(text, &pos, &cur, cancel);
    if (walk == Walk::kCancelled) return std::nullopt;
    if (walk == Walk::kDone) return accepting(cur);
    const uint32_t atom = byte_to_atom_[static_cast<unsigned char>(text[pos])];
    if (Extend(&cur, atom) == kUnknown) break;
  }
  // Even a cleared cache cannot hold this call's states: the caller
  // simulates; later calls start over.
  ++fallbacks_;
  return std::nullopt;
}

LazyDfaStats LazyDfa::stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  LazyDfaStats s;
  s.num_atoms = atoms_.size();
  s.num_states = accepting_.size();
  s.misses = misses_;
  s.evictions = evictions_;
  s.fallbacks = fallbacks_;
  return s;
}

}  // namespace spanners
