// Lazy determinization of VA letter behaviour (the engine's membership
// fast path). The VA's variable operations are relaxed to ε, which leaves
// a classical NFA over the letter transitions; its subset construction is
// materialized on the fly, one transition at a time, over an
// atom-compressed alphabet (PartitionAtoms refines every letter CharSet
// into disjoint atoms; a 256-entry byte→atom table classifies input
// bytes). The resulting DFA decides in one table lookup per byte whether
// ⟦A⟧_doc can be non-empty:
//
//  - for a *sequential* VA the relaxation is exact: runs are structurally
//    op-consistent, so DFA acceptance ⟺ NonEmp (the Theorem 5.7 state-set
//    simulation collapses to cached table lookups);
//  - for an arbitrary VA it is a sound over-approximation: every real run
//    is a run of the relaxed NFA, so "no DFA match" still proves
//    ⟦A⟧_doc = ∅. The engine only acts on the negative answer when the
//    VA is not sequential.
//
// The cache is one flat transition table shared across documents and
// threads. State ids are premultiplied row offsets, so a warm step is
// `next = table_[cur + atom]`. Row 0 is the dead state and row 1 the
// start state.
//
// Memory is bounded (max states / table bytes). When a new state would
// cross a bound, the cache is cleared down to the dead and start states,
// the scan's current subset is re-interned, and the scan continues from
// there — never from the top of the document. A call answers "unknown"
// (the caller decides by NFA state-set simulation) only when even a
// cleared cache cannot hold the dead, start, current and next states.
//
// Lock protocol: a call walks cached transitions under the shared lock.
// Its first miss copies the current state's subset, trades the shared
// lock for the exclusive one, re-enters the cache by that subset (a clear
// may have run while no lock was held) and finishes the document under
// the exclusive lock. No state id outlives a lock it was read under.
#ifndef SPANNERS_AUTOMATA_LAZY_DFA_H_
#define SPANNERS_AUTOMATA_LAZY_DFA_H_

#include <cstdint>
#include <map>
#include <optional>
#include <shared_mutex>
#include <string_view>
#include <vector>

#include "automata/va.h"
#include "common/cancel.h"

namespace spanners {

struct LazyDfaOptions {
  /// Upper bound on resident DFA states; crossing it clears the cache.
  size_t max_states = 4096;
  /// Upper bound on transition-table bytes; crossing it clears the cache.
  size_t max_table_bytes = size_t{16} << 20;
};

struct LazyDfaStats {
  size_t num_atoms = 0;    // alphabet atoms (excluding the dead class)
  size_t num_states = 0;   // resident DFA states
  uint64_t misses = 0;     // transitions computed (cache extensions)
  uint64_t evictions = 0;  // states dropped by clears at the memory bound
  uint64_t fallbacks = 0;  // calls answered "unknown" (caller simulates)
};

class LazyDfa {
 public:
  explicit LazyDfa(const VA& a, LazyDfaOptions options = {});

  LazyDfa(const LazyDfa&) = delete;
  LazyDfa& operator=(const LazyDfa&) = delete;

  /// Whether the relaxed NFA accepts `text` — amortized one byte→atom
  /// classification plus one table lookup per byte. Thread-safe; the
  /// per-plan transition cache grows across calls and is shared by every
  /// calling thread. nullopt when even a cleared cache cannot hold the
  /// states this call needs: the caller must decide by NFA simulation.
  /// Later calls try again — an unknown is per-call, never sticky.
  /// A tripped `cancel` token also yields nullopt (polled once per
  /// CancelGauge::kScanChunkBytes input bytes); callers that would react
  /// to nullopt by simulating must check the token first — after a trip
  /// the right move is to abort, not to fall back.
  std::optional<bool> Matches(std::string_view text,
                              CancelToken* cancel = nullptr) const;

  size_t num_atoms() const { return atoms_.size(); }
  LazyDfaStats stats() const;

 private:
  static constexpr uint32_t kDead = 0;
  static constexpr uint32_t kUnknown = UINT32_MAX;  // not cached / no room
  enum class Walk { kDone, kMiss, kCancelled };

  /// Closure of `subset` under ε and (relaxed) variable-op transitions;
  /// returns the sorted, deduplicated result.
  std::vector<StateId> Closure(std::vector<StateId> subset) const;

  /// Follows cached transitions from `*cur` over text[*pos..], polling
  /// `cancel` at each kScanChunkBytes boundary. Stops at the end of the
  /// text or the dead state (kDone), or before the first byte whose
  /// transition is not cached (kMiss). Precondition: either lock held.
  Walk Follow(std::string_view text, size_t* pos, uint32_t* cur,
              CancelToken* cancel) const;

  /// The id of `subset` (closed, sorted), appending a row for it when
  /// unseen; kUnknown when a new row would cross a bound. Precondition:
  /// exclusive lock held (const: cache members are mutable).
  uint32_t Intern(const std::vector<StateId>& subset) const;

  /// Drops every row but the dead and start states. Precondition:
  /// exclusive lock held.
  void Clear() const;

  /// Computes and caches the transition of `*cur` on `atom`. When the
  /// target does not fit, clears the cache and re-interns `*cur`'s subset
  /// (updating `*cur`) first. kUnknown when even a cleared cache cannot
  /// hold both. Precondition: exclusive lock held.
  uint32_t Extend(uint32_t* cur, uint32_t atom) const;

  bool accepting(uint32_t id) const { return accepting_[id / stride_]; }

  // Owned copy: plans embedding a LazyDfa stay movable (a reference into
  // the embedding object would dangle after a move).
  const VA va_;
  const LazyDfaOptions options_;
  std::vector<CharSet> atoms_;     // disjoint; atom id = index + 1
  uint16_t byte_to_atom_[256];     // 0 = dead class
  uint32_t stride_;                // row width: atoms_.size() + 1
  std::vector<StateId> start_subset_;

  mutable std::shared_mutex mu_;
  // Row r spans table_[r * stride_, (r + 1) * stride_). Column 0 is the
  // dead class and holds kDead, except in the dead row, which holds only
  // kUnknown (see Clear).
  mutable std::vector<uint32_t> table_;
  mutable std::vector<uint8_t> accepting_;  // per row
  // Row → its key in interned_ (map nodes never move).
  mutable std::vector<const std::vector<StateId>*> subsets_;
  mutable std::map<std::vector<StateId>, uint32_t> interned_;
  mutable size_t table_bytes_ = 0;
  mutable uint64_t misses_ = 0;
  mutable uint64_t evictions_ = 0;
  mutable uint64_t fallbacks_ = 0;
};

}  // namespace spanners

#endif  // SPANNERS_AUTOMATA_LAZY_DFA_H_
