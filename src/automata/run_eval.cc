#include "automata/run_eval.h"

#include <algorithm>
#include <cstring>

#include "common/arena.h"
#include "common/logging.h"

namespace spanners {

namespace {

// Per-variable run status. kUnopened < kOpen < kClosed is the only legal
// progression; the open/close positions feed the produced mapping.
struct VarStatus {
  enum Phase : uint8_t { kUnopened, kOpen, kClosed };
  uint8_t phase = kUnopened;
  Pos open_at = 0;
  Pos close_at = 0;
};

// A configuration of the run search. The status and open-stack arrays live
// in the arena; the struct itself is a trivially copyable handle so the
// DFS stack can be an ArenaVector.
struct Config {
  StateId state;
  Pos pos;
  VarStatus* statuses;   // arena array, one per local var index
  uint32_t* open_stack;  // arena array of local var indexes, stack order
  uint32_t open_len;
};

// Canonical key bytes of a configuration: state, pos, every status, then
// the open stack — written into a reused buffer, no allocation per probe.
// The optional patch (status `patch` at index `patched`, var `pushed`
// appended to / `removed` filtered from the open stack) lets successor
// configurations be keyed without materializing their arrays; this
// function is the single owner of the key layout.
uint32_t WriteKey(char* out, StateId state, Pos pos, const VarStatus* st,
                  uint32_t k, const uint32_t* open, uint32_t open_len,
                  int patched = -1, VarStatus patch = VarStatus{},
                  int pushed = -1, int removed = -1) {
  char* p = out;
  std::memcpy(p, &state, 4);
  p += 4;
  std::memcpy(p, &pos, 4);
  p += 4;
  for (uint32_t i = 0; i < k; ++i) {
    const VarStatus& s = static_cast<int>(i) == patched ? patch : st[i];
    *p++ = static_cast<char>(s.phase);
    std::memcpy(p, &s.open_at, 4);
    p += 4;
    std::memcpy(p, &s.close_at, 4);
    p += 4;
  }
  for (uint32_t j = 0; j < open_len; ++j) {
    if (static_cast<int>(open[j]) == removed) continue;
    std::memcpy(p, &open[j], 4);
    p += 4;
  }
  if (pushed >= 0) {
    uint32_t v = static_cast<uint32_t>(pushed);
    std::memcpy(p, &v, 4);
    p += 4;
  }
  return static_cast<uint32_t>(p - out);
}

// Shared search over configurations; `stack_discipline` switches between
// VA and VAstk close rules. All transient state — visited keys, the DFS
// stack, candidate buffers, result dedup — lives in `arena`; only the
// final Mappings pushed into `sink` touch the heap, and even those reuse
// pooled entry vectors when the sink exposes a pool.
void ExploreTo(const VA& a, const Document& doc, bool stack_discipline,
               Arena& arena, MappingSink& sink, const std::vector<VarId>& vars,
               CancelToken* cancel) {
  CancelGauge gauge(cancel, &arena);
  const uint32_t k = static_cast<uint32_t>(vars.size());
  auto local_index = [&vars](VarId x) -> uint32_t {
    auto it = std::lower_bound(vars.begin(), vars.end(), x);
    SPANNERS_CHECK(it != vars.end() && *it == x);
    return static_cast<uint32_t>(it - vars.begin());
  };

  FlatKeySet seen(&arena, 256);
  FlatMappingSet results(&arena);
  ArenaVector<Config> stack(&arena);
  // Scratch reused for every candidate: key bytes and output tuples.
  char* keybuf = arena.AllocateArray<char>(8 + 9 * size_t{k} + 4 * size_t{k});
  SpanTuple* tuples = arena.AllocateArray<SpanTuple>(k);

  VarStatus* st0 = arena.AllocateArray<VarStatus>(k);
  for (uint32_t i = 0; i < k; ++i) st0[i] = VarStatus{};
  uint32_t* open0 = arena.AllocateArray<uint32_t>(0);
  Config start{a.initial(), 1, st0, open0, 0};
  uint32_t len0 = WriteKey(keybuf, start.state, start.pos, st0, k, open0, 0);
  seen.Insert(keybuf, len0);
  stack.push_back(start);

  while (!stack.empty()) {
    // Tripped ⇒ the partial result set is garbage; the caller converts
    // the token into a Status and surfaces no rows.
    if (gauge.ShouldStop()) return;
    Config c = stack.back();
    stack.pop_back();

    if (a.IsFinal(c.state) && c.pos == doc.length() + 1) {
      uint32_t nt = 0;
      for (uint32_t i = 0; i < k; ++i)
        if (c.statuses[i].phase == VarStatus::kClosed)
          tuples[nt++] =
              SpanTuple{vars[i], c.statuses[i].open_at, c.statuses[i].close_at};
      results.Insert(tuples, nt);  // vars[] ascending keeps tuples sorted
      // Keep exploring: other runs may leave this configuration.
    }

    for (const VaTransition& t : a.TransitionsFrom(c.state)) {
      // Describe the successor as (base config, patch) and key it without
      // materializing; the arrays are copied only for genuinely new
      // configurations.
      Pos next_pos = c.pos;
      int patched = -1;  // local var index whose status changes
      VarStatus patch{};
      int pushed = -1;   // var index appended to the open stack
      int removed = -1;  // var index removed from the open stack
      switch (t.kind) {
        case TransKind::kChars:
          if (c.pos > doc.length() || !t.chars.Contains(doc.at(c.pos)))
            continue;
          next_pos = c.pos + 1;
          break;
        case TransKind::kEpsilon:
          break;
        case TransKind::kOpen: {
          uint32_t i = local_index(t.var);
          if (c.statuses[i].phase != VarStatus::kUnopened) continue;
          patched = static_cast<int>(i);
          patch.phase = VarStatus::kOpen;
          patch.open_at = c.pos;
          pushed = static_cast<int>(i);
          break;
        }
        case TransKind::kClose: {
          uint32_t i = local_index(t.var);
          if (c.statuses[i].phase != VarStatus::kOpen) continue;
          if (stack_discipline &&
              (c.open_len == 0 || c.open_stack[c.open_len - 1] != i))
            continue;  // only the top of the stack may close
          patched = static_cast<int>(i);
          patch = c.statuses[i];
          patch.phase = VarStatus::kClosed;
          patch.close_at = c.pos;
          removed = static_cast<int>(i);
          break;
        }
      }

      uint32_t key_len =
          WriteKey(keybuf, t.to, next_pos, c.statuses, k, c.open_stack,
                   c.open_len, patched, patch, pushed, removed);
      if (!seen.Insert(keybuf, key_len).second) continue;

      // New configuration: materialize the patched arrays in the arena.
      Config next{t.to, next_pos, c.statuses, c.open_stack, c.open_len};
      if (patched >= 0) {
        VarStatus* st = arena.AllocateArray<VarStatus>(k);
        std::memcpy(st, c.statuses, k * sizeof(VarStatus));
        st[patched] = patch;
        next.statuses = st;
        uint32_t* open = arena.AllocateArray<uint32_t>(k);
        uint32_t m = 0;
        for (uint32_t j = 0; j < c.open_len; ++j)
          if (static_cast<int>(c.open_stack[j]) != removed)
            open[m++] = c.open_stack[j];
        if (pushed >= 0) open[m++] = static_cast<uint32_t>(pushed);
        next.open_stack = open;
        next.open_len = m;
      }
      stack.push_back(next);
    }
  }

  MappingPool* pool = sink.pool();
  results.ForEach([&](const SpanTuple* tp, uint32_t n) {
    std::vector<Mapping::Entry> entries = MappingPool::AcquireFrom(pool);
    entries.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
      entries.push_back({tp[i].var, Span(tp[i].begin, tp[i].end)});
    sink.Push(Mapping::FromSortedEntries(std::move(entries)));
  });
}

}  // namespace

void RunEvalTo(const VA& a, const Document& doc, Arena* arena,
               MappingSink& sink, const VarSet* vars, CancelToken* cancel) {
  arena->Reset();
  // The a.Vars() temporary outlives the call (end of full expression).
  ExploreTo(a, doc, /*stack_discipline=*/false, *arena, sink,
            vars != nullptr ? vars->ids() : a.Vars().ids(), cancel);
}

MappingSet RunEval(const VA& a, const Document& doc) {
  Arena arena;
  std::vector<Mapping> out;
  VectorSink sink(&out);
  RunEvalTo(a, doc, &arena, sink);
  return MappingSet(std::move(out));
}

MappingSet RunEvalStack(const VA& a, const Document& doc) {
  Arena arena;
  std::vector<Mapping> out;
  VectorSink sink(&out);
  ExploreTo(a, doc, /*stack_discipline=*/true, arena, sink, a.Vars().ids(),
            /*cancel=*/nullptr);
  return MappingSet(std::move(out));
}

bool IsHierarchicalOn(const VA& a, const Document& doc) {
  return RunEval(a, doc).IsHierarchical();
}

}  // namespace spanners
