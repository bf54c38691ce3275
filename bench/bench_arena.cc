// Microbenchmarks for the arena memory subsystem: bump allocation vs. the
// heap, Reset() reuse, and the flat open-addressing sets vs. their
// std::unordered_* counterparts on evaluator-shaped keys.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/arena.h"
#include "core/document.h"
#include "core/mapping.h"
#include "core/mapping_sink.h"
#include "core/spanner.h"

namespace {

using namespace spanners;

constexpr size_t kBlocks = 1024;
constexpr size_t kBlockBytes = 64;

// Bump allocation out of a reused arena (steady state: no malloc at all).
void BM_Arena_Allocate(benchmark::State& state) {
  Arena arena;
  for (auto _ : state) {
    arena.Reset();
    for (size_t i = 0; i < kBlocks; ++i)
      benchmark::DoNotOptimize(arena.Allocate(kBlockBytes));
  }
  state.SetItemsProcessed(state.iterations() * kBlocks);
}
BENCHMARK(BM_Arena_Allocate);

// The same allocation pattern through operator new/delete.
void BM_Heap_Allocate(benchmark::State& state) {
  std::vector<char*> blocks(kBlocks);
  for (auto _ : state) {
    for (size_t i = 0; i < kBlocks; ++i) {
      blocks[i] = new char[kBlockBytes];
      benchmark::DoNotOptimize(blocks[i]);
    }
    for (char* p : blocks) delete[] p;
  }
  state.SetItemsProcessed(state.iterations() * kBlocks);
}
BENCHMARK(BM_Heap_Allocate);

// ArenaVector growth from empty each round, arena retained.
void BM_ArenaVector_PushBack(benchmark::State& state) {
  Arena arena;
  for (auto _ : state) {
    arena.Reset();
    ArenaVector<uint64_t> v(&arena);
    for (uint64_t i = 0; i < kBlocks; ++i) v.push_back(i);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * kBlocks);
}
BENCHMARK(BM_ArenaVector_PushBack);

void BM_StdVector_PushBack(benchmark::State& state) {
  for (auto _ : state) {
    std::vector<uint64_t> v;
    for (uint64_t i = 0; i < kBlocks; ++i) v.push_back(i);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * kBlocks);
}
BENCHMARK(BM_StdVector_PushBack);

// Evaluator-shaped visited-config keys: ~40 bytes, mostly distinct.
std::vector<std::string> ConfigKeys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string k(40, '\0');
    uint64_t x = i * 0x9e3779b97f4a7c15ULL;
    std::memcpy(&k[0], &x, 8);
    std::memcpy(&k[32], &i, 8);
    keys.push_back(std::move(k));
  }
  return keys;
}

void BM_FlatKeySet_Insert(benchmark::State& state) {
  const std::vector<std::string> keys = ConfigKeys(kBlocks);
  Arena arena;
  for (auto _ : state) {
    arena.Reset();
    FlatKeySet set(&arena, 64);
    for (const std::string& k : keys)
      set.Insert(k.data(), static_cast<uint32_t>(k.size()));
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * kBlocks);
}
BENCHMARK(BM_FlatKeySet_Insert);

void BM_UnorderedStringSet_Insert(benchmark::State& state) {
  const std::vector<std::string> keys = ConfigKeys(kBlocks);
  for (auto _ : state) {
    std::unordered_set<std::string> set;
    for (const std::string& k : keys) set.insert(k);
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * kBlocks);
}
BENCHMARK(BM_UnorderedStringSet_Insert);

// Probe throughput of the word-at-a-time (SSE2 / SWAR) control-byte
// matching: repeated lookups against a warm set — hits (duplicate Insert
// is a pure probe) and misses — vs. std::unordered_set.
void BM_FlatKeySet_ProbeHit(benchmark::State& state) {
  const std::vector<std::string> keys = ConfigKeys(kBlocks);
  Arena arena;
  FlatKeySet set(&arena, kBlocks * 2);
  for (const std::string& k : keys)
    set.Insert(k.data(), static_cast<uint32_t>(k.size()));
  for (auto _ : state) {
    for (const std::string& k : keys)
      benchmark::DoNotOptimize(
          set.Insert(k.data(), static_cast<uint32_t>(k.size())).second);
  }
  state.SetItemsProcessed(state.iterations() * kBlocks);
}
BENCHMARK(BM_FlatKeySet_ProbeHit);

void BM_UnorderedStringSet_ProbeHit(benchmark::State& state) {
  const std::vector<std::string> keys = ConfigKeys(kBlocks);
  std::unordered_set<std::string> set(keys.begin(), keys.end());
  for (auto _ : state) {
    for (const std::string& k : keys)
      benchmark::DoNotOptimize(set.find(k) != set.end());
  }
  state.SetItemsProcessed(state.iterations() * kBlocks);
}
BENCHMARK(BM_UnorderedStringSet_ProbeHit);

void BM_FlatMappingSet_ProbeHit(benchmark::State& state) {
  Arena arena;
  FlatMappingSet set(&arena, kBlocks * 2);
  std::vector<std::vector<SpanTuple>> rows;
  for (uint32_t i = 0; i < kBlocks; ++i)
    rows.push_back({SpanTuple{1, i + 1, i + 3}, SpanTuple{2, i + 4, i + 9}});
  for (auto& r : rows) set.Insert(r.data(), 2);
  for (auto _ : state) {
    for (const auto& r : rows)
      benchmark::DoNotOptimize(set.Contains(r.data(), 2));
  }
  state.SetItemsProcessed(state.iterations() * kBlocks);
}
BENCHMARK(BM_FlatMappingSet_ProbeHit);

void BM_FlatMappingSet_ProbeMiss(benchmark::State& state) {
  Arena arena;
  FlatMappingSet set(&arena, kBlocks * 2);
  std::vector<std::vector<SpanTuple>> rows;
  for (uint32_t i = 0; i < kBlocks; ++i)
    rows.push_back({SpanTuple{1, i + 1, i + 3}, SpanTuple{2, i + 4, i + 9}});
  for (auto& r : rows) set.Insert(r.data(), 2);
  std::vector<std::vector<SpanTuple>> absent;  // same shape, different spans
  for (uint32_t i = 0; i < kBlocks; ++i)
    absent.push_back(
        {SpanTuple{1, i + 1, i + 2}, SpanTuple{2, i + 5, i + 9}});
  for (auto _ : state) {
    for (const auto& r : absent)
      benchmark::DoNotOptimize(set.Contains(r.data(), 2));
  }
  state.SetItemsProcessed(state.iterations() * kBlocks);
}
BENCHMARK(BM_FlatMappingSet_ProbeMiss);

// Mapping dedup: 3-variable span tuples, as produced by run enumeration.
std::vector<std::vector<SpanTuple>> TupleRows(size_t n) {
  std::vector<std::vector<SpanTuple>> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t base = static_cast<uint32_t>(i * 7 + 1);
    rows.push_back({SpanTuple{1, base, base + 3},
                    SpanTuple{2, base + 4, base + 9},
                    SpanTuple{3, base + 10, base + 12}});
  }
  return rows;
}

void BM_FlatMappingSet_Insert(benchmark::State& state) {
  const auto rows = TupleRows(kBlocks);
  Arena arena;
  for (auto _ : state) {
    arena.Reset();
    FlatMappingSet set(&arena);
    for (const auto& row : rows)
      set.Insert(row.data(), static_cast<uint32_t>(row.size()));
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * kBlocks);
}
BENCHMARK(BM_FlatMappingSet_Insert);

void BM_MappingSet_Insert(benchmark::State& state) {
  const auto rows = TupleRows(kBlocks);
  for (auto _ : state) {
    MappingSet set;
    for (const auto& row : rows) {
      Mapping m;
      for (const SpanTuple& t : row) m.Set(t.var, Span(t.begin, t.end));
      set.Insert(std::move(m));
    }
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * kBlocks);
}
BENCHMARK(BM_MappingSet_Insert);

// End-to-end effect of arena reuse on the run-enumeration evaluator:
// persistent arena Reset() between documents vs. a fresh arena per call.
void BM_RunEval_ArenaReused(benchmark::State& state) {
  Spanner s =
      Spanner::FromPattern(".*Seller: (x{[^,\\n]*}),.*").ValueOrDie();
  Document doc("case,Seller: Alice Cooper,price 100\n"
               "case,Seller: Bob Dylan,price 200\n");
  Arena arena;
  std::vector<Mapping> out;
  VectorSink sink(&out);
  for (auto _ : state) {
    out.clear();
    s.ExtractTo(Spanner::Evaluator::kRunEnumeration, doc, &arena, sink);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunEval_ArenaReused);

void BM_RunEval_FreshArena(benchmark::State& state) {
  Spanner s =
      Spanner::FromPattern(".*Seller: (x{[^,\\n]*}),.*").ValueOrDie();
  Document doc("case,Seller: Alice Cooper,price 100\n"
               "case,Seller: Bob Dylan,price 200\n");
  std::vector<Mapping> out;
  VectorSink sink(&out);
  for (auto _ : state) {
    Arena arena;
    out.clear();
    s.ExtractTo(Spanner::Evaluator::kRunEnumeration, doc, &arena, sink);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunEval_FreshArena);

}  // namespace
