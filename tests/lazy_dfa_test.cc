// Tests for the lazy-DFA membership tier: atom partitioning, agreement
// with the Theorem 5.7 state-set simulation on sequential VAs, soundness
// of the negative answer on arbitrary VAs, the bounded cache's clear
// policy and fallback path, and cross-thread sharing of the transition
// cache.
#include "automata/lazy_dfa.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "automata/determinize.h"
#include "automata/matcher.h"
#include "automata/run_eval.h"
#include "automata/sequential.h"
#include "core/spanner.h"
#include "workload/generators.h"

namespace spanners {
namespace {

// ---- PartitionAtoms -----------------------------------------------------

TEST(PartitionAtomsTest, AtomsAreDisjointAndRefineEveryInput) {
  std::vector<CharSet> sets = {
      CharSet::Range('a', 'm'), CharSet::Range('h', 'z'),
      CharSet::OfString("aeiou"), CharSet::Of('q')};
  std::vector<CharSet> atoms = PartitionAtoms(sets);
  ASSERT_FALSE(atoms.empty());

  // Pairwise disjoint.
  for (size_t i = 0; i < atoms.size(); ++i)
    for (size_t j = i + 1; j < atoms.size(); ++j)
      EXPECT_TRUE(atoms[i].Intersect(atoms[j]).empty()) << i << "," << j;

  // The atoms cover exactly the union of the inputs.
  CharSet covered = CharSet::None();
  for (const CharSet& a : atoms) covered = covered.Union(a);
  CharSet want = CharSet::None();
  for (const CharSet& s : sets) want = want.Union(s);
  EXPECT_EQ(covered, want);

  // Each atom behaves uniformly wrt every input set (all-in or all-out).
  for (const CharSet& a : atoms)
    for (const CharSet& s : sets) {
      CharSet in = a.Intersect(s);
      EXPECT_TRUE(in.empty() || in == a);
    }
}

TEST(PartitionAtomsTest, EmptyInputYieldsNoAtoms) {
  EXPECT_TRUE(PartitionAtoms({}).empty());
}

// ---- LazyDfa ------------------------------------------------------------

Document RandomDoc(std::string_view letters, size_t max_len,
                   std::mt19937* rng) {
  std::uniform_int_distribution<size_t> len_pick(0, max_len);
  return workload::RandomDocument(letters, len_pick(*rng), rng);
}

LazyDfaOptions MaxStates(size_t max_states) {
  LazyDfaOptions o;
  o.max_states = max_states;
  return o;
}

TEST(LazyDfaTest, AgreesWithStateSetSimulationOnSequentialPatterns) {
  std::mt19937 rng(17);
  workload::RandomRgxOptions o;
  o.sequential_only = true;
  o.num_vars = 2;
  o.letters = "ab";
  for (int round = 0; round < 40; ++round) {
    Spanner s = Spanner::FromRgx(workload::RandomRgx(o, &rng));
    ASSERT_TRUE(s.is_sequential());
    // The default bound, and tiny ones that clear in the middle of calls.
    LazyDfa dfa(s.va()), dfa4(s.va(), MaxStates(4)), dfa6(s.va(), MaxStates(6));
    for (int d = 0; d < 25; ++d) {
      Document doc = RandomDoc("ab", 12, &rng);
      for (const LazyDfa* bounded : {&dfa, &dfa4, &dfa6}) {
        std::optional<bool> got = bounded->Matches(doc.text());
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, MatchesSequential(s.va(), doc))
            << "round " << round << " doc '" << doc.text() << "'";
      }
    }
  }
}

TEST(LazyDfaTest, NegativeAnswerIsSoundOnArbitraryVas) {
  std::mt19937 rng(23);
  for (int round = 0; round < 30; ++round) {
    VA a = workload::RandomVa(6, 2, "ab", &rng);
    if (a.NumStates() < 2) continue;
    LazyDfa dfa(a), dfa4(a, MaxStates(4)), dfa6(a, MaxStates(6));
    for (int d = 0; d < 20; ++d) {
      Document doc = RandomDoc("ab", 8, &rng);
      for (const LazyDfa* bounded : {&dfa, &dfa4, &dfa6}) {
        std::optional<bool> got = bounded->Matches(doc.text());
        ASSERT_TRUE(got.has_value());
        if (!*got) {
          EXPECT_TRUE(RunEval(a, doc).empty())
              << "round " << round << " doc '" << doc.text() << "'";
        }
      }
    }
  }
}

TEST(LazyDfaTest, EmptyDocumentDecidedByStartState) {
  Spanner star = Spanner::FromPattern("a*").ValueOrDie();
  EXPECT_EQ(LazyDfa(star.va()).Matches(""), std::optional<bool>(true));
  Spanner one = Spanner::FromPattern("a").ValueOrDie();
  EXPECT_EQ(LazyDfa(one.va()).Matches(""), std::optional<bool>(false));
  EXPECT_EQ(LazyDfa(one.va()).Matches("a"), std::optional<bool>(true));
  EXPECT_EQ(LazyDfa(one.va()).Matches("b"), std::optional<bool>(false));
}

TEST(LazyDfaTest, NoEvictableStateReportsUnknownNeverWrong) {
  Spanner s = Spanner::FromPattern(".*Seller: (x{[^,\\n]*}),.*").ValueOrDie();
  LazyDfaOptions tight;
  tight.max_states = 2;  // dead + start are pinned: nothing can be evicted
  LazyDfa dfa(s.va(), tight);
  EXPECT_EQ(dfa.Matches("Seller: Ann,"), std::nullopt);
  LazyDfaStats stats = dfa.stats();
  EXPECT_GT(stats.fallbacks, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  // Unknown is per-call, never sticky: the empty document never leaves
  // the (resident) start state and is still answered exactly.
  EXPECT_EQ(dfa.Matches(""), std::optional<bool>(false));
  EXPECT_EQ(dfa.Matches("zzz"), std::nullopt);  // needs a third state again
}

TEST(LazyDfaTest, TableByteBoundFallsBackNeverWrong) {
  Spanner s = Spanner::FromPattern(".*Seller: (x{[^,\\n]*}),.*").ValueOrDie();
  LazyDfaOptions tight;
  tight.max_table_bytes = 256;
  LazyDfa dfa(s.va(), tight);
  std::optional<bool> verdict = dfa.Matches("xyz Seller: Bob, rest");
  // Either the scan finished within the bound or it fell back — but an
  // answered verdict must be correct.
  if (verdict.has_value()) EXPECT_TRUE(*verdict);
  Document miss("no needle here");
  verdict = dfa.Matches(miss.text());
  if (verdict.has_value()) EXPECT_FALSE(*verdict);
}

// A working set larger than the state bound must not disable the tier:
// cold states are evicted, hot ones rebuilt on demand, and every answer
// stays exactly the Theorem 5.7 verdict.
TEST(LazyDfaTest, EvictionKeepsAnsweringExactlyUnderCacheThrash) {
  Spanner s = Spanner::FromPattern(".*Seller: (x{[^,\\n]*}),.*").ValueOrDie();
  LazyDfaOptions tight;
  tight.max_states = 5;  // well below the pattern's full subset automaton
  LazyDfa dfa(s.va(), tight);
  std::mt19937 rng(11);
  size_t answered = 0;
  for (int round = 0; round < 200; ++round) {
    Document doc = RandomDoc("Selr: abc,\n", 48, &rng);
    std::optional<bool> got = dfa.Matches(doc.text());
    if (!got.has_value()) continue;
    ++answered;
    EXPECT_EQ(*got, MatchesSequential(s.va(), doc))
        << "round " << round << " doc '" << doc.text() << "'";
  }
  LazyDfaStats stats = dfa.stats();
  EXPECT_GT(stats.evictions, 0u) << "bound never reached: test is vacuous";
  EXPECT_GT(answered, 0u);
  EXPECT_LE(stats.num_states, 5u);
}

TEST(LazyDfaTest, ThrashingSharedCacheStaysExactAcrossThreads) {
  Spanner s = Spanner::FromPattern(".*Seller: (x{[^,\\n]*}),.*").ValueOrDie();
  LazyDfaOptions tight;
  tight.max_states = 5;
  LazyDfa dfa(s.va(), tight);
  std::vector<Document> docs;
  std::mt19937 rng(5);
  for (int i = 0; i < 60; ++i)
    docs.push_back(RandomDoc("Selr: abc,\n", 40, &rng));
  docs.emplace_back("Seller: Ann, rest");

  std::vector<std::thread> threads;
  std::atomic<size_t> wrong{0}, answered{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (const Document& d : docs) {
        std::optional<bool> v = dfa.Matches(d.text());
        if (!v.has_value()) continue;  // concurrent-eviction fallback
        answered.fetch_add(1);
        if (*v != MatchesSequential(s.va(), d)) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
}

// At max_states 4 or 5 a cleared cache still holds the dead, start,
// current and next states, so every call answers. Clears run in the
// middle of calls (the long document crosses sixteen 4 KiB poll chunks
// while inside the variable, under an armed token that never trips), and
// the scan must resume from its current subset, not the start state.
TEST(LazyDfaTest, ClearsMidCallAndAnswersEveryCallExactly) {
  Spanner s = Spanner::FromPattern(".*Seller: (x{[^,\\n]*}),.*").ValueOrDie();
  std::vector<Document> docs;
  std::mt19937 rng(11);
  for (int i = 0; i < 200; ++i)
    docs.push_back(RandomDoc("Selr: abc,\n", 48, &rng));
  docs.emplace_back("Seller: Ann, rest");
  docs.emplace_back(
      "Seller: " +
      workload::RandomDocument("Selr: abc", 64 * 1024, &rng).text() +
      ", rest");
  std::vector<bool> want;
  for (const Document& d : docs) want.push_back(MatchesSequential(s.va(), d));
  ASSERT_TRUE(want.back());
  CancelToken never;
  never.ArmDeadline(std::chrono::steady_clock::now() + std::chrono::hours(24));

  for (size_t max_states : {4, 5}) {
    for (int num_threads : {1, 8}) {
      SCOPED_TRACE(testing::Message() << "max_states " << max_states
                                      << ", threads " << num_threads);
      LazyDfa dfa(s.va(), MaxStates(max_states));
      std::atomic<size_t> unanswered{0}, wrong{0};
      std::vector<std::thread> threads;
      for (int t = 0; t < num_threads; ++t) {
        threads.emplace_back([&] {
          for (size_t i = 0; i < docs.size(); ++i) {
            std::optional<bool> v = dfa.Matches(docs[i].text(), &never);
            if (!v.has_value())
              unanswered.fetch_add(1);
            else if (*v != want[i])
              wrong.fetch_add(1);
          }
        });
      }
      for (std::thread& t : threads) t.join();
      EXPECT_EQ(unanswered.load(), 0u);
      EXPECT_EQ(wrong.load(), 0u);
      LazyDfaStats stats = dfa.stats();
      EXPECT_EQ(stats.fallbacks, 0u);
      EXPECT_GT(stats.evictions, 0u) << "bound never reached: test is vacuous";
      EXPECT_LE(stats.num_states, max_states);
    }
  }
}

// A call's first miss can lie past the start state, and by the time the
// call holds the exclusive lock other threads' clears may have dropped its
// subset and filled the table again. The call must then clear and resume
// from its own subset at its own position, never from the start state.
// The table has room for two states beyond dead and start. Every document
// is `a`, 512 bytes of [ab] and then either `z` (three in four: dead) or
// the chain `cdefgh…`. So the cache soon holds start -a-> A and A's
// self-loop, matching documents walk their 513 bytes shared and carry A
// out of that walk together, and the first of them to lock clears A away
// while walking its chain.
TEST(LazyDfaTest, ResumesFromItsSubsetWhenAClearDroppedIt) {
  Spanner s = Spanner::FromPattern("a[ab]*cdefgh(x{[ab]*})").ValueOrDie();
  std::vector<Document> docs;
  std::mt19937 rng(23);
  for (int i = 0; i < 64; ++i) {
    std::string text = "a" + workload::RandomDocument("ab", 512, &rng).text();
    text += i % 4 != 0 ? "z" : "cdefgh" + RandomDoc("ab", 8, &rng).text();
    docs.emplace_back(text);
  }
  std::vector<bool> want;
  for (const Document& d : docs) want.push_back(MatchesSequential(s.va(), d));

  LazyDfa dfa(s.va(), MaxStates(4));
  std::atomic<size_t> unanswered{0}, wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round)
        for (size_t i = 0; i < docs.size(); ++i) {
          std::optional<bool> v = dfa.Matches(docs[i].text());
          if (!v.has_value())
            unanswered.fetch_add(1);
          else if (*v != want[i])
            wrong.fetch_add(1);
        }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(unanswered.load(), 0u);
  EXPECT_GT(dfa.stats().evictions, 0u)
      << "bound never reached: test is vacuous";
}

TEST(LazyDfaTest, TransitionCacheIsSharedAcrossThreads) {
  Spanner s = Spanner::FromPattern(".*Seller: (x{[^,\\n]*}),.*").ValueOrDie();
  LazyDfa dfa(s.va());
  std::vector<Document> docs;
  std::mt19937 rng(3);
  for (int i = 0; i < 50; ++i)
    docs.push_back(RandomDoc("Selr: abc,\n", 40, &rng));
  docs.emplace_back("Seller: Ann, rest");

  std::vector<std::vector<bool>> got(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (const Document& d : docs) {
        std::optional<bool> v = dfa.Matches(d.text());
        ASSERT_TRUE(v.has_value());
        got[t].push_back(*v);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(got[t], got[0]);
  for (size_t i = 0; i < docs.size(); ++i)
    EXPECT_EQ(got[0][i], MatchesSequential(s.va(), docs[i])) << i;
}

}  // namespace
}  // namespace spanners
