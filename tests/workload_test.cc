// Sanity tests for the workload generators and reductions.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "automata/enumerate.h"
#include "automata/run_eval.h"
#include "automata/sequential.h"
#include "automata/thompson.h"
#include "core/spanner.h"
#include "rgx/analysis.h"
#include "rgx/reference_eval.h"
#include "workload/generators.h"
#include "workload/reductions.h"

namespace spanners {
namespace {

using workload::LandRegistryOptions;
using workload::LogOptions;

TEST(GeneratorTest, RandomDocumentRespectsAlphabet) {
  std::mt19937 rng(1);
  Document d = workload::RandomDocument("xy", 50, &rng);
  EXPECT_EQ(d.length(), 50u);
  for (char c : d.text()) EXPECT_TRUE(c == 'x' || c == 'y');
}

TEST(GeneratorTest, RandomSequentialRgxIsSequential) {
  std::mt19937 rng(2);
  workload::RandomRgxOptions opt;
  opt.sequential_only = true;
  opt.num_vars = 3;
  for (int i = 0; i < 50; ++i)
    EXPECT_TRUE(IsSequential(workload::RandomRgx(opt, &rng)));
}

TEST(GeneratorTest, RandomFunctionalRgxIsFunctional) {
  std::mt19937 rng(3);
  workload::RandomRgxOptions opt;
  opt.functional_only = true;
  opt.num_vars = 2;
  for (int i = 0; i < 50; ++i)
    EXPECT_TRUE(IsFunctional(workload::RandomRgx(opt, &rng)));
}

TEST(GeneratorTest, RandomVaIsWellFormed) {
  std::mt19937 rng(4);
  VA a = workload::RandomVa(8, 2, "ab", &rng);
  EXPECT_GE(a.NumStates(), 1u);
}

TEST(LandRegistryTest, DocumentShape) {
  Document d = workload::LandRegistryDocument({.rows = 20, .seed = 5});
  // Every row terminated by a newline; sellers and buyers present.
  EXPECT_EQ(std::count(d.text().begin(), d.text().end(), '\n'), 20);
  EXPECT_NE(d.text().find("Seller: "), std::string::npos);
}

TEST(LandRegistryTest, SellerRgxExtractsNames) {
  Document d(
      "Seller: John, ID75\n"
      "Buyer: Marcelo, ID832, P78\n"
      "Seller: Mark, ID7, $35000\n");
  VA a = CompileToVa(workload::SellerNameRgx());
  ASSERT_TRUE(IsSequentialVa(a));
  MappingSet out = EnumerateSequential(a, d);
  VarId x = Variable::Intern("x");
  std::set<std::string> names;
  for (const Mapping& m : out)
    names.insert(std::string(d.content(*m.Get(x))));
  EXPECT_TRUE(names.count("John") == 1);
  EXPECT_TRUE(names.count("Mark") == 1);
  EXPECT_TRUE(names.count("Marcelo") == 0);  // buyers not matched
}

TEST(LandRegistryTest, TaxRgxProducesPartialMappings) {
  // The §3.1 motivating behaviour: y defined only when the row has a tax.
  Document d(
      "Seller: John, ID75\n"
      "Seller: Mark, ID7, $35000\n");
  VA a = CompileToVa(workload::SellerNameTaxRgx());
  ASSERT_TRUE(IsSequentialVa(a));
  MappingSet out = EnumerateSequential(a, d);
  VarId x = Variable::Intern("x");
  VarId y = Variable::Intern("y");
  bool saw_partial = false, saw_total = false;
  for (const Mapping& m : out) {
    ASSERT_TRUE(m.Defines(x));
    std::string name(d.content(*m.Get(x)));
    if (name == "John") {
      EXPECT_FALSE(m.Defines(y));
      saw_partial = true;
    }
    if (name == "Mark" && m.Defines(y)) {
      EXPECT_EQ(d.content(*m.Get(y)), "35000");
      saw_total = true;
    }
  }
  EXPECT_TRUE(saw_partial);
  EXPECT_TRUE(saw_total);
}

TEST(ServerLogTest, LogRgxExtractsOptionalCause) {
  Document d(
      "host1 GET /a 200\n"
      "host2 POST /x 500 err=timeout\n");
  VA a = CompileToVa(workload::LogLineRgx());
  ASSERT_TRUE(IsSequentialVa(a));
  MappingSet out = EnumerateSequential(a, d);
  VarId c = Variable::Intern("c");
  bool saw_cause = false, saw_no_cause = false;
  for (const Mapping& m : out) {
    if (m.Defines(c)) {
      EXPECT_EQ(d.content(*m.Get(c)), "timeout");
      saw_cause = true;
    } else {
      saw_no_cause = true;
    }
  }
  EXPECT_TRUE(saw_cause);
  EXPECT_TRUE(saw_no_cause);
}

TEST(NeedleTest, CorpusIsReproducibleAndRespectsMatchRate) {
  workload::NeedleOptions o;
  o.documents = 400;
  o.doc_bytes = 200;
  o.match_rate = 0.05;
  std::vector<Document> a = workload::NeedleCorpus(o);
  std::vector<Document> b = workload::NeedleCorpus(o);
  ASSERT_EQ(a.size(), o.documents);
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].text(), b[i].text()) << i;

  // The filler alphabet cannot spell the needle marker, so needle count
  // == matched count; with 400 docs at 5% expect a loose [1, 60] band.
  size_t with_needle = 0;
  for (const Document& d : a)
    if (d.text().find("ALERT id=") != std::string::npos) ++with_needle;
  EXPECT_GE(with_needle, 1u);
  EXPECT_LE(with_needle, 60u);

  Spanner s = Spanner::FromRgx(workload::NeedleRgx());
  size_t matched = 0;
  for (const Document& d : a)
    if (!s.ExtractAll(d).empty()) ++matched;
  EXPECT_EQ(matched, with_needle);
}

TEST(FleetTest, PatternsCompileAndTagsAreDistinct) {
  workload::FleetOptions o;
  o.num_patterns = 10;
  o.documents = 0;
  workload::PatternFleet fleet = workload::MakePatternFleet(o);
  ASSERT_EQ(fleet.patterns.size(), 10u);
  std::set<std::string> distinct(fleet.patterns.begin(),
                                 fleet.patterns.end());
  EXPECT_EQ(distinct.size(), 10u);
  for (const std::string& p : fleet.patterns) {
    Spanner s = Spanner::FromPattern(p).ValueOrDie();
    EXPECT_TRUE(s.is_sequential()) << p;
    EXPECT_EQ(s.vars().size(), 2u) << p;
  }
}

TEST(FleetTest, CorpusIsReproducibleAndPerPatternSelective) {
  workload::FleetOptions o;
  o.num_patterns = 8;
  o.documents = 300;
  o.doc_bytes = 200;
  o.match_rate = 0.05;
  workload::PatternFleet a = workload::MakePatternFleet(o);
  workload::PatternFleet b = workload::MakePatternFleet(o);
  ASSERT_EQ(a.documents.size(), o.documents);
  for (size_t i = 0; i < a.documents.size(); ++i)
    EXPECT_EQ(a.documents[i].text(), b.documents[i].text()) << i;

  // Per pattern: the filler cannot spell a tag, so matched docs == docs
  // carrying that tag's needle line; each is individually low-selectivity.
  for (size_t p = 0; p < a.patterns.size(); ++p) {
    size_t with_needle = 0;
    std::string tag = "EVT0" + std::to_string(p) + " id=";
    for (const Document& d : a.documents)
      if (d.text().find(tag) != std::string::npos) ++with_needle;
    Spanner s = Spanner::FromPattern(a.patterns[p]).ValueOrDie();
    size_t matched = 0;
    for (const Document& d : a.documents)
      if (!s.ExtractAll(d).empty()) ++matched;
    EXPECT_EQ(matched, with_needle) << p;
    EXPECT_LE(matched, 45u) << p;  // loose band around 5% of 300
  }
}

// A --generate spec is validated field by field: a malformed count is an
// error, not a truncated number, and an explicit ROWS always counts, even
// when it equals the default.
TEST(CorpusSpecTest, RejectsMalformedCountsAndHonoursExplicitRows) {
  for (const char* bad : {"fleet:abc", "needle:10x:2", "server-log:",
                          "fleet:1:1:1:1", "fleet:-1", "nope:1"})
    EXPECT_EQ(workload::CorpusFromSpec(bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;

  Result<workload::PatternFleet> bomb = workload::CorpusFromSpec("bomb:1:4");
  ASSERT_TRUE(bomb.ok()) << bomb.status().ToString();
  ASSERT_EQ(bomb->documents.size(), 1u);
  EXPECT_EQ(bomb->documents[0].text().size(), 180u);  // 4 rows × 45 bytes
  EXPECT_EQ(bomb->patterns,
            std::vector<std::string>{workload::PathologicalRgxText()});

  Result<workload::PatternFleet> fleet =
      workload::CorpusFromSpec("fleet:10:2:3");
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_EQ(fleet->documents.size(), 10u);
  EXPECT_EQ(fleet->patterns.size(), 3u);

  Result<workload::PatternFleet> log = workload::CorpusFromSpec("server-log");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->documents.size(), 1000u);  // the default DOCS
  EXPECT_TRUE(log->patterns.empty());
}

TEST(ReductionTest, HamiltonianPathViaRelationalVa) {
  // Proposition 5.4: ⟦A⟧_ε ≠ ∅ iff the digraph has a Hamiltonian path;
  // all produced mappings are total (the automaton is relational).
  std::mt19937 rng(6);
  for (int trial = 0; trial < 8; ++trial) {
    workload::Digraph g = workload::RandomDigraph(4, 0.4, &rng);
    VA a = workload::HamiltonianToRelationalVa(g);
    MappingSet out = RunEval(a, Document(""));
    EXPECT_EQ(!out.empty(), workload::HasHamiltonianPath(g))
        << "trial " << trial;
    for (const Mapping& m : out) EXPECT_EQ(m.size(), 4u);  // relational
  }
}

TEST(ReductionTest, DnfReductionAutomataAreDetSeq) {
  std::mt19937 rng(8);
  workload::Dnf dnf = workload::RandomDnf(3, 2, &rng);
  auto [a1, a2] = workload::DnfValidityToContainment(dnf);
  EXPECT_TRUE(a1.IsDeterministic());
  EXPECT_TRUE(a2.IsDeterministic());
  EXPECT_TRUE(IsSequentialVa(a1));
  EXPECT_TRUE(IsSequentialVa(a2));
}

TEST(ReductionTest, OneInThreeSatEdgeCases) {
  // A clause repeated twice is consistent; conflicting choices collide.
  workload::OneInThreeSat inst;
  inst.num_props = 3;
  inst.clauses.push_back({0, 1, 2});
  inst.clauses.push_back({0, 1, 2});
  EXPECT_TRUE(workload::SolveOneInThreeSat(inst));
  RgxPtr g = workload::OneInThreeSatToSpanRgx(inst);
  EXPECT_FALSE(RunEval(CompileToVa(g), Document("")).empty());
}

}  // namespace
}  // namespace spanners
