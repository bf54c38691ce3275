// Parser + printer tests, including round-trip properties and the nesting
// bound.
#include <gtest/gtest.h>

#include <string>

#include "engine/plan.h"
#include "rgx/analysis.h"
#include "rgx/ast.h"
#include "rgx/parser.h"
#include "rgx/printer.h"

namespace spanners {
namespace {

RgxPtr MustParse(std::string_view p) {
  Result<RgxPtr> r = ParseRgx(p);
  EXPECT_TRUE(r.ok()) << p << " -> " << r.status().ToString();
  return r.ValueOrDie();
}

TEST(RgxParserTest, Literal) {
  RgxPtr e = MustParse("a");
  EXPECT_EQ(e->kind(), RgxKind::kChars);
  EXPECT_TRUE(e->chars().Contains('a'));
  EXPECT_EQ(e->chars().size(), 1u);
}

TEST(RgxParserTest, EmptyPatternIsEpsilon) {
  EXPECT_EQ(MustParse("")->kind(), RgxKind::kEpsilon);
  EXPECT_EQ(MustParse("\\e")->kind(), RgxKind::kEpsilon);
}

TEST(RgxParserTest, ConcatFlattens) {
  RgxPtr e = MustParse("abc");
  ASSERT_EQ(e->kind(), RgxKind::kConcat);
  EXPECT_EQ(e->children().size(), 3u);
}

TEST(RgxParserTest, DisjunctionAndPrecedence) {
  RgxPtr e = MustParse("ab|c");
  ASSERT_EQ(e->kind(), RgxKind::kDisj);
  EXPECT_EQ(e->children().size(), 2u);
  EXPECT_EQ(e->child(0)->kind(), RgxKind::kConcat);
}

TEST(RgxParserTest, StarBindsTightest) {
  RgxPtr e = MustParse("ab*");
  ASSERT_EQ(e->kind(), RgxKind::kConcat);
  EXPECT_EQ(e->child(1)->kind(), RgxKind::kStar);
}

TEST(RgxParserTest, PlusAndOptionalDesugar) {
  RgxPtr plus = MustParse("a+");
  ASSERT_EQ(plus->kind(), RgxKind::kConcat);
  EXPECT_EQ(plus->child(1)->kind(), RgxKind::kStar);

  RgxPtr opt = MustParse("a?");
  ASSERT_EQ(opt->kind(), RgxKind::kDisj);
  EXPECT_EQ(opt->child(1)->kind(), RgxKind::kEpsilon);
}

TEST(RgxParserTest, Variable) {
  RgxPtr e = MustParse("x{a*}");
  ASSERT_EQ(e->kind(), RgxKind::kVar);
  EXPECT_EQ(Variable::Name(e->var()), "x");
  EXPECT_EQ(e->child(0)->kind(), RgxKind::kStar);
}

TEST(RgxParserTest, MultiCharVariableName) {
  RgxPtr e = MustParse("tax_2024{b}");
  ASSERT_EQ(e->kind(), RgxKind::kVar);
  EXPECT_EQ(Variable::Name(e->var()), "tax_2024");
}

TEST(RgxParserTest, IdentNotFollowedByBraceIsLiteralChars) {
  // "ab" is two letters, not a variable.
  RgxPtr e = MustParse("ab");
  ASSERT_EQ(e->kind(), RgxKind::kConcat);
  EXPECT_EQ(e->child(0)->kind(), RgxKind::kChars);
}

TEST(RgxParserTest, NestedVariables) {
  RgxPtr e = MustParse("x{a y{b} c}");
  ASSERT_EQ(e->kind(), RgxKind::kVar);
  ASSERT_EQ(e->child(0)->kind(), RgxKind::kConcat);
}

TEST(RgxParserTest, DotIsFullAlphabet) {
  RgxPtr e = MustParse(".");
  ASSERT_EQ(e->kind(), RgxKind::kChars);
  EXPECT_EQ(e->chars(), CharSet::Any());
}

TEST(RgxParserTest, CharClassWithRange) {
  RgxPtr e = MustParse("[a-c_]");
  ASSERT_EQ(e->kind(), RgxKind::kChars);
  EXPECT_TRUE(e->chars().Contains('a'));
  EXPECT_TRUE(e->chars().Contains('b'));
  EXPECT_TRUE(e->chars().Contains('c'));
  EXPECT_TRUE(e->chars().Contains('_'));
  EXPECT_FALSE(e->chars().Contains('d'));
}

TEST(RgxParserTest, NegatedCharClass) {
  // The paper's (Σ − {,}) idiom.
  RgxPtr e = MustParse("[^,]");
  ASSERT_EQ(e->kind(), RgxKind::kChars);
  EXPECT_FALSE(e->chars().Contains(','));
  EXPECT_TRUE(e->chars().Contains('a'));
}

TEST(RgxParserTest, PaperSellerExample) {
  // Σ* · "Seller: " · x{(Σ−{,})*} · "," · Σ*  from §3.1.
  RgxPtr e = MustParse(".*Seller: (x{[^,]*}),.*");
  EXPECT_TRUE(RgxVars(e).Contains(Variable::Intern("x")));
  EXPECT_TRUE(IsSequential(e));
  EXPECT_TRUE(IsFunctional(e));
}

TEST(RgxParserTest, Escapes) {
  RgxPtr e = MustParse("\\*\\|\\\\\\n");
  ASSERT_EQ(e->kind(), RgxKind::kConcat);
  EXPECT_TRUE(e->child(0)->chars().Contains('*'));
  EXPECT_TRUE(e->child(1)->chars().Contains('|'));
  EXPECT_TRUE(e->child(2)->chars().Contains('\\'));
  EXPECT_TRUE(e->child(3)->chars().Contains('\n'));
}

TEST(RgxParserTest, HexEscape) {
  RgxPtr e = MustParse("\\x41");
  EXPECT_TRUE(e->chars().Contains('A'));
}

TEST(RgxParserTest, ErrorUnbalancedParen) {
  EXPECT_FALSE(ParseRgx("(ab").ok());
  EXPECT_FALSE(ParseRgx("ab)").ok());
}

TEST(RgxParserTest, ErrorUnbalancedVariableBrace) {
  EXPECT_FALSE(ParseRgx("x{ab").ok());
  EXPECT_FALSE(ParseRgx("ab}").ok());
}

TEST(RgxParserTest, ErrorDanglingQuantifier) {
  EXPECT_FALSE(ParseRgx("*a").ok());
  EXPECT_FALSE(ParseRgx("|*").ok());
}

TEST(RgxParserTest, ErrorBadClass) {
  EXPECT_FALSE(ParseRgx("[z-a]").ok());
  EXPECT_FALSE(ParseRgx("[abc").ok());
  EXPECT_FALSE(ParseRgx("[]").ok());
}

TEST(RgxParserTest, ErrorDanglingEscape) {
  EXPECT_FALSE(ParseRgx("ab\\").ok());
}

TEST(RgxParserTest, ErrorMessagesCarryPosition) {
  Result<RgxPtr> r = ParseRgx("ab)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("position 2"), std::string::npos)
      << r.status().ToString();
}

// ---- nesting bound ------------------------------------------------------
// Levels (parser.h): the pattern's alternation and concatenation are 1 and
// 2, so a top-level atom is at 3; a group adds 2, a variable 3 (itself and
// its body's alternation and concatenation) and a quantifier 1.

std::string Repeat(std::string_view piece, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += piece;
  return out;
}

// `groups` groups around `vars` nested variables v0, v1, … around `a`
// followed by `stars` quantifiers: 3 + 2·groups + 3·vars + stars levels.
std::string Nested(int groups, int vars, int stars) {
  std::string open = Repeat("(", groups), close = Repeat(")", groups);
  for (int v = 0; v < vars; ++v) {
    open += "v" + std::to_string(v) + "{";
    close.insert(0, "}");
  }
  return open + "a" + Repeat("*", stars) + close;
}

void ExpectRefusedAsTooDeep(const std::string& pattern) {
  Result<RgxPtr> r = ParseRgx(pattern);
  ASSERT_FALSE(r.ok()) << pattern.size() << "-byte pattern parsed";
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find(
                "deeper than " + std::to_string(kMaxRgxDepth) + " levels"),
            std::string::npos)
      << r.status().ToString();
}

// At the bound a pattern parses, compiles through every analysis pass and
// extracts; the same shape one level deeper is refused.
TEST(RgxParserTest, PatternAtTheDepthBoundCompilesAndExtracts) {
  ASSERT_EQ(kMaxRgxDepth, 1000);
  struct Shape {
    const char* what;
    int groups, vars, stars;  // 3 + 2·groups + 3·vars + stars levels
  };
  const Shape shapes[] = {{"groups around v0{a}", 497, 1, 0},
                          {"groups around nested variables", 483, 10, 1},
                          {"quantifiers after v0{a}", 0, 1, 994}};
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.what);
    const std::string pattern = Nested(shape.groups, shape.vars, shape.stars);
    Result<engine::ExtractionPlan> plan =
        engine::ExtractionPlan::Compile(pattern);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const MappingSet got = plan.value().Extract(Document("a"));
    ASSERT_EQ(got.size(), 1u);
    const Mapping& m = *got.begin();
    EXPECT_EQ(m.size(), size_t(shape.vars));
    EXPECT_TRUE(m.Get(Variable::Intern("v0")) == Span(1, 2)) << m.size();

    ExpectRefusedAsTooDeep(Nested(shape.groups, shape.vars, shape.stars + 1));
  }
}

// Far past the bound the parser refuses before it recurses or builds the
// tree, so neither parsing nor freeing it can exhaust the stack.
TEST(RgxParserTest, VeryDeepPatternsAreRefused) {
  ExpectRefusedAsTooDeep(Repeat("(", 100000) + "a" + Repeat(")", 100000));
  ExpectRefusedAsTooDeep(Repeat("x{", 100000) + "a" + Repeat("}", 100000));
  ExpectRefusedAsTooDeep("a" + Repeat("*", 100000));
  ExpectRefusedAsTooDeep("a" + Repeat("+?", 50000));
  // Unbalanced: only the open nesting counts, and it is refused early.
  ExpectRefusedAsTooDeep(Repeat("(", 100000));
}

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, ParsePrintParse) {
  RgxPtr once = MustParse(GetParam());
  std::string printed = ToPattern(once);
  RgxPtr twice = MustParse(printed);
  EXPECT_TRUE(RgxNode::Equals(once, twice))
      << GetParam() << " printed as " << printed;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, RoundTripTest,
    ::testing::Values(
        "a", "", "\\e", "abc", "a|b", "a|b|c", "(a|b)c", "a*", "(ab)*",
        "(a|b)*", "a**", "x{a*}", "x{y{a}b}", "a+b?", ".", "[a-z]", "[^,]",
        "ax{b}",  // literal then variable: needs parens when printed
        ".*Seller: (x{[^,]*}),.*",
        "x{(a|b)*}|y{(a|b)*}",
        "(x{.*}|y{.*})(z{.*}|w{.*})",
        "\\*\\|\\\\\\n\\x41",
        "a(x{b})(y{c})d"));

TEST(RgxPrinterTest, VariableAfterLiteralIsParenthesised) {
  RgxPtr e = RgxNode::Concat(RgxNode::Lit('a'),
                             RgxNode::Var("x", RgxNode::Lit('b')));
  std::string p = ToPattern(e);
  RgxPtr back = MustParse(p);
  EXPECT_TRUE(RgxNode::Equals(e, back)) << p;
}

}  // namespace
}  // namespace spanners
