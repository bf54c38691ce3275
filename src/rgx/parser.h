// Text syntax for RGX formulas.
//
//   alt    := cat ('|' cat)*
//   cat    := factor*                       (empty cat is ε)
//   factor := atom ('*' | '+' | '?')*
//   atom   := '(' alt ')' | ident '{' alt '}' | '[' class ']'
//           | '.'  (any letter, the paper's Σ) | '\e' (ε) | literal
//
// An identifier ([A-Za-z_][A-Za-z0-9_]*) immediately followed by '{'
// denotes a capture variable; otherwise its first character is taken as a
// letter literal. Escapes: \e \n \t \\ \. \| \* \+ \? \( \) \[ \] \{ \}
// \- \^ and \xNN. Character classes support ranges and '^' negation.
//
// Nesting is bounded: every pass over the AST recurses, so a pattern is
// refused when a path from the whole pattern down to an atom crosses more
// than kMaxRgxDepth levels, counting each alternation, concatenation,
// variable, postfix quantifier and the atom itself as one. A group is its
// alternation and concatenation, so `a` is 3 levels deep, `(a)` 5, `x{a}`
// 6 and `x{a}*` 7.
#ifndef SPANNERS_RGX_PARSER_H_
#define SPANNERS_RGX_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "rgx/ast.h"

namespace spanners {

/// Deepest pattern ParseRgx accepts, in the levels counted above.
inline constexpr int kMaxRgxDepth = 1000;

/// Parses `pattern` into an RGX AST. Errors carry a position and reason;
/// a pattern nested deeper than kMaxRgxDepth is InvalidArgument.
Result<RgxPtr> ParseRgx(std::string_view pattern);

}  // namespace spanners

#endif  // SPANNERS_RGX_PARSER_H_
