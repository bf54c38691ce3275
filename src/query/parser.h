// Text syntax for SpannerExpr, the `spanex --query` front-end:
//
//   expr    := 'rgx' '(' STRING ')'
//            | 'rule' '(' STRING (',' STRING)* ')'
//            | 'union' '(' expr (',' expr)+ ')'
//            | 'join'  '(' expr (',' expr)+ ')'
//            | 'project' '(' expr (',' IDENT)* ')'
//            | 'eq' '(' expr ',' IDENT ',' IDENT ')'
//
// STRING is double-quoted; `\"` and `\\` are unescaped, every other byte
// (including RGX escapes like \e or \n) passes through verbatim. IDENT is
// a variable name ([A-Za-z_][A-Za-z0-9_]*). n-ary union/join fold left.
// Whitespace between tokens is ignored. SpannerExpr::ToString() prints
// this same syntax canonically, so parse/print round-trips are stable.
//
// Nesting is bounded, since every pass over the expression recurses: an
// expression is refused when a path from its root down to a leaf crosses
// more than kMaxQueryDepth nodes. The leaf and each project or eq count
// one; a union or join of n operands folds into n − 1 nested nodes, so it
// counts n − 1. `rgx("a")` is 1 deep, `union(rgx("a"), rgx("b"))` 2 and
// `union(rgx("a"), rgx("b"), rgx("c"))` 3.
#ifndef SPANNERS_QUERY_PARSER_H_
#define SPANNERS_QUERY_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "query/expr.h"

namespace spanners {
namespace query {

/// Deepest expression ParseQuery accepts, in the nodes counted above.
inline constexpr int kMaxQueryDepth = 1000;

/// Parses `text` into a SpannerExpr. Errors carry a position and reason;
/// an expression nested deeper than kMaxQueryDepth is InvalidArgument.
Result<ExprPtr> ParseQuery(std::string_view text);

}  // namespace query
}  // namespace spanners

#endif  // SPANNERS_QUERY_PARSER_H_
