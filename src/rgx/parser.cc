#include "rgx/parser.h"

#include <algorithm>
#include <cctype>
#include <string>

namespace spanners {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Recursive-descent parser over a string_view with one-char lookahead.
/// Each Parse* takes the level (parser.h) of the node it parses, 1 for the
/// whole pattern.
class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Result<RgxPtr> Parse() {
    SPANNERS_ASSIGN_OR_RETURN(RgxPtr e, ParseAlt(1));
    if (!AtEnd()) return Error("unexpected character");
    return e;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char Next() { return input_[pos_++]; }
  bool Accept(char c) {
    if (!AtEnd() && Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Error(std::string msg) const {
    return Status::InvalidArgument("RGX parse error at position " +
                                   std::to_string(pos_) + ": " +
                                   std::move(msg));
  }

  // Records that the subtree being parsed reaches `level`, refusing it
  // past the bound before anything recurses deeper.
  Status Reach(int level) {
    if (level > kMaxRgxDepth)
      return Error("pattern nests deeper than " +
                   std::to_string(kMaxRgxDepth) + " levels");
    reached_ = std::max(reached_, level);
    return Status::OK();
  }

  Result<RgxPtr> ParseAlt(int level) {
    SPANNERS_RETURN_NOT_OK(Reach(level));
    std::vector<RgxPtr> parts;
    SPANNERS_ASSIGN_OR_RETURN(RgxPtr first, ParseCat(level + 1));
    parts.push_back(std::move(first));
    while (Accept('|')) {
      SPANNERS_ASSIGN_OR_RETURN(RgxPtr next, ParseCat(level + 1));
      parts.push_back(std::move(next));
    }
    return RgxNode::Disj(std::move(parts));
  }

  Result<RgxPtr> ParseCat(int level) {
    SPANNERS_RETURN_NOT_OK(Reach(level));
    std::vector<RgxPtr> parts;
    while (!AtEnd() && Peek() != '|' && Peek() != ')' && Peek() != '}') {
      SPANNERS_ASSIGN_OR_RETURN(RgxPtr f, ParseFactor(level + 1));
      parts.push_back(std::move(f));
    }
    return RgxNode::Concat(std::move(parts));
  }

  Result<RgxPtr> ParseFactor(int level) {
    const int outer = reached_;
    reached_ = 0;
    SPANNERS_ASSIGN_OR_RETURN(RgxPtr atom, ParseAtom(level));
    // Each quantifier puts the atom's whole subtree one level deeper (a
    // '+' builds two tree levels, a concatenation over a star, so the
    // tree is at most twice as deep as the levels counted).
    const int atom_reached = reached_;
    int lift = 0;
    while (!AtEnd()) {
      if (Accept('*')) {
        atom = RgxNode::Star(std::move(atom));
      } else if (Accept('+')) {
        atom = RgxNode::Plus(std::move(atom));
      } else if (Accept('?')) {
        atom = RgxNode::Opt(std::move(atom));
      } else {
        break;
      }
      SPANNERS_RETURN_NOT_OK(Reach(atom_reached + ++lift));
    }
    reached_ = std::max(outer, reached_);
    return atom;
  }

  Result<RgxPtr> ParseAtom(int level) {
    if (AtEnd()) return Error("expected an atom");
    char c = Peek();
    if (c == '(') {
      Next();
      SPANNERS_ASSIGN_OR_RETURN(RgxPtr inner, ParseAlt(level));
      if (!Accept(')')) return Error("expected ')'");
      return inner;
    }
    SPANNERS_RETURN_NOT_OK(Reach(level));
    if (c == '[') {
      Next();
      return ParseClass();
    }
    if (c == '.') {
      Next();
      return RgxNode::Chars(CharSet::Any());
    }
    if (c == '\\') {
      Next();
      return ParseEscape();
    }
    if (c == '*' || c == '+' || c == '?') return Error("dangling quantifier");
    if (c == '{') return Error("'{' without a variable name");
    if (IsIdentStart(c)) {
      // Maximal identifier followed by '{' is a capture variable; otherwise
      // consume a single literal character.
      size_t start = pos_;
      while (!AtEnd() && IsIdentChar(Peek())) ++pos_;
      if (!AtEnd() && Peek() == '{') {
        std::string name(input_.substr(start, pos_ - start));
        Next();  // '{'
        SPANNERS_ASSIGN_OR_RETURN(RgxPtr body, ParseAlt(level + 1));
        if (!Accept('}')) return Error("expected '}' closing variable");
        return RgxNode::Var(name, std::move(body));
      }
      pos_ = start + 1;
      return RgxNode::Lit(input_[start]);
    }
    Next();
    return RgxNode::Lit(c);
  }

  // After the backslash. Returns an ε node for \e, else a literal.
  Result<RgxPtr> ParseEscape() {
    if (AtEnd()) return Error("dangling escape");
    char c = Next();
    switch (c) {
      case 'e':
        return RgxNode::Epsilon();
      case 'n':
        return RgxNode::Lit('\n');
      case 't':
        return RgxNode::Lit('\t');
      case 'x': {
        if (pos_ + 1 >= input_.size()) return Error("truncated \\xNN escape");
        int hi = HexVal(Next());
        int lo = HexVal(Next());
        if (hi < 0 || lo < 0) return Error("bad hex digit in \\xNN");
        return RgxNode::Lit(static_cast<char>(hi * 16 + lo));
      }
      default:
        return RgxNode::Lit(c);
    }
  }

  // After the opening '['. Supports '^' negation and 'a-z' ranges.
  Result<RgxPtr> ParseClass() {
    bool negate = Accept('^');
    CharSet cs;
    bool any = false;
    while (!AtEnd() && Peek() != ']') {
      char lo;
      SPANNERS_ASSIGN_OR_RETURN(lo, ParseClassChar());
      char hi = lo;
      if (!AtEnd() && Peek() == '-' && pos_ + 1 < input_.size() &&
          input_[pos_ + 1] != ']') {
        Next();  // '-'
        SPANNERS_ASSIGN_OR_RETURN(hi, ParseClassChar());
        if (static_cast<unsigned char>(hi) < static_cast<unsigned char>(lo))
          return Error("inverted range in character class");
      }
      cs = cs.Union(CharSet::Range(lo, hi));
      any = true;
    }
    if (!Accept(']')) return Error("expected ']' closing character class");
    if (!any && !negate) return Error("empty character class");
    if (negate) cs = cs.Complement();
    if (cs.empty()) return Error("character class denotes no letters");
    return RgxNode::Chars(cs);
  }

  Result<char> ParseClassChar() {
    if (AtEnd()) return Error("unterminated character class");
    char c = Next();
    if (c != '\\') return c;
    if (AtEnd()) return Error("dangling escape in character class");
    char e = Next();
    switch (e) {
      case 'n':
        return '\n';
      case 't':
        return '\t';
      case 'x': {
        if (pos_ + 1 >= input_.size()) return Error("truncated \\xNN escape");
        int hi = HexVal(Next());
        int lo = HexVal(Next());
        if (hi < 0 || lo < 0) return Error("bad hex digit in \\xNN");
        return static_cast<char>(hi * 16 + lo);
      }
      default:
        return e;
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
  // The deepest level reached so far by the factor being parsed (each
  // ParseFactor starts it afresh and folds it back into its caller's).
  int reached_ = 0;
};

}  // namespace

Result<RgxPtr> ParseRgx(std::string_view pattern) {
  return Parser(pattern).Parse();
}

}  // namespace spanners
