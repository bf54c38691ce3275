#include "query/parser.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

namespace spanners {
namespace query {

namespace {

// Recursive-descent parser over a cursor; every helper reports errors with
// the 0-based byte position for tooling-friendly messages. ParseExpr takes
// the depth (parser.h) of the node it parses, 1 for the root.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<ExprPtr> Parse() {
    SPANNERS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr(1));
    SkipSpace();
    if (pos_ != text_.size())
      return Error("trailing input after expression");
    return e;
  }

 private:
  Status Error(const std::string& reason) const {
    return Status::InvalidArgument("query parse error at position " +
                                   std::to_string(pos_) + ": " + reason);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c))
      return Error(std::string("expected '") + c + "'");
    return Status::OK();
  }

  static bool IsIdentStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }
  static bool IsIdentChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  }

  Result<std::string> ParseIdent() {
    SkipSpace();
    if (pos_ >= text_.size() || !IsIdentStart(text_[pos_]))
      return Error("expected an identifier");
    size_t start = pos_;
    while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
    return std::string(text_.substr(start, pos_ - start));
  }

  Result<std::string> ParseString() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"')
      return Error("expected a double-quoted string");
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size() &&
          (text_[pos_] == '"' || text_[pos_] == '\\')) {
        c = text_[pos_++];  // \" and \\ unescape; anything else verbatim
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) return Error("unterminated string literal");
    ++pos_;  // closing quote
    return out;
  }

  // Records that the expression being parsed reaches `depth`, refusing it
  // past the bound before anything recurses deeper.
  Status Reach(int depth) {
    if (depth > kMaxQueryDepth)
      return Error("expression nests deeper than " +
                   std::to_string(kMaxQueryDepth) + " levels");
    reached_ = std::max(reached_, depth);
    return Status::OK();
  }

  Result<ExprPtr> ParseExpr(int depth) {
    SPANNERS_RETURN_NOT_OK(Reach(depth));
    SPANNERS_ASSIGN_OR_RETURN(std::string head, ParseIdent());
    SPANNERS_RETURN_NOT_OK(Expect('('));
    if (head == "rgx") {
      SPANNERS_ASSIGN_OR_RETURN(std::string pattern, ParseString());
      SPANNERS_RETURN_NOT_OK(Expect(')'));
      return SpannerExpr::Pattern(pattern);
    }
    if (head == "rule") {
      std::vector<std::string> rule_texts;
      do {
        SPANNERS_ASSIGN_OR_RETURN(std::string rule, ParseString());
        rule_texts.push_back(std::move(rule));
      } while (Consume(','));
      SPANNERS_RETURN_NOT_OK(Expect(')'));
      return SpannerExpr::RuleProgram(std::move(rule_texts));
    }
    if (head == "union" || head == "join") {
      std::vector<ExprPtr> parts;
      const int outer = reached_;
      reached_ = 0;
      do {
        SPANNERS_ASSIGN_OR_RETURN(ExprPtr part, ParseExpr(depth + 1));
        parts.push_back(std::move(part));
      } while (Consume(','));
      SPANNERS_RETURN_NOT_OK(Expect(')'));
      if (parts.size() < 2)
        return Error(head + "() needs at least two operands");
      // The fold below nests the first operands n − 2 nodes deeper than
      // they were parsed.
      SPANNERS_RETURN_NOT_OK(Reach(reached_ + int(parts.size()) - 2));
      reached_ = std::max(outer, reached_);
      ExprPtr e = parts[0];
      for (size_t i = 1; i < parts.size(); ++i)
        e = head == "union" ? SpannerExpr::Union(std::move(e), parts[i])
                            : SpannerExpr::NaturalJoin(std::move(e), parts[i]);
      return e;
    }
    if (head == "project") {
      SPANNERS_ASSIGN_OR_RETURN(ExprPtr input, ParseExpr(depth + 1));
      VarSet keep;
      while (Consume(',')) {
        SPANNERS_ASSIGN_OR_RETURN(std::string name, ParseIdent());
        keep.Insert(Variable::Intern(name));
      }
      SPANNERS_RETURN_NOT_OK(Expect(')'));
      return SpannerExpr::Project(std::move(input), std::move(keep));
    }
    if (head == "eq") {
      SPANNERS_ASSIGN_OR_RETURN(ExprPtr input, ParseExpr(depth + 1));
      SPANNERS_RETURN_NOT_OK(Expect(','));
      SPANNERS_ASSIGN_OR_RETURN(std::string x, ParseIdent());
      SPANNERS_RETURN_NOT_OK(Expect(','));
      SPANNERS_ASSIGN_OR_RETURN(std::string y, ParseIdent());
      SPANNERS_RETURN_NOT_OK(Expect(')'));
      return SpannerExpr::SelectEq(std::move(input), Variable::Intern(x),
                                   Variable::Intern(y));
    }
    return Error("unknown operator '" + head +
                 "' (expected rgx, rule, union, join, project or eq)");
  }

  std::string_view text_;
  size_t pos_ = 0;
  // The deepest depth reached so far by the operands being parsed (each
  // union or join starts it afresh and folds it back into its caller's).
  int reached_ = 0;
};

}  // namespace

Result<ExprPtr> ParseQuery(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace query
}  // namespace spanners
