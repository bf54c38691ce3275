#include "server/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace spanners {
namespace server {

namespace {

/// Protocol documents are flat-ish; 64 guards against pathological input
/// blowing the parser stack, not a real limit anyone hits.
constexpr int kMaxDepth = 64;

/// Saturating double→int64 conversion. Casting a double outside int64's
/// range (or NaN) is UB, and the wire lets clients send e.g. 1e300.
/// 9223372036854775808.0 is 2^63 exactly; -2^63 is representable, so any
/// d < -2^63 is below the range and anything in [-2^63, 2^63) casts fine.
int64_t ClampToInt64(double d) {
  if (std::isnan(d)) return 0;
  if (d >= 9223372036854775808.0) return INT64_MAX;
  if (d < -9223372036854775808.0) return INT64_MIN;
  return int64_t(d);
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWs();
    JsonValue v;
    SPANNERS_RETURN_NOT_OK(ParseValue(&v, 0));
    SkipWs();
    if (pos_ != text_.size())
      return Error("trailing characters after JSON value");
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        SPANNERS_RETURN_NOT_OK(ParseString(&s));
        *out = JsonValue::String(std::move(s));
        return Status::OK();
      }
      case 't':
        if (ConsumeWord("true")) {
          *out = JsonValue::Bool(true);
          return Status::OK();
        }
        return Error("expected 'true'");
      case 'f':
        if (ConsumeWord("false")) {
          *out = JsonValue::Bool(false);
          return Status::OK();
        }
        return Error("expected 'false'");
      case 'n':
        if (ConsumeWord("null")) {
          *out = JsonValue::Null();
          return Status::OK();
        }
        return Error("expected 'null'");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    SkipWs();
    if (Consume('}')) {
      *out = JsonValue::Object(std::move(members));
      return Status::OK();
    }
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return Error("expected object key string");
      std::string key;
      SPANNERS_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWs();
      JsonValue value;
      SPANNERS_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      members.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Error("expected ',' or '}' in object");
    }
    *out = JsonValue::Object(std::move(members));
    return Status::OK();
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWs();
    if (Consume(']')) {
      *out = JsonValue::Array(std::move(items));
      return Status::OK();
    }
    for (;;) {
      SkipWs();
      JsonValue value;
      SPANNERS_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      items.push_back(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Error("expected ',' or ']' in array");
    }
    *out = JsonValue::Array(std::move(items));
    return Status::OK();
  }

  /// One \uXXXX escape's code unit; pos_ sits after the 'u' on entry and
  /// after the 4 hex digits on success.
  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= uint32_t(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= uint32_t(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= uint32_t(c - 'A' + 10);
      else
        return Error("bad hex digit in \\u escape");
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  static void AppendUtf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      *out += char(cp);
    } else if (cp < 0x800) {
      *out += char(0xC0 | (cp >> 6));
      *out += char(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += char(0xE0 | (cp >> 12));
      *out += char(0x80 | ((cp >> 6) & 0x3F));
      *out += char(0x80 | (cp & 0x3F));
    } else {
      *out += char(0xF0 | (cp >> 18));
      *out += char(0x80 | ((cp >> 12) & 0x3F));
      *out += char(0x80 | ((cp >> 6) & 0x3F));
      *out += char(0x80 | (cp & 0x3F));
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    for (;;) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Error("truncated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            uint32_t cp = 0;
            SPANNERS_RETURN_NOT_OK(ParseHex4(&cp));
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: must pair with \uDC00..\uDFFF.
              if (!ConsumeWord("\\u"))
                return Error("unpaired high surrogate");
              uint32_t lo = 0;
              SPANNERS_RETURN_NOT_OK(ParseHex4(&lo));
              if (lo < 0xDC00 || lo > 0xDFFF)
                return Error("bad low surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return Error("unpaired low surrogate");
            }
            AppendUtf8(out, cp);
            break;
          }
          default:
            return Error("unknown escape");
        }
        continue;
      }
      if (c < 0x20) return Error("unescaped control character in string");
      *out += char(c);
      ++pos_;
    }
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    bool integral = true;
    if (Consume('.')) {
      integral = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-'))
      return Error("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    errno = 0;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size())
      return Error("malformed number");
    int64_t i;
    if (integral) {
      errno = 0;
      i = std::strtoll(token.c_str(), &end, 10);
      if (errno == ERANGE) i = ClampToInt64(d);
    } else {
      i = ClampToInt64(d);
    }
    *out = JsonValue::Number(d, i);
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

int64_t JsonValue::IntOr(std::string_view key, int64_t dflt) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsInt() : dflt;
}

bool JsonValue::BoolOr(std::string_view key, bool dflt) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_bool() ? v->AsBool() : dflt;
}

std::string JsonValue::StringOr(std::string_view key,
                                std::string_view dflt) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : std::string(dflt);
}

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d, int64_t i) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = d;
  v.int_ = i;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::Object(
    std::vector<std::pair<std::string, JsonValue>> m) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.object_ = std::move(m);
  return v;
}

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

void WriteJson(const JsonValue& v, std::string* out) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      *out += "null";
      return;
    case JsonValue::Type::kBool:
      *out += v.AsBool() ? "true" : "false";
      return;
    case JsonValue::Type::kNumber: {
      const double d = v.AsDouble();
      if (d == double(v.AsInt())) {
        *out += std::to_string(v.AsInt());
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", d);
        *out += buf;
      }
      return;
    }
    case JsonValue::Type::kString:
      AppendJsonString(out, v.AsString());
      return;
    case JsonValue::Type::kArray: {
      *out += '[';
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) *out += ',';
        first = false;
        WriteJson(item, out);
      }
      *out += ']';
      return;
    }
    case JsonValue::Type::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, value] : v.members()) {
        if (!first) *out += ',';
        first = false;
        AppendJsonString(out, key);
        *out += ':';
        WriteJson(value, out);
      }
      *out += '}';
      return;
    }
  }
}

}  // namespace server
}  // namespace spanners
