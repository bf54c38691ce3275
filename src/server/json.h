// Minimal JSON value model + recursive-descent parser for the spanexd
// JSONL wire protocol. The engine has JSON *writers* everywhere
// (EngineReport::ToJson, ToJsonRow); this adds the read side the server
// and client need: one request/response per line, parsed into a JsonValue
// tree. Scope is deliberately protocol-sized — full escape handling
// (incl. \uXXXX with surrogate pairs → UTF-8), nesting-depth and
// duplicate-key tolerant (last key wins on lookup is NOT needed; Find
// returns the first), numbers as double with an exact int64 fast path.
#ifndef SPANNERS_SERVER_JSON_H_
#define SPANNERS_SERVER_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/format.h"

namespace spanners {
namespace server {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool(bool dflt = false) const { return is_bool() ? bool_ : dflt; }
  double AsDouble(double dflt = 0.0) const {
    return is_number() ? number_ : dflt;
  }
  int64_t AsInt(int64_t dflt = 0) const {
    return is_number() ? int_ : dflt;
  }
  const std::string& AsString() const { return string_; }  // "" if not one
  const std::vector<JsonValue>& items() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return object_;
  }

  /// First member named `key`; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Typed member accessors with defaults — the protocol's common shape
  /// ("field present and of the right type, else default").
  int64_t IntOr(std::string_view key, int64_t dflt) const;
  bool BoolOr(std::string_view key, bool dflt) const;
  // Returns by value: a reference result could alias a temporary bound to
  // `dflt` and dangle past the call statement.
  std::string StringOr(std::string_view key, std::string_view dflt) const;

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double d, int64_t i);
  static JsonValue String(std::string s);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(std::vector<std::pair<std::string, JsonValue>> m);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  int64_t int_ = 0;  // number_ truncated toward zero (exact for int input)
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses exactly one JSON value spanning all of `text` (surrounding
/// whitespace allowed; trailing garbage is an error). InvalidArgument on
/// malformed input with a byte-offset diagnostic.
Result<JsonValue> ParseJson(std::string_view text);

/// Appends `s` as a quoted, escaped JSON string literal to *out (the
/// engine's one JSON string writer).
using engine::AppendJsonString;

/// Serializes `v` back to compact JSON (integral numbers print exactly;
/// other doubles via shortest round-trippable %g). Parse→Write is not
/// byte-identical to arbitrary input (whitespace, escapes normalize), but
/// Write output always re-parses to an equal tree.
void WriteJson(const JsonValue& v, std::string* out);

}  // namespace server
}  // namespace spanners

#endif  // SPANNERS_SERVER_JSON_H_
