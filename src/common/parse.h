// Validating parsers for counts given on command lines and in specs.
#ifndef SPANNERS_COMMON_PARSE_H_
#define SPANNERS_COMMON_PARSE_H_

#include <charconv>
#include <cstddef>
#include <string_view>
#include <system_error>

namespace spanners {

/// Parses `text` as a decimal count in [0, max]: digits only, with no
/// sign, space or suffix. False, leaving *out untouched, otherwise.
inline bool ParseCount(std::string_view text, size_t max, size_t* out) {
  size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value > max)
    return false;
  *out = value;
  return true;
}

}  // namespace spanners

#endif  // SPANNERS_COMMON_PARSE_H_
