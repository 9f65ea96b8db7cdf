// Strict parser for the numbers users type: command-line flag values,
// manifest fields and model sizes. The whole string must be the number, so
// "5x" is rejected instead of read as 5, and "abc" yields nullopt instead of
// the exception std::stoul throws.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string_view>
#include <type_traits>

namespace gpo::util {

/// A non-negative decimal: digits only for integer T; for floating T also a
/// fraction or exponent ("0.5", "1e3"), but never a sign, "inf" or "nan".
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view s) {
  static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
  if (s.empty() || s.front() == '-') return std::nullopt;
  T value{};
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(value)) return std::nullopt;
  return value;
}

/// parse_number for the value of a command-line flag: a malformed value is a
/// usage error that names the flag (message on stderr, exit code 2).
template <typename T>
[[nodiscard]] T parse_flag_number(std::string_view flag,
                                  std::string_view value) {
  std::optional<T> n = parse_number<T>(value);
  if (!n) {
    std::cerr << flag << " needs a non-negative number, got '" << value
              << "'\n";
    std::exit(2);
  }
  return *n;
}

/// The value of the flag at argv[i], advancing i past it: a flag given last,
/// with no value, is a usage error that names it (stderr, exit code 2).
[[nodiscard]] inline const char* flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::cerr << argv[i] << " needs a value\n";
    std::exit(2);
  }
  return argv[++i];
}

/// A command-line word no branch of the parser accepted: usage error (the
/// word and `usage` on stderr, exit code 2).
[[noreturn]] inline void unknown_flag(std::string_view flag,
                                      std::string_view usage) {
  std::cerr << "unknown flag '" << flag << "'\n" << usage << "\n";
  std::exit(2);
}

}  // namespace gpo::util
