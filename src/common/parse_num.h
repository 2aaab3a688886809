// Strict full-consumption numeric parsing. std::stoi/std::stod accept
// trailing garbage ("1.5" -> 1, "2junk" -> 2) and throw raw "stoi"/"stod"
// messages on failure; every user-facing parser in this repo wants the same
// contract instead — the whole token is the number or the parse fails — so
// it lives here once. Returns std::nullopt on any failure (bad syntax,
// partial consumption, out of range); callers attach their own diagnostics.
#pragma once

#include <charconv>
#include <optional>
#include <string>

namespace coc {

/// An integer of type T at its full width, range-checked for T, with no
/// trip through a double (which rounds values above 2^53). Decimal digits
/// with an optional leading '-' only: no whitespace, no '+', no exponent or
/// fraction, and no sign at all for unsigned T.
template <typename T>
std::optional<T> ParseFullInteger(const std::string& token) {
  T v{};
  const char* end = token.data() + token.size();
  const auto res = std::from_chars(token.data(), end, v);
  if (res.ec != std::errc() || res.ptr != end) return std::nullopt;
  return v;
}

inline std::optional<double> ParseFullDouble(const std::string& token) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(token, &pos);
    if (pos != token.size()) return std::nullopt;
    return v;
  } catch (...) {
    return std::nullopt;
  }
}

}  // namespace coc
