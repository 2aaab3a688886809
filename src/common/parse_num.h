// Strict full-consumption numeric parsing. std::stoi/std::stod accept
// trailing garbage ("1.5" -> 1, "2junk" -> 2), leading whitespace and '+',
// hex and inf; every user-facing parser in this repo wants one contract
// instead — the whole token is the number or the parse fails — so it lives
// here once, on std::from_chars. Returns std::nullopt on any failure (bad
// syntax, partial consumption, out of range); callers attach their own
// diagnostics.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <stdexcept>
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

/// A finite decimal double over the whole token. Like ParseFullInteger it
/// takes no whitespace and no '+'; it also takes no hex and no inf or nan
/// (a non-finite value has no spelling that serializes back).
inline std::optional<double> ParseFullDouble(const std::string& token) {
  double v = 0;
  const char* end = token.data() + token.size();
  const auto res = std::from_chars(token.data(), end, v);
  if (res.ec != std::errc() || res.ptr != end || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

/// The number-key rule of config files, scenario files and workload keys:
/// ParseFullDouble, or std::invalid_argument naming the key. Callers that
/// know a line number prefix it.
inline double ParseKeyDouble(const std::string& key, const std::string& value) {
  const auto v = ParseFullDouble(value);
  if (!v) {
    throw std::invalid_argument("'" + key + "' is not a number: " + value);
  }
  return *v;
}

/// The integer form: ParseFullInteger<T>, the rule of the CLI's integer
/// flags too ("1e4" and "3.0" are rejected). A non-number still fails as
/// "not a number".
template <typename T>
T ParseKeyInteger(const std::string& key, const std::string& value) {
  if (const auto v = ParseFullInteger<T>(value)) return *v;
  ParseKeyDouble(key, value);
  throw std::invalid_argument("'" + key + "' must be an integer");
}

}  // namespace coc
