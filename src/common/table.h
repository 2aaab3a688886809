// Minimal column-aligned table / CSV emitter used by the benchmark harness to
// print the paper's tables and figure series in a readable, diffable form.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace coc {

/// A simple table: a header row plus data rows of pre-formatted cells.
/// Responsible only for layout; callers format numbers themselves (so figure
/// benches control significant digits).
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; pads/truncates to the header width.
  void AddRow(std::vector<std::string> row);

  /// Renders with column alignment, a header underline, and 2-space gutters.
  std::string ToString() const;

  /// Renders as RFC-4180-ish CSV (cells containing commas/quotes are quoted).
  std::string ToCsv() const;

  std::size_t RowCount() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given precision, trimming trailing zeros
/// ("3.140000" -> "3.14", "5.000000" -> "5"). From 1e15 in magnitude on it
/// prints "%.*e", its mantissa trimmed alike (3.4845746e62 -> "3.48e+62" at
/// precision 2), not every integer digit.
std::string FormatDouble(double v, int precision = 6);

/// Formats a double in scientific notation with the given precision
/// (used for the paper's traffic-generation-rate axis, e.g. 1e-04).
std::string FormatSci(double v, int precision = 2);

}  // namespace coc
