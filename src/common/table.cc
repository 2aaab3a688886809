#include "common/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace coc {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::AddRow(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::ToString() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << row[c];
      if (c + 1 < row.size())
        out << std::string(width[c] - row[c].size() + 2, ' ');
    }
    out << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c)
    total += width[c] + (c + 1 < width.size() ? 2 : 0);
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string Table::ToCsv() const {
  auto quote = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string q = "\"";
    for (char ch : s) {
      if (ch == '"') q += '"';
      q += ch;
    }
    q += '"';
    return q;
  };
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << quote(row[c]);
      if (c + 1 < row.size()) out << ',';
    }
    out << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string FormatDouble(double v, int precision) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  if (std::isnan(v)) return "nan";
  const bool sci = std::fabs(v) >= 1e15;
  char buf[64];
  std::snprintf(buf, sizeof buf, sci ? "%.*e" : "%.*f", precision, v);
  std::string s(buf);
  const std::size_t end = sci ? s.find('e') : s.size();  // the mantissa's
  if (s.find('.') < end) {
    std::size_t cut = s.find_last_not_of('0', end - 1) + 1;
    if (s[cut - 1] == '.') --cut;
    s.erase(cut, end - cut);
  }
  return s;
}

std::string FormatSci(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*e", precision, v);
  return buf;
}

}  // namespace coc
