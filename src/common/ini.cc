#include "common/ini.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace coc {

void IniFail(int line, const std::string& what) {
  throw std::invalid_argument("config line " + std::to_string(line) + ": " +
                              what);
}

std::vector<std::pair<int, const IniSection::Entry*>> IniSection::ByLine()
    const {
  std::vector<std::pair<int, const Entry*>> out;
  out.reserve(values.size());
  for (const Entry& entry : values) {
    out.emplace_back(KeyLine(entry.first), &entry);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string IniTrim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::vector<IniSection> ParseIniSections(const std::string& text) {
  std::vector<IniSection> sections;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = raw;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = IniTrim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') IniFail(line_no, "unterminated section header");
      const std::string header = IniTrim(line.substr(1, line.size() - 2));
      const auto space = header.find(' ');
      IniSection s;
      s.kind = space == std::string::npos ? header : header.substr(0, space);
      s.name =
          space == std::string::npos ? "" : IniTrim(header.substr(space + 1));
      s.line = line_no;
      sections.push_back(std::move(s));
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) IniFail(line_no, "expected 'key = value'");
    if (sections.empty()) IniFail(line_no, "key outside of any section");
    const std::string key = IniTrim(line.substr(0, eq));
    const std::string value = IniTrim(line.substr(eq + 1));
    if (key.empty() || value.empty()) IniFail(line_no, "empty key or value");
    if (!sections.back().values.emplace(key, value).second) {
      IniFail(line_no, "duplicate key '" + key + "'");
    }
    sections.back().key_lines.emplace(key, line_no);
  }
  return sections;
}

bool IniKeyMatches(std::string_view name, std::string_view key) {
  if (name.back() == '.') return key.starts_with(name);  // a nested table
  if (name.back() != '>') return key == name;
  const auto open = name.rfind('<');  // a family: the prefix, then an index
  if (!key.starts_with(name.substr(0, open))) return false;
  const auto index = ParseFullInteger<int>(key.substr(open));
  return index && *index >= 0;
}

namespace {

/// Levenshtein distance, for the did-you-mean suggestion.
std::size_t EditDistance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t prev = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev + (a[i - 1] == b[j - 1] ? 0 : 1);
      prev = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
    }
  }
  return row[b.size()];
}

}  // namespace

std::string UnknownIniKey(std::string_view what, const std::string& key,
                          std::string_view where,
                          std::span<const std::string_view> names) {
  // A family is compared with the key's own last segment in place of its
  // placeholder, so "workload.rates.0" suggests "workload.rate.<cluster>"
  // and not an unrelated scalar key.
  const auto dot = key.rfind('.');
  const std::string suffix =
      dot == std::string::npos ? "" : key.substr(dot + 1);
  std::string_view best;
  std::size_t best_dist = std::string::npos;
  for (const std::string_view name : names) {
    if (name.back() == '.') continue;
    std::string comparable(name);
    const auto open = comparable.find('<');
    if (open != std::string::npos && !suffix.empty()) {
      comparable.replace(open, std::string::npos, suffix);
    }
    const std::size_t d = EditDistance(key, comparable);
    if (d < best_dist) {
      best_dist = d;
      best = name;
    }
  }
  return "unknown " + std::string(what) + " '" + key + "'" +
         std::string(where) + " (did you mean '" + std::string(best) + "'?)";
}

void AppendIniLine(std::string& out, std::string_view key,
                   std::string_view value) {
  out.append(key).append(" = ").append(value) += '\n';
}

}  // namespace coc
