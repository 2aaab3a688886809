// Shared INI-ish tokenizer for the tree's text formats: system config files
// (src/config/config_parser) and scenario batch files (src/api/scenario) parse
// the same surface syntax — `[kind name]` section headers, `key = value`
// lines, '#' comments — and differ only in which section kinds and keys they
// accept. The tokenizer owns the line-level diagnostics ("config line N:
// ..."); semantic validation stays with each consumer.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace coc {

struct IniSection {
  std::string kind;  ///< first word of the header, e.g. "system"
  std::string name;  ///< remainder of the header; empty if none
  std::map<std::string, std::string> values;
  int line = 0;  ///< header line number (1-based)
  /// Line number of each key in `values`, so consumers can point semantic
  /// errors at the offending line instead of the section header.
  std::map<std::string, int> key_lines;

  /// The key's own line, falling back to the header for unknown keys.
  int KeyLine(const std::string& key) const {
    const auto it = key_lines.find(key);
    return it == key_lines.end() ? line : it->second;
  }
};

/// Throws std::invalid_argument with the standard "config line N: what"
/// prefix every consumer's diagnostics use.
[[noreturn]] void IniFail(int line, const std::string& what);

/// Strips leading/trailing blanks (spaces, tabs, CR).
std::string IniTrim(const std::string& s);

/// Splits `text` into sections. Throws std::invalid_argument (via IniFail)
/// on unterminated headers, keys outside a section, missing '=', empty
/// keys/values, and duplicate keys within a section. Section kinds are NOT
/// validated here — consumers reject unknown kinds with the section's line.
std::vector<IniSection> ParseIniSections(const std::string& text);

}  // namespace coc
