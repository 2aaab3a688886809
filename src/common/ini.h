// Shared INI-ish tokenizer for the tree's text formats: system config files
// (src/config/config_parser) and scenario batch files (src/api/scenario) parse
// the same surface syntax — `[kind name]` section headers, `key = value`
// lines, '#' comments — and differ only in which section kinds and keys they
// accept. The tokenizer owns the line-level diagnostics ("config line N:
// ..."); semantic validation stays with each consumer.
//
// The keys themselves are declared once each, as IniKey rows (below): a
// table of rows is the one list of a format's keys, and parsing, printing
// and did-you-mean suggestions all read it.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/json.h"
#include "common/parse_num.h"

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

// --- Key rows ----------------------------------------------------------------

/// One key of a text format, declared once: its name, how a value parses
/// into a T, and how a T prints it back. A name ending in "<...>"
/// ("workload.rate.<cluster>") declares one key per non-negative integer
/// index in its place; a name ending in '.' declares every key under it,
/// for a row that forwards to a nested table. A field at its default
/// prints nothing and allocates nothing.
template <typename T>
struct IniKey {
  std::string_view name;
  void (*parse)(T& target, const std::string& key, const std::string& value);
  void (*print)(const T& source, std::string_view name, std::string& out);
  /// A nested-table row appends the nested names here, for suggestions.
  void (*names)(std::vector<std::string_view>& out) = nullptr;
};

/// Whether `key` is one of the keys that the row name `name` declares.
bool IniKeyMatches(std::string_view name, std::string_view key);

/// "unknown WHAT 'KEY'WHERE (did you mean 'NAME'?)": NAME is the entry of
/// `names` nearest KEY by edit distance, a "<...>" compared with KEY's own
/// last segment in its place (names ending in '.' are skipped).
std::string UnknownIniKey(std::string_view what, const std::string& key,
                          std::string_view where,
                          std::span<const std::string_view> names);

/// Appends "key = value\n".
void AppendIniLine(std::string& out, std::string_view key,
                   std::string_view value);

/// Appends the names `rows` declare, nested tables' included.
template <typename T, std::size_t N>
void IniKeyNames(const IniKey<T> (&rows)[N],
                 std::vector<std::string_view>& out) {
  for (const IniKey<T>& row : rows) {
    row.names != nullptr ? row.names(out) : out.push_back(row.name);
  }
}

/// Parses `key` through the first row that declares it; an unknown key is
/// std::invalid_argument "unknown WHAT key 'KEY' (did you mean 'NAME'?)".
template <typename T, std::size_t N>
void SetIniKey(const IniKey<T> (&rows)[N], std::string_view what, T& target,
               const std::string& key, const std::string& value) {
  for (const IniKey<T>& row : rows) {
    if (IniKeyMatches(row.name, key)) return row.parse(target, key, value);
  }
  std::vector<std::string_view> names;
  IniKeyNames(rows, names);
  throw std::invalid_argument(
      UnknownIniKey(std::string(what) + " key", key, "", names));
}

/// Appends every row's lines, in table order (the canonical order).
template <typename T, std::size_t N>
void PrintIniKeys(const IniKey<T> (&rows)[N], const T& source,
                  std::string& out) {
  for (const IniKey<T>& row : rows) row.print(source, row.name, out);
}

/// One spelling of an enum (or bool) value; a list of them is the knob's
/// one {value, name} table, read both ways.
template <typename E>
struct IniName {
  E value;
  std::string_view name;
};

/// The value `text` names, or std::invalid_argument "'KEY' has unknown
/// value 'TEXT' (use A, B or C)".
template <typename E, std::size_t N>
E ParseIniName(const IniName<E> (&names)[N], const std::string& key,
               const std::string& text) {
  std::string use;
  for (std::size_t i = 0; i < N; ++i) {
    if (names[i].name == text) return names[i].value;
    if (i != 0) use += i + 1 == N ? " or " : ", ";
    use += names[i].name;
  }
  throw std::invalid_argument("'" + key + "' has unknown value '" + text +
                              "' (use " + use + ")");
}

template <typename E, std::size_t N>
std::string_view IniNameOf(const IniName<E> (&names)[N], E value) {
  for (const IniName<E>& n : names) {
    if (n.value == value) return n.name;
  }
  return "?";
}

// Field rows. `Field` points to a member of the row's owner; a std::optional
// member is unset at its default, and any other member prints only while
// it differs from a default-constructed owner's.
template <typename T, typename V>
T IniOwner(V T::*);
template <typename V>
const V& IniValue(const V& v) { return v; }
template <typename V>
const V& IniValue(const std::optional<V>& v) { return *v; }
template <auto Field>
using IniValueOf = std::remove_cvref_t<decltype(IniValue(
    std::declval<decltype(IniOwner(Field))&>().*Field))>;
template <typename T>
const T& IniDefaults() {
  static const T kDefaults{};
  return kDefaults;
}

/// Parse(key, value) or Parse(value) reads the field; Print(value), or a
/// member function such as ToString, spells it.
template <auto Field, auto Parse, auto Print>
constexpr auto IniFieldKey(std::string_view name) {
  using T = decltype(IniOwner(Field));
  return IniKey<T>{
      name,
      [](T& target, const std::string& key, const std::string& value) {
        if constexpr (std::is_invocable_v<decltype(Parse), const std::string&,
                                          const std::string&>) {
          target.*Field = Parse(key, value);
        } else {
          target.*Field = Parse(value);
        }
      },
      [](const T& source, std::string_view key, std::string& out) {
        if (source.*Field == IniDefaults<T>().*Field) return;
        AppendIniLine(out, key, std::invoke(Print, IniValue(source.*Field)));
      }};
}

/// A number: ParseKeyDouble or ParseKeyInteger in, JsonNumber or decimal
/// digits out.
template <typename V>
V IniNumber(const std::string& key, const std::string& value) {
  if constexpr (std::is_floating_point_v<V>) return ParseKeyDouble(key, value);
  else return ParseKeyInteger<V>(key, value);
}
template <typename V>
std::string IniNumberText(V v) {
  if constexpr (std::is_floating_point_v<V>) return JsonNumber(v);
  else return std::to_string(v);
}
template <auto Field, auto Parse = IniNumber<IniValueOf<Field>>>
constexpr auto IniNumberKey(std::string_view name) {
  return IniFieldKey<Field, Parse, IniNumberText<IniValueOf<Field>>>(name);
}

/// An enum or bool spelled by its {value, name} list.
template <auto Field, const auto& Names>
constexpr auto IniNameKey(std::string_view name) {
  return IniFieldKey<Field,
                     [](const std::string& key, const std::string& value) {
                       return ParseIniName(Names, key, value);
                     },
                     [](IniValueOf<Field> v) { return IniNameOf(Names, v); }>(
      name);
}

}  // namespace coc
