// The tree's one JSON representation: an insertion-ordered value type, a
// small strict parser and JsonWriter, the one emitter (Json::Dump uses it).
//
// Determinism is the point — Engine reports are golden-snapshotted and the
// batch path promises bit-identical output for any thread count — so the
// emitter guarantees:
//   * object keys serialize in the order they are written;
//   * doubles print via std::to_chars shortest round-trip form (no locale,
//     no printf precision drift);
//   * integers keep full 64-bit precision (seeds, message counts).
// Non-finite doubles have no JSON spelling; they serialize as null
// (JsonWriter::Number adds an explicit sentinel where that matters).
//
// The parser accepts RFC 8259 JSON (objects, arrays, strings with escapes,
// numbers, true/false/null) nested at most 256 levels deep, and throws
// std::invalid_argument with a byte offset on malformed or deeper input,
// including the number spellings the RFC forbids (01, 1., .5, 1.e3) and raw
// control characters inside strings. It is O(n log n) in an object's key
// count: a repeated key keeps its first position and takes its last value.
// The server parses request lines with it, perf_report reads
// google-benchmark artifacts, and tests validate emitted reports.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace coc {

class JsonWriter;

class Json {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  Json() = default;  ///< null
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(int v) : kind_(Kind::kInt), int_(v) {}
  Json(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  /// Values above INT64_MAX (e.g. large sim seeds) keep their unsigned
  /// interpretation through Dump and Parse; AsInt then returns the
  /// bit-equivalent negative value — use AsUint for such fields.
  Json(std::uint64_t v)
      : kind_(Kind::kInt),
        int_(static_cast<std::int64_t>(v)),
        is_uint_(v > static_cast<std::uint64_t>(INT64_MAX)) {}
  Json(double v) : kind_(Kind::kDouble), double_(v) {}
  Json(const char* s) : kind_(Kind::kString), string_(s) {}
  Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  static Json Array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json Object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  /// Object insertion (keeps insertion order; duplicate keys overwrite in
  /// place, preserving the original position). Returns *this for chaining.
  Json& Set(std::string key, Json value);
  /// Array append.
  Json& Push(Json value);

  // --- read access (parser consumers; throw on kind mismatch) -------------
  bool AsBool() const;
  std::int64_t AsInt() const;
  std::uint64_t AsUint() const;  ///< unsigned view of an integer value
  /// Numeric access: accepts both kInt and kDouble.
  double AsDouble() const;
  const std::string& AsString() const;
  std::size_t Size() const;  ///< array/object element count
  const Json& At(std::size_t i) const;  ///< array element
  /// Object lookup; nullptr when the key is absent (or not an object).
  const Json* Find(const std::string& key) const;

  /// Serializes. indent = 0 emits the compact one-line form; indent > 0
  /// pretty-prints with that many spaces per level. Output is byte-stable
  /// for equal trees.
  std::string Dump(int indent = 0) const;

  /// Strict parse of one JSON document (trailing garbage rejected). Throws
  /// std::invalid_argument naming the byte offset on malformed input or
  /// nesting deeper than 256 levels.
  static Json Parse(const std::string& text);

  friend bool operator==(const Json&, const Json&) = default;

 private:
  class Parser;  ///< fills object_ directly (json.cc)
  void WriteTo(JsonWriter& w) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  bool is_uint_ = false;  ///< int_ is the bit pattern of a uint64 > INT64_MAX
  double double_ = 0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

/// JSON appended straight to a string, with no tree: Json::Dump's emitter
/// and the report schema's one renderer. The caller keeps the document well
/// formed (Key only inside an object, each Begin matched by its End, keys
/// distinct within an object); the writer places commas, newlines and
/// indentation. Json::Parse of a compact document dumps back to its bytes.
class JsonWriter {
 public:
  /// indent = 0 writes the compact one-line form; indent > 0 pretty-prints
  /// with that many spaces per level.
  explicit JsonWriter(int indent = 0) : indent_(indent) {}

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  JsonWriter& Key(std::string_view key);  ///< the next call is its value
  JsonWriter& Null();
  JsonWriter& String(std::string_view s);
  JsonWriter& Bool(bool b);
  JsonWriter& Int(std::int64_t v);
  JsonWriter& Uint(std::uint64_t v);
  JsonWriter& Double(double v);  ///< null when not finite
  /// Key(key).Double(v), and for a non-finite v "<key>_nonfinite": "inf",
  /// "-inf" or "nan", so the value is not an ambiguous null on the wire.
  JsonWriter& Number(std::string_view key, double v);
  /// Appends text()[begin, end) again as the next element: the bytes of one
  /// complete element this writer wrote at the current depth, from its first
  /// byte (so their indentation is right here too).
  JsonWriter& Repeat(std::size_t begin, std::size_t end);

  const std::string& text() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  std::string& Next();  ///< writes the separator before an element
  void Newline();

  std::string out_;
  int indent_ = 0;
  int depth_ = 0;  ///< containers open
  /// The next element: first in its container, after a sibling, or a value.
  enum class At : std::uint8_t { kFirst, kNext, kValue } at_ = At::kFirst;
};

/// Deterministic number spelling used by the emitter (exposed for callers
/// that need the same spelling outside a Json tree, e.g. CSV cells that must
/// match a JSON golden).
std::string JsonNumber(double v);        ///< shortest round-trip; null-safe

// --- newline-delimited protocol helpers (the evaluation server's framing) --

/// One frame of a newline-delimited JSON protocol: the compact (indent 0)
/// dump plus the terminating '\n'. Compactness is load-bearing — the dump of
/// a frame must not itself contain a newline, or framing breaks.
std::string JsonLine(const Json& j);

/// A status-only protocol message, shaped like the "status" block of a
/// Report: {"status": {"code": "...", "ok": false, "message": "..."}}.
/// Carries protocol-level failures (malformed request, overload, injected
/// server fault) in the same taxonomy the batch path uses for scenarios.
Json JsonStatusMessage(StatusCode code, const std::string& message);

}  // namespace coc
