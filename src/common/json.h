// The tree's one JSON representation: an insertion-ordered value type with a
// deterministic emitter and a small strict parser.
//
// Determinism is the point — Engine reports are golden-snapshotted and the
// batch path promises bit-identical output for any thread count — so the
// emitter guarantees:
//   * object keys serialize in insertion order (callers control key order);
//   * doubles print via std::to_chars shortest round-trip form (no locale,
//     no printf precision drift);
//   * integers keep full 64-bit precision (seeds, message counts).
// Non-finite doubles have no JSON spelling; they serialize as null (callers
// carry an explicit flag, e.g. "saturated", when the distinction matters).
//
// The parser accepts standard JSON (objects, arrays, strings with escapes,
// numbers, true/false/null) nested at most 256 levels deep, and throws
// std::invalid_argument with a byte offset on malformed or deeper input.
// The server parses request lines with it, perf_report reads
// google-benchmark artifacts, and tests validate emitted reports.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace coc {

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
  /// Object key removal; absent keys are a no-op. Returns *this.
  Json& Remove(const std::string& key);
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
  void DumpTo(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  bool is_uint_ = false;  ///< int_ is the bit pattern of a uint64 > INT64_MAX
  double double_ = 0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

/// Deterministic number spelling used by the emitter (exposed for callers
/// that need the same spelling outside a Json tree, e.g. CSV cells that must
/// match a JSON golden).
std::string JsonNumber(double v);        ///< shortest round-trip; null-safe

/// Non-finite-safe object field: a finite `v` sets `key` normally; a
/// non-finite one sets `key` to null plus an explicit string sentinel at
/// `key + "_nonfinite"` ("inf", "-inf" or "nan"), so the value survives the
/// wire losslessly instead of collapsing to an ambiguous null. Returns `obj`
/// for chaining.
Json& JsonSetNumber(Json& obj, const std::string& key, double v);

/// Inverse of JsonSetNumber: reads `key`, reconstructing inf/-inf/nan from
/// the sibling sentinel when `key` is null. Throws std::invalid_argument on
/// a missing field, a null without its sentinel, or an unknown sentinel.
double JsonGetNumber(const Json& obj, const std::string& key);

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
