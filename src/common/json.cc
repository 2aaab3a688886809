#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace coc {

Json& Json::Set(std::string key, Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) {
    throw std::invalid_argument("Json::Set on a non-object value");
  }
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::Push(Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  if (kind_ != Kind::kArray) {
    throw std::invalid_argument("Json::Push on a non-array value");
  }
  array_.push_back(std::move(value));
  return *this;
}

bool Json::AsBool() const {
  if (kind_ != Kind::kBool) throw std::invalid_argument("Json: not a bool");
  return bool_;
}

std::int64_t Json::AsInt() const {
  if (kind_ == Kind::kInt) return int_;
  if (kind_ == Kind::kDouble) return static_cast<std::int64_t>(double_);
  throw std::invalid_argument("Json: not a number");
}

std::uint64_t Json::AsUint() const {
  if (kind_ == Kind::kInt) return static_cast<std::uint64_t>(int_);
  throw std::invalid_argument("Json: not an integer");
}

double Json::AsDouble() const {
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  if (kind_ == Kind::kDouble) return double_;
  throw std::invalid_argument("Json: not a number");
}

const std::string& Json::AsString() const {
  if (kind_ != Kind::kString) throw std::invalid_argument("Json: not a string");
  return string_;
}

std::size_t Json::Size() const {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return object_.size();
  throw std::invalid_argument("Json: not a container");
}

const Json& Json::At(std::size_t i) const {
  if (kind_ != Kind::kArray || i >= array_.size()) {
    throw std::invalid_argument("Json: array index out of range");
  }
  return array_[i];
}

const Json* Json::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

// The writer appends its spellings in place: no temporary per key, string or
// double.
void AppendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

template <typename Integer>
void AppendInteger(std::string& out, Integer v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void AppendEscaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string JsonNumber(double v) {
  std::string out;
  AppendNumber(out, v);
  return out;
}

std::string& JsonWriter::Next() {
  const At at = std::exchange(at_, At::kNext);
  if (at == At::kValue) return out_;
  if (at == At::kNext) out_ += ',';
  if (depth_ > 0) Newline();
  return out_;
}

void JsonWriter::Newline() {
  if (indent_ <= 0) return;
  out_ += '\n';
  out_.append(static_cast<std::size_t>(indent_ * depth_), ' ');
}

JsonWriter& JsonWriter::Open(char bracket) {
  Next() += bracket;
  ++depth_;
  at_ = At::kFirst;
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  --depth_;
  if (std::exchange(at_, At::kNext) != At::kFirst) Newline();  // not empty
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  AppendEscaped(Next(), key);
  out_ += indent_ > 0 ? ": " : ":";
  at_ = At::kValue;
  return *this;
}

JsonWriter& JsonWriter::Null() {
  Next() += "null";
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view s) {
  AppendEscaped(Next(), s);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool b) {
  Next() += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Int(std::int64_t v) {
  AppendInteger(Next(), v);
  return *this;
}

JsonWriter& JsonWriter::Uint(std::uint64_t v) {
  AppendInteger(Next(), v);
  return *this;
}

JsonWriter& JsonWriter::Double(double v) {
  AppendNumber(Next(), v);
  return *this;
}

JsonWriter& JsonWriter::Number(std::string_view key, double v) {
  Key(key).Double(v);
  if (std::isfinite(v)) return *this;
  return Key(std::string(key) + "_nonfinite")
      .String(v > 0 ? "inf" : (v < 0 ? "-inf" : "nan"));
}

void Json::WriteTo(JsonWriter& w) const {
  switch (kind_) {
    case Kind::kNull: w.Null(); return;
    case Kind::kBool: w.Bool(bool_); return;
    case Kind::kInt:
      is_uint_ ? w.Uint(static_cast<std::uint64_t>(int_)) : w.Int(int_);
      return;
    case Kind::kDouble: w.Double(double_); return;
    case Kind::kString: w.String(string_); return;
    case Kind::kArray:
      w.BeginArray();
      for (const Json& v : array_) v.WriteTo(w);
      w.EndArray();
      return;
    case Kind::kObject:
      w.BeginObject();
      for (const auto& [k, v] : object_) v.WriteTo(w.Key(k));
      w.EndObject();
      return;
  }
}

std::string Json::Dump(int indent) const {
  JsonWriter w(indent);
  WriteTo(w);
  return w.Take();
}

namespace {

class Parser {
 public:
  /// Deepest array/object nesting accepted: far above the deepest document
  /// the tree writes (a batch report nests 6 levels), far below the depth
  /// whose recursion would overflow a thread's stack.
  static constexpr int kMaxDepth = 256;

  explicit Parser(const std::string& text) : text_(text) {}

  Json Run() {
    Json v = Value();
    SkipSpace();
    if (pos_ != text_.size()) Fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw std::invalid_argument("json parse error at byte " +
                                std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    SkipSpace();
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool Literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  Json Value() {
    const char c = Peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth) {
          Fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        Json v = c == '{' ? ObjectValue() : ArrayValue();
        --depth_;
        return v;
      }
      case '"': return Json(StringValue());
      case 't':
        if (Literal("true")) return Json(true);
        Fail("bad literal");
      case 'f':
        if (Literal("false")) return Json(false);
        Fail("bad literal");
      case 'n':
        if (Literal("null")) return Json();
        Fail("bad literal");
      default: return NumberValue();
    }
  }

  Json ObjectValue() {
    Expect('{');
    Json obj = Json::Object();
    if (Peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      if (Peek() != '"') Fail("expected object key string");
      std::string key = StringValue();
      Expect(':');
      obj.Set(std::move(key), Value());
      const char c = Peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') Fail("expected ',' or '}' in object");
    }
  }

  Json ArrayValue() {
    Expect('[');
    Json arr = Json::Array();
    if (Peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.Push(Value());
      const char c = Peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') Fail("expected ',' or ']' in array");
    }
  }

  std::string StringValue() {
    Expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else Fail("bad \\u escape digit");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are out of
          // scope for the artifacts this parser reads).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: Fail("unknown escape");
      }
    }
    Fail("unterminated string");
  }

  Json NumberValue() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_int = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_int = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      Fail("bad number");
    }
    if (is_int) {
      std::int64_t v = 0;
      const auto res =
          std::from_chars(text_.data() + start, text_.data() + pos_, v);
      // "-0" is how std::to_chars spells the double -0.0; as an integer it
      // would dump back as "0".
      if (res.ec == std::errc() && res.ptr == text_.data() + pos_ &&
          (v != 0 || text_[start] != '-')) {
        return Json(v);
      }
      if (text_[start] != '-') {
        // Integers in (INT64_MAX, UINT64_MAX] keep their unsigned value
        // (large sim seeds round-trip); only past that fall back to double.
        std::uint64_t u = 0;
        const auto ures =
            std::from_chars(text_.data() + start, text_.data() + pos_, u);
        if (ures.ec == std::errc() && ures.ptr == text_.data() + pos_) {
          return Json(u);
        }
      }
    }
    double d = 0;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (res.ec != std::errc() || res.ptr != text_.data() + pos_) {
      Fail("bad number");
    }
    return Json(d);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects open at pos_
};

}  // namespace

Json Json::Parse(const std::string& text) { return Parser(text).Run(); }

std::string JsonLine(const Json& j) {
  std::string line = j.Dump(0);
  line.push_back('\n');
  return line;
}

Json JsonStatusMessage(StatusCode code, const std::string& message) {
  Json status = Json::Object();
  status.Set("code", StatusCodeName(code));
  status.Set("ok", code == StatusCode::kOk);
  status.Set("message", message);
  Json j = Json::Object();
  j.Set("status", std::move(status));
  return j;
}

}  // namespace coc
