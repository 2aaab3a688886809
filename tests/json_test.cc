// Tests for the shared JSON layer: deterministic emission (insertion order,
// shortest round-trip numbers, non-finite -> null), the streaming writer,
// the strict parser, and emit/parse round trips — the invariants the golden report snapshots and
// the batch bit-identity guarantee stand on.
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <string>

#include "common/json.h"
#include "gtest/gtest.h"

namespace coc {
namespace {

TEST(Json, EmitsInInsertionOrderCompactAndPretty) {
  Json j = Json::Object();
  j.Set("zebra", 1);
  j.Set("alpha", Json::Array().Push(true).Push(Json()).Push("x"));
  j.Set("nested", Json::Object().Set("k", 2.5));
  EXPECT_EQ(j.Dump(),
            "{\"zebra\":1,\"alpha\":[true,null,\"x\"],\"nested\":{\"k\":2.5}}");
  EXPECT_EQ(j.Dump(2),
            "{\n  \"zebra\": 1,\n  \"alpha\": [\n    true,\n    null,\n"
            "    \"x\"\n  ],\n  \"nested\": {\n    \"k\": 2.5\n  }\n}");
}

TEST(Json, NumbersAreShortestRoundTrip) {
  EXPECT_EQ(Json(0.1).Dump(), "0.1");
  EXPECT_EQ(Json(1e-4).Dump(), "1e-04");
  EXPECT_EQ(Json(1.0 / 3.0).Dump(), "0.3333333333333333");
  EXPECT_EQ(Json(std::int64_t{1} << 62).Dump(), "4611686018427387904");
  EXPECT_EQ(Json(-42).Dump(), "-42");
  // uint64 values above INT64_MAX keep their unsigned spelling and parse
  // back equal (large sim seeds round-trip through reports).
  EXPECT_EQ(Json(std::uint64_t{18446744073709551615ull}).Dump(),
            "18446744073709551615");
  EXPECT_EQ(Json::Parse("18446744073709551615"),
            Json(std::uint64_t{18446744073709551615ull}));
  EXPECT_EQ(Json::Parse("18446744073709551615").AsUint(),
            18446744073709551615ull);
  EXPECT_EQ(Json(std::uint64_t{7}), Json(std::int64_t{7}));  // small agrees
  // Non-finite doubles have no JSON spelling; they emit as null.
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).Dump(), "null");
  EXPECT_EQ(Json(std::nan("")).Dump(), "null");
}

TEST(Json, StringsEscape) {
  EXPECT_EQ(Json("a\"b\\c\nd\t").Dump(), "\"a\\\"b\\\\c\\nd\\t\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).Dump(), "\"\\u0001\"");
}

TEST(Json, ParseRoundTripsEmittedDocuments) {
  Json j = Json::Object();
  j.Set("pi", 3.141592653589793);
  j.Set("count", std::int64_t{123456789012345});
  j.Set("label", "hello \"world\"\n");
  j.Set("flags", Json::Array().Push(true).Push(false).Push(Json()));
  j.Set("inner", Json::Object().Set("neg", -1e-9));
  for (const int indent : {0, 2}) {
    const Json back = Json::Parse(j.Dump(indent));
    EXPECT_EQ(back, j) << "indent " << indent;
    EXPECT_EQ(back.Dump(2), j.Dump(2)) << "indent " << indent;
  }
}

TEST(Json, ParseAcceptsStandardInput) {
  const Json doc = Json::Parse(
      "  {\"a\": [1, 2.5, -3e2], \"b\": {\"c\": \"\\u0041\"} } ");
  EXPECT_EQ(doc.Find("a")->At(0).AsInt(), 1);
  EXPECT_DOUBLE_EQ(doc.Find("a")->At(1).AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(doc.Find("a")->At(2).AsDouble(), -300.0);
  EXPECT_EQ(doc.Find("b")->Find("c")->AsString(), "A");
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(Json, ParseRejectsMalformedInput) {
  // The last two nest far past the parser's depth cap of 256 levels.
  std::string deep_objects;
  for (int i = 0; i < 1024 * 1024 / 5; ++i) deep_objects += "{\"a\":";
  for (const std::string& bad :
       {std::string(""), std::string("{"), std::string("[1,]"),
        std::string("{\"a\" 1}"), std::string("tru"),
        std::string("\"unterminated"), std::string("{\"a\":1} trailing"),
        std::string("01x"), std::string("{'a':1}"),
        std::string(100 * 1024, '['), deep_objects}) {
    EXPECT_THROW(Json::Parse(bad), std::invalid_argument) << bad.substr(0, 40);
  }
}

TEST(Json, DepthCapNamesTheByteOffset) {
  const std::string at_cap = std::string(256, '[') + std::string(256, ']');
  EXPECT_NO_THROW(Json::Parse(at_cap));
  try {
    Json::Parse(std::string(257, '['));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("at byte 256"), std::string::npos)
        << e.what();
  }
}

TEST(Json, NonFiniteNumbersRoundTripThroughSentinels) {
  // JsonWriter::Number keeps non-finite doubles lossless on the wire: the key
  // emits as null plus an explicit "<key>_nonfinite" sentinel, which the
  // parsed document keeps beside the null.
  const double inf = std::numeric_limits<double>::infinity();
  JsonWriter w;
  w.BeginObject().Number("pos", inf).Number("neg", -inf);
  w.Number("nan", std::nan("")).Number("plain", 2.5).EndObject();
  EXPECT_EQ(w.text(),
            "{\"pos\":null,\"pos_nonfinite\":\"inf\","
            "\"neg\":null,\"neg_nonfinite\":\"-inf\","
            "\"nan\":null,\"nan_nonfinite\":\"nan\","
            "\"plain\":2.5}");
  const Json back = Json::Parse(w.text());
  EXPECT_TRUE(back.Find("pos")->is_null());
  EXPECT_EQ(back.Find("pos_nonfinite")->AsString(), "inf");
  EXPECT_EQ(back.Find("neg_nonfinite")->AsString(), "-inf");
  EXPECT_EQ(back.Find("nan_nonfinite")->AsString(), "nan");
  EXPECT_EQ(back.Find("plain")->AsDouble(), 2.5);
  EXPECT_EQ(back.Find("plain_nonfinite"), nullptr);
}

TEST(JsonWriter, PlacesCommasAndSpellsLikeDump) {
  JsonWriter w;
  w.BeginObject().Key("empty").BeginObject().EndObject();
  w.Key("none").BeginArray().EndArray();
  w.Key("list").BeginArray().Int(-42).Uint(18446744073709551615ull);
  w.Bool(true).String("a\"b\\c\nd\t\x01").BeginObject().EndObject();
  w.EndArray().Number("x", 1e-4).Number("neg_zero", -0.0).EndObject();
  EXPECT_EQ(w.text(),
            "{\"empty\":{},\"none\":[],\"list\":[-42,18446744073709551615,"
            "true,\"a\\\"b\\\\c\\nd\\t\\u0001\",{}],\"x\":1e-04,"
            "\"neg_zero\":-0}");
  EXPECT_EQ(Json::Parse(w.text()).Dump(), w.text());
}

TEST(Json, NegativeZeroParsesAsTheDoubleItSpells) {
  // std::to_chars spells -0.0 as "-0"; read as an integer it would dump "0".
  const Json z = Json::Parse("-0");
  EXPECT_EQ(z.kind(), Json::Kind::kDouble);
  EXPECT_TRUE(std::signbit(z.AsDouble()));
  EXPECT_EQ(z.Dump(), "-0");
  EXPECT_EQ(Json(-0.0).Dump(), "-0");
  EXPECT_EQ(Json::Parse("0").kind(), Json::Kind::kInt);
  EXPECT_EQ(Json::Parse("-1").kind(), Json::Kind::kInt);
}

/// Writes a random document into `w`: nested objects and arrays whose
/// leaves are the values a spelling can go wrong on.
class RandomDocument {
 public:
  explicit RandomDocument(std::uint64_t seed) : rng_(seed) {}

  void Write(JsonWriter& w) {
    if (Below(2) == 0) {
      Object(w, 0);
    } else {
      Array(w, 0);
    }
  }

 private:
  std::uint64_t Below(std::uint64_t n) { return rng_() % n; }

  double Double() {
    static const double kEdges[] = {
        -0.0, 0.0, 9007199254740991.0, 9007199254740992.0,
        9007199254740994.0, -9007199254740991.0, -9007199254740994.0,
        1e308, -1e308, 1e-308, -1e-308, 4.9406564584124654e-324,
        2.2250738585072009e-308, std::numeric_limits<double>::max(),
        9223372036854775808.0, -9223372036854775808.0,
        18446744073709551616.0, 36893488147419103232.0, 1e20, -1e20,
        0.1, 1.0 / 3.0, 100.0, 1e-4, 123456789.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    if (Below(2) == 0) return kEdges[Below(std::size(kEdges))];
    return std::bit_cast<double>(rng_());  // any bits, NaNs included
  }

  std::int64_t Int() {
    static const std::int64_t kEdges[] = {
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max(), 0, -1, 1,
        9007199254740993};
    if (Below(2) == 0) return kEdges[Below(std::size(kEdges))];
    return static_cast<std::int64_t>(rng_());
  }

  std::uint64_t Uint() {
    return (std::uint64_t{1} << 63) | rng_();  // above INT64_MAX
  }

  std::string Text() {
    static const char kBytes[] = "\x01\x1f\b\f\n\r\t\"\\/ az09_-.:{}[],\x7f";
    std::string s;
    for (std::uint64_t n = Below(8); n > 0; --n) {
      const std::uint64_t pick = Below(4);
      if (pick == 0) {
        s += static_cast<char>(0x80 + Below(0x80));  // a raw non-ASCII byte
      } else if (pick == 1) {
        s += static_cast<char>(Below(0x20));  // any control character
      } else {
        s += kBytes[Below(sizeof kBytes - 1)];
      }
    }
    return s;
  }

  void Value(JsonWriter& w, int depth) {
    switch (Below(depth < 4 ? 7 : 5)) {
      case 0: w.Int(Int()); break;
      case 1: w.Uint(Uint()); break;
      case 2: w.String(Text()); break;
      case 3: w.Bool(Below(2) == 0); break;
      case 4: w.String(""); break;
      case 5: Object(w, depth + 1); break;
      default: Array(w, depth + 1); break;
    }
  }

  void Object(JsonWriter& w, int depth) {
    w.BeginObject();
    for (std::uint64_t i = 0, n = Below(7); i < n; ++i) {
      // Distinct keys: each ends in its index, which no "_nonfinite"
      // sentinel key does.
      const std::string key = Text() + "#" + std::to_string(i);
      if (Below(2) == 0) {
        w.Number(key, Double());
      } else {
        w.Key(key);
        Value(w, depth);
      }
    }
    w.EndObject();
  }

  void Array(JsonWriter& w, int depth) {
    w.BeginArray();
    for (std::uint64_t n = Below(6); n > 0; --n) Value(w, depth);
    w.EndArray();
  }

  std::mt19937_64 rng_;
};

TEST(JsonWriter, ParseDumpsEveryWrittenDocumentBackToItsBytes) {
  // The property the report renderer stands on: Report::ToJson() is
  // Json::Parse(ToJsonText()), and its Dump() must be the served bytes.
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    RandomDocument doc(seed);
    JsonWriter w;
    doc.Write(w);
    ASSERT_EQ(Json::Parse(w.text()).Dump(), w.text()) << "seed " << seed;
  }
}

TEST(Json, SetOverwritesInPlaceKeepingPosition) {
  Json j = Json::Object();
  j.Set("first", 1).Set("second", 2).Set("first", 10);
  EXPECT_EQ(j.Dump(), "{\"first\":10,\"second\":2}");
}

}  // namespace
}  // namespace coc
