// Tests for the shared JSON layer: deterministic emission (insertion order,
// shortest round-trip numbers, non-finite -> null), the strict parser, and
// emit/parse round trips — the invariants the golden report snapshots and
// the batch bit-identity guarantee stand on.
#include <cmath>
#include <limits>
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
  // JsonSetNumber keeps non-finite doubles lossless on the wire: the key
  // emits as null plus an explicit "<key>_nonfinite" sentinel, and
  // JsonGetNumber reconstructs the original value from the parsed document.
  const double inf = std::numeric_limits<double>::infinity();
  Json j = Json::Object();
  JsonSetNumber(j, "pos", inf);
  JsonSetNumber(j, "neg", -inf);
  JsonSetNumber(j, "nan", std::nan(""));
  JsonSetNumber(j, "plain", 2.5);
  EXPECT_EQ(j.Dump(),
            "{\"pos\":null,\"pos_nonfinite\":\"inf\","
            "\"neg\":null,\"neg_nonfinite\":\"-inf\","
            "\"nan\":null,\"nan_nonfinite\":\"nan\","
            "\"plain\":2.5}");
  const Json back = Json::Parse(j.Dump());
  EXPECT_EQ(JsonGetNumber(back, "pos"), inf);
  EXPECT_EQ(JsonGetNumber(back, "neg"), -inf);
  EXPECT_TRUE(std::isnan(JsonGetNumber(back, "nan")));
  EXPECT_DOUBLE_EQ(JsonGetNumber(back, "plain"), 2.5);
  // A finite overwrite of a previously non-finite key retires the sentinel.
  JsonSetNumber(j, "pos", 1.0);
  EXPECT_EQ(j.Find("pos")->AsDouble(), 1.0);
  EXPECT_EQ(j.Find("pos_nonfinite"), nullptr);
  // Strictness: a missing field and a bare null without its sentinel are
  // both errors — an ambiguous null must not quietly become a number.
  const Json bare = Json::Parse("{\"x\":null}");
  EXPECT_THROW(JsonGetNumber(bare, "x"), std::invalid_argument);
  EXPECT_THROW(JsonGetNumber(bare, "absent"), std::invalid_argument);
  const Json odd = Json::Parse("{\"x\":null,\"x_nonfinite\":\"huge\"}");
  EXPECT_THROW(JsonGetNumber(odd, "x"), std::invalid_argument);
}

TEST(Json, SetOverwritesInPlaceKeepingPosition) {
  Json j = Json::Object();
  j.Set("first", 1).Set("second", 2).Set("first", 10);
  EXPECT_EQ(j.Dump(), "{\"first\":10,\"second\":2}");
}

}  // namespace
}  // namespace coc
