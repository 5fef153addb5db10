#include "util/json.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace clrearly::util {
namespace {

// --- Value model -----------------------------------------------------------------

TEST(JsonValueTest, TypePredicates) {
  EXPECT_TRUE(JsonValue().is_null());
  EXPECT_TRUE(JsonValue(nullptr).is_null());
  EXPECT_TRUE(JsonValue(true).is_bool());
  EXPECT_TRUE(JsonValue(1.5).is_number());
  EXPECT_TRUE(JsonValue(42).is_number());
  EXPECT_TRUE(JsonValue("text").is_string());
  EXPECT_TRUE(JsonValue(JsonArray{}).is_array());
  EXPECT_TRUE(JsonValue(JsonObject{}).is_object());
}

TEST(JsonValueTest, TypedAccessorsThrowOnMismatch) {
  const JsonValue v(1.5);
  EXPECT_DOUBLE_EQ(v.as_number(), 1.5);
  EXPECT_THROW(v.as_string(), std::runtime_error);
  EXPECT_THROW(v.as_array(), std::runtime_error);
  EXPECT_THROW(v.as_object(), std::runtime_error);
  EXPECT_THROW(v.as_bool(), std::runtime_error);
  EXPECT_THROW(v.at("x"), std::runtime_error);
}

TEST(JsonValueTest, AsUint64AcceptsOnlyWholeNumbersBelowTwoPow64) {
  EXPECT_EQ(JsonValue(0.0).as_uint64(), 0u);
  EXPECT_EQ(JsonValue(-0.0).as_uint64(), 0u);
  EXPECT_EQ(JsonValue(42).as_uint64(), 42u);
  // The largest double below 2^64 converts exactly.
  EXPECT_EQ(JsonValue(18446744073709549568.0).as_uint64(),
            18446744073709549568ull);
  for (const double bad : {-1.0, -0.5, 0.5, 1.7, 18446744073709551616.0,
                           1e300, std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(JsonValue(bad).as_uint64(), std::runtime_error) << bad;
  }
  EXPECT_THROW(JsonValue("7").as_uint64(), std::runtime_error);
}

TEST(JsonValueTest, ObjectAccess) {
  const JsonValue obj(JsonObject{{"a", 1.0}, {"b", "two"}});
  EXPECT_DOUBLE_EQ(obj.at("a").as_number(), 1.0);
  EXPECT_EQ(obj.at("b").as_string(), "two");
  EXPECT_THROW(obj.at("missing"), std::runtime_error);
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_NE(obj.find("a"), nullptr);
  EXPECT_DOUBLE_EQ(obj.number_or("a", 9.0), 1.0);
  EXPECT_DOUBLE_EQ(obj.number_or("missing", 9.0), 9.0);
}

// --- Writer -----------------------------------------------------------------------

TEST(JsonWriteTest, Scalars) {
  EXPECT_EQ(json_serialize(JsonValue()), "null\n");
  EXPECT_EQ(json_serialize(JsonValue(true)), "true\n");
  EXPECT_EQ(json_serialize(JsonValue(false)), "false\n");
  EXPECT_EQ(json_serialize(JsonValue(3.0)), "3\n");
  EXPECT_EQ(json_serialize(JsonValue(-1.5)), "-1.5\n");
  EXPECT_EQ(json_serialize(JsonValue("hi")), "\"hi\"\n");
}

TEST(JsonWriteTest, EscapesStrings) {
  EXPECT_EQ(json_serialize(JsonValue("a\"b\\c\nd")),
            "\"a\\\"b\\\\c\\nd\"\n");
  EXPECT_EQ(json_serialize(JsonValue(std::string("\x01"))), "\"\\u0001\"\n");
}

TEST(JsonWriteTest, EmptyContainersCompact) {
  EXPECT_EQ(json_serialize(JsonValue(JsonArray{})), "[]\n");
  EXPECT_EQ(json_serialize(JsonValue(JsonObject{})), "{}\n");
}

TEST(JsonWriteTest, NonFiniteRejected) {
  EXPECT_THROW(json_serialize(JsonValue(1.0 / 0.0)), std::runtime_error);
}

// --- Parser -----------------------------------------------------------------------

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(json_parse("null").is_null());
  EXPECT_EQ(json_parse("true").as_bool(), true);
  EXPECT_EQ(json_parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(json_parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(json_parse("-1.25e2").as_number(), -125.0);
  EXPECT_EQ(json_parse("\"abc\"").as_string(), "abc");
}

TEST(JsonParseTest, NestedStructures) {
  const JsonValue v = json_parse(R"({
    "name": "x",
    "items": [1, 2, {"deep": true}],
    "empty": [],
    "nothing": null
  })");
  EXPECT_EQ(v.at("name").as_string(), "x");
  const JsonArray& items = v.at("items").as_array();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_DOUBLE_EQ(items[1].as_number(), 2.0);
  EXPECT_TRUE(items[2].at("deep").as_bool());
  EXPECT_TRUE(v.at("empty").as_array().empty());
  EXPECT_TRUE(v.at("nothing").is_null());
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(json_parse(R"("a\"b")").as_string(), "a\"b");
  EXPECT_EQ(json_parse(R"("line\nbreak")").as_string(), "line\nbreak");
  EXPECT_EQ(json_parse(R"("tab\there")").as_string(), "tab\there");
  EXPECT_EQ(json_parse(R"("A")").as_string(), "A");
  EXPECT_EQ(json_parse(R"("é")").as_string(), "\xc3\xa9");   // é
  EXPECT_EQ(json_parse(R"("€")").as_string(), "\xe2\x82\xac");  // €
}

TEST(JsonParseTest, MalformedInputsRejected) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "nul", "\"unterminated",
        "[1 2]", "{\"a\" 1}", "1 2", "{\"a\":1,}", "\"\\q\"", "\"\\u12g4\""}) {
    EXPECT_THROW(json_parse(bad), std::runtime_error) << bad;
  }
}

TEST(JsonParseTest, ReportsOffset) {
  try {
    json_parse("[1, oops]");
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(JsonParseTest, NestingUpToTheLimitParses) {
  JsonValue v = json_parse(nested_arrays(kMaxJsonDepth));
  std::size_t depth = 0;
  while (v.is_array()) {
    ++depth;
    if (v.as_array().empty()) break;
    v = JsonValue(v.as_array()[0]);
  }
  EXPECT_EQ(depth, kMaxJsonDepth);
  EXPECT_NO_THROW(json_parse(std::string(kMaxJsonDepth - 1, '[') + "{}" +
                             std::string(kMaxJsonDepth - 1, ']')));
}

TEST(JsonParseTest, NestingPastTheLimitThrowsWithItsOffset) {
  for (const std::string& deep :
       {nested_arrays(kMaxJsonDepth + 1),
        std::string(kMaxJsonDepth, '[') + "{}" +
            std::string(kMaxJsonDepth, ']'),
        std::string(kMaxJsonDepth / 2, '[') + "{\"a\":" +
            nested_arrays(kMaxJsonDepth) + "}" +
            std::string(kMaxJsonDepth / 2, ']')}) {
    try {
      json_parse(deep);
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      const std::string expected = "json_parse: nesting deeper than " +
                                   std::to_string(kMaxJsonDepth) + " levels";
      EXPECT_EQ(what.rfind(expected, 0), 0u) << what;
      EXPECT_NE(what.find("at offset"), std::string::npos) << what;
    }
  }
}

TEST(JsonParseTest, HostileNestingThrowsInsteadOfOverflowingTheStack) {
  // 200,000 unclosed '[' overflowed the recursive parser's stack before the
  // depth limit; now the 257th level is refused.
  EXPECT_THROW(json_parse(std::string(200000, '[')), std::runtime_error);
  EXPECT_THROW(json_parse(nested_arrays(200000)), std::runtime_error);
}

// --- Round trips -------------------------------------------------------------------

TEST(JsonRoundTripTest, ComplexDocument) {
  const JsonValue original(JsonObject{
      {"string", "with \"quotes\" and \\slashes\\"},
      {"numbers", JsonArray{JsonValue(0.0), JsonValue(-7.0),
                            JsonValue(3.14159), JsonValue(1e-9)}},
      {"flags", JsonArray{JsonValue(true), JsonValue(false), JsonValue()}},
      {"nested", JsonObject{{"inner", JsonArray{JsonValue(JsonObject{
                                {"k", 1.0}})}}}},
  });
  const JsonValue reparsed = json_parse(json_serialize(original));
  EXPECT_EQ(reparsed, original);
}

TEST(JsonRoundTripTest, NumbersKeepPrecision) {
  const double value = 0.12345678901234567;
  const JsonValue reparsed = json_parse(json_serialize(JsonValue(value)));
  EXPECT_DOUBLE_EQ(reparsed.as_number(), value);
}

}  // namespace
}  // namespace clrearly::util
