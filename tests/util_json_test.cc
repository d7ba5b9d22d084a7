#include "util/json.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace sophon {
namespace {

TEST(Json, ScalarsDump) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b\\c\nd\te").dump(), "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(Json(std::string{'\x01'}).dump(), "\"\\u0001\"");
}

TEST(Json, ArrayAndObjectDump) {
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(Json());
  EXPECT_EQ(arr.dump(), "[1,\"two\",null]");

  Json obj = Json::object();
  obj.set("b", 2);
  obj.set("a", 1);
  // Insertion order preserved (deterministic artifacts).
  EXPECT_EQ(obj.dump(), "{\"b\":2,\"a\":1}");
}

TEST(Json, PrettyPrint) {
  Json obj = Json::object();
  obj.set("x", 1);
  EXPECT_EQ(obj.dump(2), "{\n  \"x\": 1\n}");
  EXPECT_EQ(Json::array().dump(2), "[]");
}

TEST(Json, SetOverwritesExistingKey) {
  Json obj = Json::object();
  obj.set("k", 1);
  obj.set("k", 2);
  EXPECT_EQ(obj.size(), 1u);
  EXPECT_EQ(obj.at("k").as_int(), 2);
}

TEST(Json, ParseScalars) {
  EXPECT_EQ(*Json::parse("null"), Json());
  EXPECT_EQ(*Json::parse("true"), Json(true));
  EXPECT_EQ(*Json::parse(" -12.5e2 "), Json(-1250.0));
  EXPECT_EQ(*Json::parse("\"hi\\nthere\""), Json("hi\nthere"));
  EXPECT_EQ(*Json::parse("\"\\u0041\""), Json("A"));
}

TEST(Json, ParseUnicodeEscapesToUtf8) {
  EXPECT_EQ(Json::parse("\"\\u00e9\"")->as_string(), "\xc3\xa9");       // é
  EXPECT_EQ(Json::parse("\"\\u20ac\"")->as_string(), "\xe2\x82\xac");  // €
}

TEST(Json, ParseNested) {
  const auto doc = Json::parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("a").size(), 3u);
  EXPECT_TRUE(doc->at("a").at(2).at("b").as_bool());
  EXPECT_EQ(doc->at("c").as_string(), "x");
}

TEST(Json, RoundTripProperty) {
  Json obj = Json::object();
  obj.set("name", "sophon");
  obj.set("pi", 3.141592653589793);
  obj.set("big", 1234567890123.0);
  obj.set("neg", -42);
  obj.set("flag", true);
  obj.set("nothing", Json());
  Json arr = Json::array();
  for (int i = 0; i < 20; ++i) arr.push_back(i * 0.1);
  obj.set("values", std::move(arr));

  for (const int indent : {0, 2, 4}) {
    const auto parsed = Json::parse(obj.dump(indent));
    ASSERT_TRUE(parsed.has_value()) << indent;
    EXPECT_EQ(*parsed, obj) << indent;
  }
}

TEST(Json, RejectsMalformed) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("01a").has_value());
  EXPECT_FALSE(Json::parse("1 2").has_value());  // trailing garbage
  EXPECT_FALSE(Json::parse("nul").has_value());
  EXPECT_FALSE(Json::parse("-").has_value());
  EXPECT_FALSE(Json::parse("1.").has_value());
  EXPECT_FALSE(Json::parse("1e").has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
}

TEST(Json, TypedAccessorsAreChecked) {
  const Json num(1.5);
  EXPECT_THROW((void)num.as_string(), ContractViolation);
  EXPECT_THROW((void)num.as_bool(), ContractViolation);
  EXPECT_THROW((void)num.as_int(), ContractViolation);  // not integral
  EXPECT_EQ(Json(3.0).as_int(), 3);
  const Json obj = Json::object();
  EXPECT_THROW((void)obj.at("missing"), ContractViolation);
  EXPECT_THROW((void)Json().size(), ContractViolation);
}

TEST(Json, IsIntegerGuardsAsInt) {
  EXPECT_TRUE(Json(3.0).is_integer());
  EXPECT_TRUE(Json(-7).is_integer());
  EXPECT_TRUE(Json(9007199254740992.0).is_integer());
  EXPECT_FALSE(Json(1.5).is_integer());
  EXPECT_FALSE(Json(1e300).is_integer());
  EXPECT_FALSE(Json("3").is_integer());
  EXPECT_FALSE(Json().is_integer());
}

}  // namespace
}  // namespace sophon
