// Tests for the serving protocol's JSON value type: deterministic
// byte-stable dumps (the property the served-vs-CLI differential rests
// on), parse/dump round-trips, escape and surrogate handling, and
// positioned rejection of malformed input.
#include <gtest/gtest.h>

#include <string>

#include "server/json.hpp"

namespace mdd::server {
namespace {

TEST(JsonDump, ScalarsAndNumberFormatting) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  // Integral doubles print without a fractional part — report counts and
  // ids must not grow a ".0" on the wire.
  EXPECT_EQ(Json(0.0).dump(), "0");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(JsonDump, ObjectsKeepInsertionOrder) {
  Json obj;
  obj.set("zebra", 1);
  obj.set("apple", 2);
  obj.set("mango", 3);
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
  // set() on an existing key replaces in place, preserving position.
  obj.set("apple", 9);
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":9,\"mango\":3}");
}

TEST(JsonDump, ControlCharactersEscaped) {
  EXPECT_EQ(Json("a\nb\tc").dump(), "\"a\\nb\\tc\"");
  EXPECT_EQ(Json(std::string("\x01", 1)).dump(), "\"\\u0001\"");
  EXPECT_EQ(Json("quote\"back\\slash").dump(),
            "\"quote\\\"back\\\\slash\"");
}

TEST(JsonRoundTrip, ParseOfDumpIsIdentity) {
  Json nested;
  nested.set("tfsf", 3);
  JsonArray arr;
  arr.emplace_back("sa0 n16");
  arr.emplace_back(nullptr);
  arr.push_back(nested);
  // Members built in place: no Json is move-assigned from a temporary.
  JsonObject members;
  members.emplace_back("id", 7);
  members.emplace_back("status", "ok");
  members.emplace_back("partial", true);
  members.emplace_back("score", -12.25);
  members.emplace_back("suspects", std::move(arr));
  const Json obj(std::move(members));

  const std::string wire = obj.dump();
  const Json back = Json::parse(wire);
  EXPECT_EQ(back, obj);
  EXPECT_EQ(back.dump(), wire);
}

TEST(JsonParse, WhitespaceAndLookups) {
  const Json v = Json::parse("  { \"a\" : [ 1 , 2.5 , \"x\" ] ,\n"
                             "    \"b\" : { \"c\" : null } }  ");
  ASSERT_TRUE(v.is_object());
  const Json* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->as_array().size(), 3u);
  EXPECT_EQ(a->as_array()[1].as_number(), 2.5);
  EXPECT_EQ(v.get_string("missing", "dflt"), "dflt");
  const Json* b = v.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->find("c")->is_null());
}

TEST(JsonParse, UnicodeEscapes) {
  // BMP escape decodes to UTF-8.
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
  // Surrogate pair: U+1F600 (4-byte UTF-8).
  EXPECT_EQ(Json::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
  // Unpaired surrogates are rejected, either half.
  EXPECT_THROW(Json::parse("\"\\ud83d\""), std::runtime_error);
  EXPECT_THROW(Json::parse("\"\\ude00\""), std::runtime_error);
  EXPECT_THROW(Json::parse("\"\\uZZZZ\""), std::runtime_error);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(Json::parse("nul"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"raw\ncontrol\""), std::runtime_error);
  // One value per parse — trailing junk is an error, not ignored.
  EXPECT_THROW(Json::parse("{} {}"), std::runtime_error);
  EXPECT_THROW(Json::parse("1 2"), std::runtime_error);
}

TEST(JsonParse, ErrorsCarryBytePosition) {
  try {
    Json::parse("{\"a\": bogus}");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    // The reader points at where it gave up — a client debugging a bad
    // request needs the offset, not just "syntax error".
    EXPECT_NE(std::string(e.what()).find("6"), std::string::npos)
        << e.what();
  }
}

TEST(JsonParse, BoundsRecursionDepth) {
  // Depth 64 nests fine; one deeper is rejected (stack safety against a
  // hostile client).
  std::string deep_ok(64, '[');
  deep_ok += "1";
  deep_ok.append(64, ']');
  EXPECT_NO_THROW(Json::parse(deep_ok));

  std::string too_deep(65, '[');
  too_deep += "1";
  too_deep.append(65, ']');
  EXPECT_THROW(Json::parse(too_deep), std::runtime_error);
}

TEST(JsonAccessors, TypeMismatchFallsBackToDefault) {
  const Json num(3.5);
  EXPECT_EQ(num.as_string(), "");
  EXPECT_TRUE(num.as_array().empty());
  EXPECT_TRUE(num.as_object().empty());
  EXPECT_EQ(num.find("k"), nullptr);
  EXPECT_EQ(Json("text").as_number(9.0), 9.0);
  EXPECT_EQ(Json("text").as_bool(true), true);
  EXPECT_EQ(Json(2.9).as_int(), 2);  // toward zero, JSON's double model
}

}  // namespace
}  // namespace mdd::server
