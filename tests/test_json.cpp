#include "voprof/util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace voprof::util {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-3.25e2").as_number(), -325.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const Json doc = Json::parse(R"({
    "name": "bench",
    "reps": 5,
    "wall_s": {"median": 0.125, "raw": [0.1, 0.15]},
    "flags": [true, false, null]
  })");
  EXPECT_EQ(doc.at("name").as_string(), "bench");
  EXPECT_DOUBLE_EQ(doc.at("reps").as_number(), 5.0);
  EXPECT_DOUBLE_EQ(doc.at("wall_s").at("median").as_number(), 0.125);
  ASSERT_EQ(doc.at("wall_s").at("raw").as_array().size(), 2u);
  EXPECT_TRUE(doc.at("flags").as_array()[2].is_null());
  const std::string deepest = std::string(Json::kMaxDepth, '[') +
                              std::string(Json::kMaxDepth, ']');
  EXPECT_TRUE(Json::parse(deepest).is_array());
}

TEST(Json, StringEscapes) {
  const Json doc = Json::parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(doc.as_string(), "a\"b\\c\nd\teA");
  // Round trip through dump.
  EXPECT_EQ(Json::parse(doc.dump(0)).as_string(), doc.as_string());
}

TEST(Json, DumpKeepsInsertionOrderAndRoundTrips) {
  Json obj = Json::object();
  obj.set("zeta", 1);
  obj.set("alpha", Json::array());
  obj.set("mid", "x");
  const std::string text = obj.dump(0);
  EXPECT_EQ(text, R"({"zeta":1,"alpha":[],"mid":"x"})");
  const Json back = Json::parse(text);
  EXPECT_EQ(back.dump(0), text);
}

TEST(Json, NumbersRoundTripExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 6.02e23, -0.0005475329999171663}) {
    Json j(v);
    EXPECT_DOUBLE_EQ(Json::parse(j.dump(0)).as_number(), v);
  }
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  Json arr = Json::array();
  arr.push_back(std::numeric_limits<double>::quiet_NaN());
  arr.push_back(std::numeric_limits<double>::infinity());
  arr.push_back(1.5);
  const Json back = Json::parse(arr.dump(0));
  EXPECT_TRUE(back.as_array()[0].is_null());
  EXPECT_TRUE(back.as_array()[1].is_null());
  EXPECT_DOUBLE_EQ(back.as_array()[2].as_number(), 1.5);
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW((void)Json::parse(""), JsonError);
  EXPECT_THROW((void)Json::parse("{"), JsonError);
  EXPECT_THROW((void)Json::parse("[1,]"), JsonError);
  EXPECT_THROW((void)Json::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW((void)Json::parse("nul"), JsonError);
  EXPECT_THROW((void)Json::parse("1 2"), JsonError);  // trailing token
  EXPECT_THROW((void)Json::parse("\"unterminated"), JsonError);
  // One level past the nesting limit, closed or not.
  const std::string too_deep = std::string(Json::kMaxDepth + 1, '[') +
                               std::string(Json::kMaxDepth + 1, ']');
  EXPECT_THROW((void)Json::parse(too_deep), JsonError);
  std::string objects;
  for (int i = 0; i < 20000; ++i) objects += R"({"a":)";
  EXPECT_THROW((void)Json::parse(objects), JsonError);
}

TEST(Json, TypeMismatchedAccessThrows) {
  const Json n(1.0);
  EXPECT_THROW((void)n.as_string(), JsonError);
  EXPECT_THROW((void)n.as_array(), JsonError);
  EXPECT_THROW((void)n.at("k"), JsonError);
  const Json obj = Json::parse(R"({"a": 1})");
  EXPECT_THROW((void)obj.at("missing"), JsonError);
  EXPECT_EQ(obj.find("missing"), nullptr);
  ASSERT_NE(obj.find("a"), nullptr);
  EXPECT_DOUBLE_EQ(obj.find("a")->as_number(), 1.0);
}

TEST(Json, PrettyPrintIsStable) {
  Json obj = Json::object();
  obj.set("a", 1);
  Json inner = Json::array();
  inner.push_back(2);
  obj.set("b", std::move(inner));
  EXPECT_EQ(obj.dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

}  // namespace
}  // namespace voprof::util
