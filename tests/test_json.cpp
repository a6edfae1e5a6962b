#include "analysis/json.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/figures.hpp"
#include "core/scenario.hpp"

namespace gpupower::analysis {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(JsonValue::null().dump(), "null");
  EXPECT_EQ(JsonValue::boolean(true).dump(), "true");
  EXPECT_EQ(JsonValue::boolean(false).dump(), "false");
  EXPECT_EQ(JsonValue::integer(-42).dump(), "-42");
  EXPECT_EQ(JsonValue::number(2.5).dump(), "2.5");
  EXPECT_EQ(JsonValue::string("hi").dump(), "\"hi\"");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(JsonValue::number(std::nan("")).dump(), "null");
  EXPECT_EQ(JsonValue::number(INFINITY).dump(), "null");
}

TEST(Json, Escaping) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(JsonValue::string("x\ty").dump(), "\"x\\ty\"");
}

TEST(Json, ObjectsAndArraysCompact) {
  JsonValue obj = JsonValue::object();
  obj.set("a", JsonValue::integer(1)).set("b", JsonValue::string("two"));
  EXPECT_EQ(obj.dump(), "{\"a\":1,\"b\":\"two\"}");

  JsonValue arr = JsonValue::array();
  arr.push(JsonValue::integer(1)).push(JsonValue::boolean(false));
  EXPECT_EQ(arr.dump(), "[1,false]");

  EXPECT_EQ(JsonValue::object().dump(), "{}");
  EXPECT_EQ(JsonValue::array().dump(), "[]");
}

TEST(Json, PrettyPrinting) {
  JsonValue obj = JsonValue::object();
  obj.set("k", JsonValue::integer(1));
  EXPECT_EQ(obj.dump(true), "{\n  \"k\": 1\n}");
}

// An all-number array (a trace column) prints on one line; any other
// array keeps one element per line.  Compact output is unchanged.
TEST(Json, PrettyPrintingKeepsNumberArraysOnOneLine) {
  JsonValue numbers = JsonValue::array();
  numbers.push(JsonValue::integer(1)).push(JsonValue::number(2.5));
  JsonValue mixed = JsonValue::array();
  mixed.push(JsonValue::integer(1)).push(JsonValue::string("a"));
  JsonValue obj = JsonValue::object();
  obj.set("xs", std::move(numbers)).set("ys", std::move(mixed));
  EXPECT_EQ(obj.dump(true),
            "{\n  \"xs\": [1, 2.5],\n  \"ys\": [\n    1,\n    \"a\"\n  ]\n}");
  EXPECT_EQ(obj.dump(), "{\"xs\":[1,2.5],\"ys\":[1,\"a\"]}");
  const JsonParseResult parsed = json_parse(obj.dump(true));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.dump(), obj.dump());
}

TEST(Json, Nesting) {
  JsonValue inner = JsonValue::array();
  inner.push(JsonValue::number(1.5));
  JsonValue obj = JsonValue::object();
  obj.set("xs", std::move(inner));
  EXPECT_EQ(obj.dump(), "{\"xs\":[1.5]}");
}

TEST(ScenarioJson, StaticDocumentCarriesSpecAndResult) {
  gpupower::core::ExperimentConfig config;
  config.dtype = gpupower::numeric::DType::kFP16;
  config.n = 128;
  config.seeds = 1;
  config.pattern = gpupower::core::baseline_gaussian_spec();
  const std::string json =
      gpupower::core::scenario_to_json(config,
                                       gpupower::core::run_scenario(config))
          .dump();
  // The spec half names the working point and protocol in spec spellings.
  EXPECT_NE(json.find("\"gpu\":\"a100\""), std::string::npos);
  EXPECT_NE(json.find("\"dtype\":\"fp16\""), std::string::npos);
  EXPECT_NE(json.find("\"pattern\":\"gaussian(mean=0)\""), std::string::npos);
  EXPECT_NE(json.find("\"n\":128"), std::string::npos);
  EXPECT_NE(json.find("\"sampling\":"), std::string::npos);
  // The result half is the store codec: summary, rails and seed count.
  EXPECT_NE(json.find("\"power_w\":"), std::string::npos);
  EXPECT_NE(json.find("\"rails\":"), std::string::npos);
  EXPECT_NE(json.find("\"seeds\":1"), std::string::npos);
}

}  // namespace
}  // namespace gpupower::analysis
