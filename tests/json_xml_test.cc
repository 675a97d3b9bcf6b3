// JSON substrate tests: depth accounting is the CVE-2015-5289 surface.
#include <gtest/gtest.h>

#include "src/sqlvalue/json.h"

namespace soft {
namespace {

JsonPtr Parse(const std::string& text, int max_depth = 512) {
  Result<JsonParseResult> r = ParseJson(text, max_depth);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.ok() ? r->value : JsonPtr();
}

TEST(JsonParse, Scalars) {
  EXPECT_EQ(Parse("null")->kind(), JsonKind::kNull);
  EXPECT_EQ(Parse("true")->bool_value(), true);
  EXPECT_EQ(Parse("false")->bool_value(), false);
  EXPECT_DOUBLE_EQ(Parse("1.5")->number_value(), 1.5);
  EXPECT_DOUBLE_EQ(Parse("-3e2")->number_value(), -300.0);
  EXPECT_EQ(Parse("\"hi\"")->string_value(), "hi");
}

TEST(JsonParse, Containers) {
  const JsonPtr arr = Parse("[1, [2, 3], {\"a\": 4}]");
  ASSERT_EQ(arr->kind(), JsonKind::kArray);
  EXPECT_EQ(arr->array_items().size(), 3u);
  const JsonPtr obj = Parse("{\"x\": 1, \"y\": [true]}");
  ASSERT_EQ(obj->kind(), JsonKind::kObject);
  EXPECT_EQ(obj->object_members().size(), 2u);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Parse("\"a\\nb\"")->string_value(), "a\nb");
  EXPECT_EQ(Parse("\"q\\\"q\"")->string_value(), "q\"q");
  EXPECT_EQ(Parse("\"\\u0041\"")->string_value(), "A");
  // Plain runs between escapes, and a megabyte run on each side of one.
  EXPECT_EQ(Parse("\"ab\\\\cd\\/ef\\u00e9g\"")->string_value(), "ab\\cd/ef\xC3\xA9g");
  const std::string run(1100000, 'x');
  EXPECT_EQ(Parse("\"" + run + "\\t" + run + "\"")->string_value(), run + "\t" + run);
}

TEST(JsonParse, Malformed) {
  EXPECT_FALSE(ParseJson("[1,").ok());
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("{a: 1}").ok());
  EXPECT_FALSE(ParseJson("[1] trailing").ok());
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  // Every way a string can be malformed keeps its message.
  EXPECT_EQ(ParseJson("\"abc").status().message(), "unterminated JSON string");
  EXPECT_EQ(ParseJson("\"abc\\").status().message(), "unterminated JSON string");
  EXPECT_EQ(ParseJson("\"a\\xb\"").status().message(), "invalid escape in JSON string");
  EXPECT_EQ(ParseJson("\"\\u00\"").status().message(), "truncated \\u escape in JSON string");
  EXPECT_EQ(ParseJson("\"\\u00zz\"").status().message(), "malformed \\u escape in JSON string");
}

TEST(JsonDepth, TrackedWhileParsing) {
  Result<JsonParseResult> r = ParseJson("[[[1]]]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->max_depth, 4);        // three arrays + the scalar level
  EXPECT_EQ(r->value->Depth(), 4);   // Depth() counts the scalar level too
}

TEST(JsonDepth, LimitIsResourceError) {
  // The CVE-2015-5289 shape: REPEAT('[', N) — here well-formed deep arrays.
  std::string deep;
  for (int i = 0; i < 600; ++i) {
    deep += "[";
  }
  deep += "1";
  for (int i = 0; i < 600; ++i) {
    deep += "]";
  }
  const Result<JsonParseResult> r = ParseJson(deep, 512);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // A generous limit accepts it.
  EXPECT_TRUE(ParseJson(deep, 1000).ok());
}

TEST(JsonDepth, ProbeCountsUnmatchedOpeners) {
  EXPECT_EQ(ProbeJsonNestingDepth("[[["), 3);
  EXPECT_EQ(ProbeJsonNestingDepth("[1,[1,[1,"), 3);
  EXPECT_EQ(ProbeJsonNestingDepth("[]"), 1);
  EXPECT_EQ(ProbeJsonNestingDepth("\"[[[\""), 0);  // brackets inside strings
  std::string repeat_poc;
  for (int i = 0; i < 100; ++i) {
    repeat_poc += "[1,";
  }
  EXPECT_EQ(ProbeJsonNestingDepth(repeat_poc), 100);  // the Case 5 input
}

TEST(JsonSerialize, RoundTrips) {
  for (const char* text :
       {"null", "true", "[1,2,3]", "{\"a\":1,\"b\":[false,null]}", "\"x\\\"y\""}) {
    const JsonPtr doc = Parse(text);
    EXPECT_EQ(Parse(doc->Serialize())->Serialize(), doc->Serialize()) << text;
  }
}

TEST(JsonPath, Resolution) {
  const JsonPtr doc = Parse("{\"a\": [10, {\"b\": 20}]}");
  Result<JsonPtr> hit = EvalJsonPath(doc, "$.a[1].b");
  ASSERT_TRUE(hit.ok());
  ASSERT_NE(*hit, nullptr);
  EXPECT_DOUBLE_EQ((*hit)->number_value(), 20);

  hit = EvalJsonPath(doc, "$.missing");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, nullptr);

  hit = EvalJsonPath(doc, "$.a[9]");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, nullptr);

  EXPECT_FALSE(EvalJsonPath(doc, "a.b").ok());    // must start with $
  EXPECT_FALSE(EvalJsonPath(doc, "$.a[x]").ok()); // malformed index
}

}  // namespace
}  // namespace soft
