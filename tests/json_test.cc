#include <gtest/gtest.h>

#include "src/json/json.h"
#include "src/util/rng.h"

namespace configerator {
namespace {

TEST(JsonTest, Kinds) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(int64_t{3}).is_int());
  EXPECT_TRUE(Json(3.5).is_double());
  EXPECT_TRUE(Json("s").is_string());
  EXPECT_TRUE(Json::MakeArray().is_array());
  EXPECT_TRUE(Json::MakeObject().is_object());
  EXPECT_TRUE(Json(int64_t{3}).is_number());
  EXPECT_TRUE(Json(3.5).is_number());
}

TEST(JsonTest, ObjectAccess) {
  Json obj = Json::MakeObject();
  obj.Set("a", 1);
  obj.Set("b", "two");
  EXPECT_TRUE(obj.Has("a"));
  EXPECT_FALSE(obj.Has("z"));
  EXPECT_EQ(obj.Get("a")->as_int(), 1);
  EXPECT_EQ(obj.Get("b")->as_string(), "two");
  EXPECT_EQ(obj.Get("z"), nullptr);
  EXPECT_EQ(obj.size(), 2u);
}

TEST(JsonTest, GetOnNonObjectIsNull) {
  Json arr = Json::MakeArray();
  EXPECT_EQ(arr.Get("x"), nullptr);
  EXPECT_EQ(Json(3.0).Get("x"), nullptr);
}

TEST(JsonTest, ArrayAppend) {
  Json arr = Json::MakeArray();
  arr.Append(1);
  arr.Append("x");
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr.as_array()[0].as_int(), 1);
}

TEST(JsonTest, DumpCompact) {
  Json obj = Json::MakeObject();
  obj.Set("b", 2);
  obj.Set("a", 1);
  // Keys are sorted: deterministic serialization.
  EXPECT_EQ(obj.Dump(), R"({"a": 1, "b": 2})");
}

TEST(JsonTest, DumpPrettyEndsWithNewline) {
  Json obj = Json::MakeObject();
  obj.Set("a", Json::MakeArray());
  std::string out = obj.DumpPretty();
  EXPECT_TRUE(out.ends_with("\n"));
  EXPECT_NE(out.find("  \"a\": []"), std::string::npos);
}

TEST(JsonTest, DumpEscapes) {
  Json s("line\n\"quoted\"\t\\");
  EXPECT_EQ(s.Dump(), R"("line\n\"quoted\"\t\\")");
}

TEST(JsonTest, DumpControlCharacters) {
  Json s(std::string("\x01", 1));
  EXPECT_EQ(s.Dump(), "\"\\u0001\"");
}

TEST(JsonTest, NanSerializesAsNull) {
  Json d(std::nan(""));
  EXPECT_EQ(d.Dump(), "null");
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_EQ(Json::Parse("true")->as_bool(), true);
  EXPECT_EQ(Json::Parse("false")->as_bool(), false);
  EXPECT_EQ(Json::Parse("42")->as_int(), 42);
  EXPECT_EQ(Json::Parse("-7")->as_int(), -7);
  EXPECT_DOUBLE_EQ(Json::Parse("3.25")->as_double(), 3.25);
  EXPECT_DOUBLE_EQ(Json::Parse("1e3")->as_double(), 1000.0);
  EXPECT_EQ(Json::Parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonParseTest, Containers) {
  auto parsed = Json::Parse(R"({"a": [1, 2, {"b": null}], "c": "x"})");
  ASSERT_TRUE(parsed.ok());
  const Json& a = *parsed->Get("a");
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.size(), 3u);
  EXPECT_TRUE(a.as_array()[2].Get("b")->is_null());
}

TEST(JsonParseTest, WhitespaceTolerant) {
  auto parsed = Json::Parse("  {\n\t\"a\" :  1 ,\r\n \"b\": [ ] }  ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("a")->as_int(), 1);
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(Json::Parse(R"("a\nb")")->as_string(), "a\nb");
  EXPECT_EQ(Json::Parse(R"("A")")->as_string(), "A");
  EXPECT_EQ(Json::Parse(R"("é")")->as_string(), "\xc3\xa9");  // é UTF-8.
  EXPECT_EQ(Json::Parse(R"("😀")")->as_string(),
            "\xf0\x9f\x98\x80");  // 😀 via surrogate pair.
}

TEST(JsonParseTest, RejectsMalformed) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());  // Trailing garbage.
  EXPECT_FALSE(Json::Parse("{\"a\":1,}").ok());
}

// Hostile nesting is an error status, not a stack overflow.
TEST(JsonParseTest, RejectsNestingBeyondTheCap) {
  auto nested = [](const std::string& open, const std::string& close,
                   int depth) {
    std::string text;
    for (int i = 0; i < depth; ++i) {
      text += open;
    }
    text += "1";
    for (int i = 0; i < depth; ++i) {
      text += close;
    }
    return text;
  };
  const int cap = Json::kMaxParseDepth;
  EXPECT_TRUE(Json::Parse(nested("[", "]", cap)).ok());
  EXPECT_TRUE(Json::Parse(nested("{\"k\":", "}", cap)).ok());
  for (const std::string& text :
       {nested("[", "]", cap + 1), nested("{\"k\":", "}", cap + 1),
        nested("[{\"k\":", "}]", cap), std::string(10'000, '[')}) {
    auto parsed = Json::Parse(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("nesting deeper than"),
              std::string::npos)
        << parsed.status();
  }
}

TEST(JsonParseTest, BigIntegerFallsBackToDouble) {
  auto parsed = Json::Parse("123456789012345678901234567890");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->is_double());
}

TEST(JsonTest, Equality) {
  EXPECT_EQ(*Json::Parse("{\"a\": [1, 2]}"), *Json::Parse("{\"a\":[1,2]}"));
  EXPECT_FALSE(*Json::Parse("1") == *Json::Parse("2"));
  // Cross-kind numeric equality.
  EXPECT_EQ(Json(int64_t{2}), Json(2.0));
}

TEST(JsonRoundTripTest, CompactRoundTrips) {
  const char* docs[] = {
      "null",
      "true",
      "[1, 2, 3]",
      R"({"a": 1, "b": [true, null, "x"], "c": {"d": 1.5}})",
      R"({"empty_obj": {}, "empty_arr": []})",
      R"("string with \"escapes\" and \n newline")",
  };
  for (const char* doc : docs) {
    auto first = Json::Parse(doc);
    ASSERT_TRUE(first.ok()) << doc;
    auto second = Json::Parse(first->Dump());
    ASSERT_TRUE(second.ok()) << first->Dump();
    EXPECT_EQ(*first, *second) << doc;
  }
}

TEST(JsonRoundTripTest, PrettyRoundTrips) {
  auto doc = Json::Parse(R"({"a": {"b": [1, {"c": 2}]}, "d": "x"})");
  ASSERT_TRUE(doc.ok());
  auto reparsed = Json::Parse(doc->DumpPretty());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*doc, *reparsed);
}

// Property test: random documents round-trip through Dump/Parse.
class JsonPropertyTest : public ::testing::TestWithParam<uint64_t> {};

Json RandomJson(Rng& rng, int depth) {
  switch (rng.NextBounded(depth >= 3 ? 5 : 7)) {
    case 0:
      return Json(nullptr);
    case 1:
      return Json(rng.NextBool(0.5));
    case 2:
      return Json(static_cast<int64_t>(rng.Next()));
    case 3:
      return Json(rng.NextGaussian() * 1e6);
    case 4: {
      std::string s;
      size_t n = rng.NextBounded(20);
      for (size_t i = 0; i < n; ++i) {
        s.push_back(static_cast<char>(rng.NextBounded(96) + 32));
      }
      if (rng.NextBool(0.2)) {
        s += "\n\t\"\\";
      }
      return Json(std::move(s));
    }
    case 5: {
      Json arr = Json::MakeArray();
      size_t n = rng.NextBounded(5);
      for (size_t i = 0; i < n; ++i) {
        arr.Append(RandomJson(rng, depth + 1));
      }
      return arr;
    }
    default: {
      Json obj = Json::MakeObject();
      size_t n = rng.NextBounded(5);
      for (size_t i = 0; i < n; ++i) {
        obj.Set("k" + std::to_string(rng.NextBounded(100)),
                RandomJson(rng, depth + 1));
      }
      return obj;
    }
  }
}

TEST_P(JsonPropertyTest, RandomDocumentRoundTrips) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    Json doc = RandomJson(rng, 0);
    auto compact = Json::Parse(doc.Dump());
    ASSERT_TRUE(compact.ok()) << doc.Dump();
    EXPECT_EQ(doc, *compact);
    auto pretty = Json::Parse(doc.DumpPretty());
    ASSERT_TRUE(pretty.ok());
    EXPECT_EQ(doc, *pretty);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace configerator
