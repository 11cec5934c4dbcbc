#include <gtest/gtest.h>

#include "src/sitevars/sitevars.h"

namespace configerator {
namespace {

TEST(SitevarClassifyTest, Scalars) {
  EXPECT_EQ(ClassifySitevarValue(Json(true)), SitevarType::kBool);
  EXPECT_EQ(ClassifySitevarValue(Json(int64_t{3})), SitevarType::kInt);
  EXPECT_EQ(ClassifySitevarValue(Json(2.5)), SitevarType::kDouble);
  EXPECT_EQ(ClassifySitevarValue(*Json::Parse("[1]")), SitevarType::kList);
  EXPECT_EQ(ClassifySitevarValue(*Json::Parse("{}")), SitevarType::kObject);
}

TEST(SitevarClassifyTest, StringSubtypes) {
  // The paper's inference ladder: JSON string, timestamp string, general.
  EXPECT_EQ(ClassifySitevarValue(Json("hello world")),
            SitevarType::kGeneralString);
  EXPECT_EQ(ClassifySitevarValue(Json("{\"a\": 1}")), SitevarType::kJsonString);
  EXPECT_EQ(ClassifySitevarValue(Json("[1, 2]")), SitevarType::kJsonString);
  EXPECT_EQ(ClassifySitevarValue(Json("2015-10-04")),
            SitevarType::kTimestampString);
  EXPECT_EQ(ClassifySitevarValue(Json("1443916800")),
            SitevarType::kTimestampString);
  EXPECT_EQ(ClassifySitevarValue(Json("{broken json")),
            SitevarType::kGeneralString);
  EXPECT_EQ(ClassifySitevarValue(Json("123")), SitevarType::kGeneralString);
}

TEST(SitevarStoreTest, SetAndGetExpression) {
  SitevarStore store;
  auto result = store.Set("max_upload_mb", "25 * 4", "alice");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->warnings.empty());
  EXPECT_EQ(store.Get("max_upload_mb")->as_int(), 100);
  EXPECT_TRUE(store.Exists("max_upload_mb"));
  EXPECT_FALSE(store.Exists("nope"));
}

TEST(SitevarStoreTest, ComplexExpressions) {
  SitevarStore store;
  auto result = store.Set(
      "limits", R"({"upload": 10 * 5, "regions": ["us", "eu"], "on": True})",
      "alice");
  ASSERT_TRUE(result.ok()) << result.status();
  Json value = *store.Get("limits");
  EXPECT_EQ(value.Get("upload")->as_int(), 50);
  EXPECT_EQ(value.Get("regions")->size(), 2u);
  EXPECT_TRUE(value.Get("on")->as_bool());
}

TEST(SitevarStoreTest, InvalidExpressionFails) {
  SitevarStore store;
  EXPECT_FALSE(store.Set("bad", "1 +", "alice").ok());
  EXPECT_FALSE(store.Set("bad", "undefined_var", "alice").ok());
  EXPECT_FALSE(store.Exists("bad"));
}

TEST(SitevarStoreTest, GetMissingIsNotFound) {
  SitevarStore store;
  EXPECT_EQ(store.Get("ghost").status().code(), StatusCode::kNotFound);
}

TEST(SitevarStoreTest, TypeDeviationWarns) {
  SitevarStore store;
  // Build an int history.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.Set("knob", std::to_string(i + 10), "alice").ok());
  }
  EXPECT_EQ(store.InferredType("knob"), SitevarType::kInt);
  // A string update deviates: warn but do not block (paper: "displays a
  // warning message").
  auto result = store.Set("knob", "\"oops\"", "bob");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->warnings.size(), 1u);
  EXPECT_NE(result->warnings[0].find("historically been int"),
            std::string::npos);
  EXPECT_EQ(store.Get("knob")->as_string(), "oops");
}

TEST(SitevarStoreTest, FieldLevelInference) {
  SitevarStore store;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store
                    .Set("cfg",
                         R"({"when": "2015-10-0)" + std::to_string(i + 1) +
                             R"(", "limit": )" + std::to_string(i) + "}",
                         "alice")
                    .ok());
  }
  auto field_types = store.InferredFieldTypes("cfg");
  EXPECT_EQ(field_types.at("when"), SitevarType::kTimestampString);
  EXPECT_EQ(field_types.at("limit"), SitevarType::kInt);

  // A timestamp field becoming a general string triggers a field warning.
  auto result =
      store.Set("cfg", R"({"when": "tomorrow-ish", "limit": 5})", "bob");
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->warnings.size(), 1u);
  EXPECT_NE(result->warnings[0].find("field 'when'"), std::string::npos);
}

TEST(SitevarStoreTest, NewFieldNoWarning) {
  SitevarStore store;
  ASSERT_TRUE(store.Set("cfg", R"({"a": 1})", "alice").ok());
  auto result = store.Set("cfg", R"({"a": 2, "brand_new": "x"})", "alice");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->warnings.empty());
}

TEST(SitevarStoreTest, CheckerBlocksBadValues) {
  SitevarStore store;
  ASSERT_TRUE(store.Set("rate", "100", "alice").ok());
  ASSERT_TRUE(store
                  .SetChecker("rate",
                              "def check(value):\n"
                              "    assert value > 0, \"rate must be positive\"\n"
                              "    assert value <= 1000, \"rate too high\"\n")
                  .ok());
  EXPECT_TRUE(store.Set("rate", "500", "bob").ok());
  auto too_high = store.Set("rate", "5000", "bob");
  ASSERT_FALSE(too_high.ok());
  EXPECT_NE(too_high.status().message().find("rate too high"),
            std::string::npos);
  // The rejected update did not land.
  EXPECT_EQ(store.Get("rate")->as_int(), 500);
}

TEST(SitevarStoreTest, CheckerReturningFalseBlocks) {
  SitevarStore store;
  ASSERT_TRUE(store.Set("flag", "True", "alice").ok());
  ASSERT_TRUE(store.SetChecker("flag",
                               "def check(value):\n"
                               "    return value == True or value == False\n")
                  .ok());
  EXPECT_TRUE(store.Set("flag", "False", "bob").ok());
  EXPECT_FALSE(store.Set("flag", "42", "bob").ok());
}

TEST(SitevarStoreTest, CheckerGuardsTheFirstValueToo) {
  // Installing the checker before any value exists still protects the very
  // first Set (a new sitevar created through the UI with a checker).
  SitevarStore store;
  ASSERT_TRUE(store.SetChecker("fresh",
                               "def check(value):\n"
                               "    assert value >= 0, \"no negatives\"\n")
                  .ok());
  EXPECT_FALSE(store.Set("fresh", "-1", "alice").ok());
  EXPECT_FALSE(store.Exists("fresh") && store.Get("fresh").ok());
  EXPECT_TRUE(store.Set("fresh", "7", "alice").ok());
  EXPECT_EQ(store.Get("fresh")->as_int(), 7);
}

TEST(SitevarStoreTest, CheckerStateDoesNotCarryAcrossSets) {
  // Each Set runs the checker from a freshly evaluated module, so its
  // module-level list holds only the current update.
  SitevarStore store;
  ASSERT_TRUE(store
                  .SetChecker("limit",
                              "seen = []\n"
                              "def check(value):\n"
                              "    append(seen, value)\n"
                              "    assert len(seen) < 3, \"saw 3 updates\"\n")
                  .ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(store.Set("limit", std::to_string(i), "alice").ok()) << i;
  }
}

TEST(SitevarStoreTest, CheckerMustDefineCheck) {
  SitevarStore store;
  EXPECT_FALSE(store.SetChecker("x", "def other():\n    pass\n").ok());
  EXPECT_FALSE(store.SetChecker("x", "not even ( valid\n").ok());
}

TEST(SitevarStoreTest, AuthorsTracked) {
  SitevarStore store;
  ASSERT_TRUE(store.Set("v", "1", "alice").ok());
  ASSERT_TRUE(store.Set("v", "2", "bob").ok());
  ASSERT_TRUE(store.Set("v", "3", "alice").ok());
  auto authors = store.UpdateAuthors("v");
  ASSERT_EQ(authors.size(), 3u);
  EXPECT_EQ(authors[1], "bob");
}

TEST(SitevarStoreTest, HistoryBounded) {
  SitevarStore store;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store.Set("busy", std::to_string(i), "automation").ok());
  }
  EXPECT_LE(store.UpdateAuthors("busy").size(), 64u);
  EXPECT_EQ(store.Get("busy")->as_int(), 199);
}

TEST(SitevarStoreTest, MajorityTypeWinsOverOutlier) {
  SitevarStore store;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Set("mostly_int", std::to_string(i), "a").ok());
  }
  ASSERT_TRUE(store.Set("mostly_int", "\"blip\"", "a").ok());
  EXPECT_EQ(store.InferredType("mostly_int"), SitevarType::kInt);
}

}  // namespace
}  // namespace configerator
