#include <gtest/gtest.h>

#include "src/gatekeeper/compile.h"
#include "src/gatekeeper/runtime.h"
#include "src/util/strings.h"

namespace configerator {
namespace {

UserContext MakeUser(int64_t id) {
  UserContext user;
  user.user_id = id;
  user.country = "US";
  user.locale = "en_US";
  user.app = "fb4a";
  user.device = "pixel";
  user.platform = "android";
  user.account_age_days = 400;
  user.friend_count = 120;
  user.app_version = 300;
  return user;
}

Json ParseConfig(const std::string& text) {
  auto parsed = Json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return parsed.ok() ? *parsed : Json();
}

// ---- Restraints -------------------------------------------------------------

TEST(RestraintTest, RegistryListsBuiltins) {
  auto names = RestraintRegistry::Builtin().TypeNames();
  EXPECT_GE(names.size(), 18u);
}

TEST(RestraintTest, EveryBuiltinDeclaresItsContextFields) {
  // Provenance, semdiff and the invariant checker learn what a project reads
  // from these declarations, so a builtin that reads the context must say so.
  const RestraintRegistry& registry = RestraintRegistry::Builtin();
  for (const std::string& type : registry.TypeNames()) {
    if (type == "always") {
      EXPECT_TRUE(registry.ContextFields(type).empty());
      continue;
    }
    EXPECT_FALSE(registry.ContextFields(type).empty())
        << "builtin restraint '" << type << "' declares no context fields";
  }
  EXPECT_EQ(registry.ContextFields("laser"),
            std::vector<std::string>{"user_id"});
  EXPECT_TRUE(registry.ContextFields("no_such_restraint").empty());
}

TEST(RestraintTest, Employee) {
  auto r = RestraintRegistry::Builtin().Create(
      ParseConfig(R"({"type": "employee"})"));
  ASSERT_TRUE(r.ok());
  UserContext user = MakeUser(1);
  EXPECT_FALSE((*r)->Test(user, nullptr));
  user.is_employee = true;
  EXPECT_TRUE((*r)->Test(user, nullptr));
}

TEST(RestraintTest, NegationBuiltIn) {
  auto r = RestraintRegistry::Builtin().Create(
      ParseConfig(R"({"type": "employee", "negate": true})"));
  ASSERT_TRUE(r.ok());
  UserContext user = MakeUser(1);
  EXPECT_TRUE((*r)->Test(user, nullptr));
  user.is_employee = true;
  EXPECT_FALSE((*r)->Test(user, nullptr));
}

TEST(RestraintTest, CountryMembership) {
  auto r = RestraintRegistry::Builtin().Create(ParseConfig(
      R"({"type": "country", "params": {"countries": ["US", "CA"]}})"));
  ASSERT_TRUE(r.ok());
  UserContext user = MakeUser(1);
  EXPECT_TRUE((*r)->Test(user, nullptr));
  user.country = "BR";
  EXPECT_FALSE((*r)->Test(user, nullptr));
}

TEST(RestraintTest, DeviceAndPlatformAndApp) {
  const RestraintRegistry& registry = RestraintRegistry::Builtin();
  UserContext user = MakeUser(1);
  auto device = registry.Create(
      ParseConfig(R"({"type": "device", "params": {"devices": ["pixel"]}})"));
  auto platform = registry.Create(ParseConfig(
      R"({"type": "platform", "params": {"platforms": ["ios"]}})"));
  auto app = registry.Create(
      ParseConfig(R"({"type": "app", "params": {"apps": ["fb4a"]}})"));
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(platform.ok());
  ASSERT_TRUE(app.ok());
  EXPECT_TRUE((*device)->Test(user, nullptr));
  EXPECT_FALSE((*platform)->Test(user, nullptr));
  EXPECT_TRUE((*app)->Test(user, nullptr));
}

TEST(RestraintTest, Thresholds) {
  const RestraintRegistry& registry = RestraintRegistry::Builtin();
  UserContext user = MakeUser(1);  // 120 friends, 400 days, version 300.
  auto min_friends = registry.Create(
      ParseConfig(R"({"type": "min_friend_count", "params": {"count": 100}})"));
  auto new_user = registry.Create(
      ParseConfig(R"({"type": "new_user", "params": {"max_days": 30}})"));
  auto min_version = registry.Create(ParseConfig(
      R"({"type": "min_app_version", "params": {"version": 350}})"));
  ASSERT_TRUE(min_friends.ok());
  ASSERT_TRUE(new_user.ok());
  ASSERT_TRUE(min_version.ok());
  EXPECT_TRUE((*min_friends)->Test(user, nullptr));
  EXPECT_FALSE((*new_user)->Test(user, nullptr));
  EXPECT_FALSE((*min_version)->Test(user, nullptr));
}

TEST(RestraintTest, IdInAndIdMod) {
  const RestraintRegistry& registry = RestraintRegistry::Builtin();
  auto id_in = registry.Create(
      ParseConfig(R"({"type": "id_in", "params": {"ids": [42, 77]}})"));
  ASSERT_TRUE(id_in.ok());
  EXPECT_TRUE((*id_in)->Test(MakeUser(42), nullptr));
  EXPECT_FALSE((*id_in)->Test(MakeUser(43), nullptr));

  auto id_mod = registry.Create(ParseConfig(
      R"({"type": "id_mod", "params": {"mod": 10, "lo": 0, "hi": 3}})"));
  ASSERT_TRUE(id_mod.ok());
  EXPECT_TRUE((*id_mod)->Test(MakeUser(12), nullptr));
  EXPECT_FALSE((*id_mod)->Test(MakeUser(15), nullptr));
}

TEST(RestraintTest, HashRangeDeterministicSlice) {
  auto r = RestraintRegistry::Builtin().Create(ParseConfig(
      R"({"type": "hash_range", "params": {"salt": "exp1", "lo": 0.0, "hi": 0.5}})"));
  ASSERT_TRUE(r.ok());
  int in_slice = 0;
  for (int64_t id = 0; id < 10'000; ++id) {
    UserContext user = MakeUser(id);
    bool first = (*r)->Test(user, nullptr);
    EXPECT_EQ(first, (*r)->Test(user, nullptr));  // Sticky.
    if (first) {
      ++in_slice;
    }
  }
  EXPECT_NEAR(in_slice, 5000, 300);
}

TEST(RestraintTest, Attributes) {
  const RestraintRegistry& registry = RestraintRegistry::Builtin();
  UserContext user = MakeUser(1);
  user.string_attrs["ab_group"] = "treatment";
  user.numeric_attrs["engagement"] = 0.8;

  auto eq = registry.Create(ParseConfig(
      R"({"type": "string_attr_equals", "params": {"attr": "ab_group", "value": "treatment"}})"));
  auto gt = registry.Create(ParseConfig(
      R"({"type": "numeric_attr_gt", "params": {"attr": "engagement", "threshold": 0.5}})"));
  auto lt = registry.Create(ParseConfig(
      R"({"type": "numeric_attr_lt", "params": {"attr": "engagement", "threshold": 0.5}})"));
  auto has = registry.Create(
      ParseConfig(R"({"type": "has_attr", "params": {"attr": "ab_group"}})"));
  ASSERT_TRUE(eq.ok());
  ASSERT_TRUE(gt.ok());
  ASSERT_TRUE(lt.ok());
  ASSERT_TRUE(has.ok());
  EXPECT_TRUE((*eq)->Test(user, nullptr));
  EXPECT_TRUE((*gt)->Test(user, nullptr));
  EXPECT_FALSE((*lt)->Test(user, nullptr));
  EXPECT_TRUE((*has)->Test(user, nullptr));
  // Missing attribute: comparisons are false.
  EXPECT_FALSE((*gt)->Test(MakeUser(2), nullptr));
}

TEST(RestraintTest, LaserIntegration) {
  LaserStore laser;
  laser.Put("TrendingTopics-42", 0.9);
  laser.Put("TrendingTopics-43", 0.1);
  auto r = RestraintRegistry::Builtin().Create(ParseConfig(
      R"({"type": "laser", "params": {"project": "TrendingTopics", "threshold": 0.5}})"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->Test(MakeUser(42), &laser));
  EXPECT_FALSE((*r)->Test(MakeUser(43), &laser));
  EXPECT_FALSE((*r)->Test(MakeUser(99), &laser));   // Absent key.
  EXPECT_FALSE((*r)->Test(MakeUser(42), nullptr));  // No store wired.
}

TEST(RestraintTest, LaserPipelineLoad) {
  LaserStore laser;
  laser.LoadPipelineOutput("P", {{1, 0.7}, {2, 0.2}});
  EXPECT_DOUBLE_EQ(*laser.Get("P-1"), 0.7);
  EXPECT_EQ(laser.size(), 2u);
}

TEST(RestraintTest, MalformedSpecsRejected) {
  const RestraintRegistry& registry = RestraintRegistry::Builtin();
  EXPECT_FALSE(registry.Create(ParseConfig(R"({"type": "no_such_type"})")).ok());
  EXPECT_FALSE(registry.Create(ParseConfig(R"({"notype": 1})")).ok());
  EXPECT_FALSE(registry.Create(ParseConfig(R"({"type": "country"})")).ok());
  EXPECT_FALSE(registry.Create(ParseConfig(
      R"({"type": "id_mod", "params": {"mod": 10, "lo": 5, "hi": 3}})")).ok());
  EXPECT_FALSE(registry.Create(ParseConfig(
      R"({"type": "hash_range", "params": {"salt": "s", "lo": 0.9, "hi": 0.1}})")).ok());
}

// ---- Projects -----------------------------------------------------------------

constexpr char kProjectX[] = R"({
  "project": "ProjectX",
  "rules": [
    {"restraints": [{"type": "employee"}], "pass_probability": 1.0},
    {"restraints": [{"type": "country", "params": {"countries": ["US"]}},
                    {"type": "min_friend_count", "params": {"count": 50}}],
     "pass_probability": 0.1}
  ]
})";

TEST(ProjectTest, EmployeesAlwaysPass) {
  GatekeeperRuntime runtime;
  ASSERT_TRUE(runtime.LoadProject(ParseConfig(kProjectX)).ok());
  UserContext employee = MakeUser(5);
  employee.is_employee = true;
  EXPECT_TRUE(runtime.Check("ProjectX", employee));
}

TEST(ProjectTest, SamplingApproximatesProbability) {
  GatekeeperRuntime runtime;
  ASSERT_TRUE(runtime.LoadProject(ParseConfig(kProjectX)).ok());
  int passed = 0;
  for (int64_t id = 0; id < 20'000; ++id) {
    if (runtime.Check("ProjectX", MakeUser(id))) {
      ++passed;
    }
  }
  EXPECT_NEAR(passed, 2000, 250);  // 10% of matching users.
}

TEST(ProjectTest, SamplingIsStickyPerUser) {
  // The die is per (project, user): neither repeated checks nor a Rebuild()
  // into a new evaluation order flips a user's outcome.
  GatekeeperRuntime runtime;
  ASSERT_TRUE(runtime.LoadProject(ParseConfig(kProjectX)).ok());
  for (int64_t id = 100; id < 200; ++id) {
    UserContext user = MakeUser(id);
    bool first = runtime.Check("ProjectX", user);
    for (int i = 0; i < 5; ++i) {
      runtime.Rebuild();
      EXPECT_EQ(runtime.Check("ProjectX", user), first);
    }
  }
}

TEST(ProjectTest, NonMatchingUsersFail) {
  GatekeeperRuntime runtime;
  ASSERT_TRUE(runtime.LoadProject(ParseConfig(kProjectX)).ok());
  UserContext user = MakeUser(7);
  user.country = "BR";  // Fails rule 2's country restraint.
  EXPECT_FALSE(runtime.Check("ProjectX", user));
}

TEST(ProjectTest, RuleOrderMatters) {
  // A user matching rule 1 (employees, 100%) never falls through to rule 2.
  GatekeeperRuntime runtime;
  ASSERT_TRUE(runtime.LoadProject(ParseConfig(kProjectX)).ok());
  UserContext employee = MakeUser(123456);
  employee.is_employee = true;
  employee.country = "DE";  // Would fail rule 2.
  EXPECT_TRUE(runtime.Check("ProjectX", employee));
  runtime.Rebuild();  // Reordering restraints never reorders rules.
  EXPECT_TRUE(runtime.Check("ProjectX", employee));
}

TEST(ProjectTest, RebuildFrontLoadsCheapUsuallyFalseRestraints) {
  // An expensive laser() first in config order, a cheap, usually-false
  // country restraint second: checks alone keep declared order; Rebuild()
  // folds what they observed and moves the country restraint first.
  LaserStore laser;
  for (int64_t id = 0; id < 5000; ++id) {
    laser.Put("T-" + std::to_string(id), 1.0);  // laser() passes.
  }
  GatekeeperRuntime runtime(&laser);
  ASSERT_TRUE(runtime
                  .LoadProject(ParseConfig(R"({
    "project": "LaserFirst",
    "rules": [{"restraints": [
      {"type": "laser", "params": {"project": "T", "threshold": 0.5}},
      {"type": "country", "params": {"countries": ["JP"]}}],
      "pass_probability": 1.0}]
  })"))
                  .ok());
  auto check_all = [&runtime] {
    for (int64_t id = 0; id < 5000; ++id) {
      (void)runtime.Check("LaserFirst", MakeUser(id));  // US: country fails.
    }
  };

  check_all();
  auto untrained = runtime.StatsSnapshot("LaserFirst");
  ASSERT_EQ(untrained.size(), 1u);
  EXPECT_EQ(untrained[0][0].type, "laser");  // No Rebuild(): declared order.
  EXPECT_EQ(untrained[0][1].evals, 5000u);

  runtime.Rebuild();
  auto trained = runtime.StatsSnapshot("LaserFirst");
  EXPECT_EQ(trained[0][0].type, "country");  // Cheap short-circuit first.
  EXPECT_EQ(trained[0][0].evals, 5000u);     // Stats survive the rebuild.
  EXPECT_DOUBLE_EQ(trained[0][0].pass_rate(), 0.0);

  // Once reordered, the laser restraint stops being evaluated at all.
  check_all();
  auto after = runtime.StatsSnapshot("LaserFirst");
  EXPECT_EQ(after[0][0].evals, 10000u);
  EXPECT_EQ(after[0][1].type, "laser");
  EXPECT_EQ(after[0][1].evals, 5000u);
}

TEST(ProjectTest, MalformedProjectsRejected) {
  GatekeeperRuntime runtime;
  EXPECT_FALSE(runtime.LoadProject(ParseConfig(R"({"rules": []})")).ok());
  EXPECT_FALSE(runtime.LoadProject(ParseConfig(R"({"project": "X"})")).ok());
  EXPECT_FALSE(runtime
                   .LoadProject(ParseConfig(
                       R"({"project": "X", "rules": [{"restraints": []}]})"))
                   .ok());
  EXPECT_FALSE(runtime
                   .LoadProject(ParseConfig(
                       R"({"project": "X",
                           "rules": [{"restraints": [], "pass_probability": 1.5}]})"))
                   .ok());
  EXPECT_EQ(runtime.project_count(), 0u);
}

TEST(ProjectTest, PathConventionRoundTrips) {
  EXPECT_EQ(GatekeeperPath("ProjectX"), "gatekeeper/ProjectX.json");
  EXPECT_EQ(GatekeeperProjectAt("gatekeeper/ProjectX.json"), "ProjectX");
  EXPECT_EQ(GatekeeperProjectAt("sitevars/ProjectX.json"), std::nullopt);
  EXPECT_EQ(GatekeeperProjectAt("gatekeeper/ProjectX.cconf"), std::nullopt);
}

// ---- Runtime ------------------------------------------------------------------

TEST(RuntimeTest, LoadCheckRemove) {
  GatekeeperRuntime runtime;
  ASSERT_TRUE(runtime.LoadProject(ParseConfig(kProjectX)).ok());
  EXPECT_TRUE(runtime.HasProject("ProjectX"));
  UserContext employee = MakeUser(1);
  employee.is_employee = true;
  EXPECT_TRUE(runtime.Check("ProjectX", employee));
  EXPECT_EQ(runtime.check_count(), 1u);

  ASSERT_TRUE(runtime.RemoveProject("ProjectX").ok());
  EXPECT_FALSE(runtime.Check("ProjectX", employee));  // Fail closed.
}

TEST(RuntimeTest, UnknownProjectFailsClosed) {
  GatekeeperRuntime runtime;
  EXPECT_FALSE(runtime.Check("Ghost", MakeUser(1)));
}

TEST(RuntimeTest, ConfigUpdatePathIntegration) {
  GatekeeperRuntime runtime;
  ASSERT_TRUE(
      runtime.ApplyConfigUpdate("gatekeeper/ProjectX.json", kProjectX).ok());
  EXPECT_TRUE(runtime.HasProject("ProjectX"));

  // Live rollout bump: rewrite pass_probability 0.1 -> 1.0.
  std::string expanded(kProjectX);
  size_t pos = expanded.find("0.1");
  expanded.replace(pos, 3, "1.0");
  ASSERT_TRUE(
      runtime.ApplyConfigUpdate("gatekeeper/ProjectX.json", expanded).ok());
  int passed = 0;
  for (int64_t id = 0; id < 1000; ++id) {
    if (runtime.Check("ProjectX", MakeUser(id))) {
      ++passed;
    }
  }
  EXPECT_EQ(passed, 1000);  // 100% rollout.

  // Tombstone removes the project.
  ASSERT_TRUE(runtime.ApplyConfigUpdate("gatekeeper/ProjectX.json", "").ok());
  EXPECT_FALSE(runtime.HasProject("ProjectX"));
}

TEST(RuntimeTest, NonGatekeeperPathRejected) {
  GatekeeperRuntime runtime;
  EXPECT_FALSE(runtime.ApplyConfigUpdate("sitevars/x.json", "{}").ok());
}

TEST(RuntimeTest, BadConfigUpdateRejectedAndOldKept) {
  GatekeeperRuntime runtime;
  ASSERT_TRUE(
      runtime.ApplyConfigUpdate("gatekeeper/ProjectX.json", kProjectX).ok());
  EXPECT_FALSE(
      runtime.ApplyConfigUpdate("gatekeeper/ProjectX.json", "{not json").ok());
  EXPECT_TRUE(runtime.HasProject("ProjectX"));  // Old config still live.
}

TEST(RuntimeTest, ProjectNamedOffItsPathRejected) {
  // gatekeeper/A.json declaring project "B" would load as B, and the file's
  // tombstone (which names A) would then leave B live after A.json is gone.
  auto project = [](const char* name) {
    return StrFormat(R"({"project": "%s", "rules": [
        {"restraints": [], "pass_probability": 1.0}]})",
                     name);
  };
  GatekeeperRuntime runtime;
  ASSERT_TRUE(runtime.ApplyConfigUpdate("gatekeeper/A.json", project("A")).ok());
  EXPECT_FALSE(runtime.ApplyConfigUpdate("gatekeeper/A.json", project("B")).ok());
  EXPECT_TRUE(runtime.HasProject("A"));  // Old config still live.
  EXPECT_FALSE(runtime.HasProject("B"));

  ASSERT_TRUE(runtime.ApplyConfigUpdate("gatekeeper/A.json", "").ok());
  EXPECT_EQ(runtime.project_count(), 0u);
  EXPECT_FALSE(runtime.Check("B", MakeUser(1)));
}

TEST(RuntimeTest, LaserWiredThrough) {
  LaserStore laser;
  laser.Put("Trend-5", 1.0);
  GatekeeperRuntime runtime(&laser);
  ASSERT_TRUE(runtime
                  .LoadProject(ParseConfig(R"({
                    "project": "Trendy",
                    "rules": [{"restraints": [
                      {"type": "laser",
                       "params": {"project": "Trend", "threshold": 0.5}}],
                      "pass_probability": 1.0}]
                  })"))
                  .ok());
  EXPECT_TRUE(runtime.Check("Trendy", MakeUser(5)));
  EXPECT_FALSE(runtime.Check("Trendy", MakeUser(6)));
}

}  // namespace
}  // namespace configerator
