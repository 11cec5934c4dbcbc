// Differential property battery: the concurrent shared-snapshot runtime must
// agree with the naive declared-order evaluator on every (config, user) pair
// — across ~1k random DNF projects, mid-run snapshot swaps, epoch rebuilds,
// and tombstones. Any divergence means the compiled snapshot, the cost-based
// reordering, or the batch path changed semantics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/gatekeeper/naive.h"
#include "src/gatekeeper/runtime.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace configerator {
namespace {

constexpr int kProjects = 1000;
constexpr int kUsersPerProject = 16;

std::string RandomRestraintJson(Rng& rng) {
  static const char* kCountries[] = {"US", "CA", "BR", "JP", "DE"};
  static const char* kPlatforms[] = {"android", "ios", "web"};
  static const char* kLocales[] = {"en_US", "pt_BR", "ja_JP"};
  static const char* kAttrs[] = {"tier", "segment"};
  static const char* kAttrValues[] = {"gold", "silver", "bronze"};

  std::string body;
  switch (rng.NextBounded(15)) {
    case 0:
      body = StrFormat(R"("type": "always", "params": {"value": %s})",
                       rng.NextBool(0.5) ? "true" : "false");
      break;
    case 1:
      body = R"("type": "employee")";
      break;
    case 2:
      body = StrFormat(
          R"("type": "country", "params": {"countries": ["%s", "%s"]})",
          kCountries[rng.NextBounded(5)], kCountries[rng.NextBounded(5)]);
      break;
    case 3:
      body = StrFormat(R"("type": "platform", "params": {"platforms": ["%s"]})",
                       kPlatforms[rng.NextBounded(3)]);
      break;
    case 4:
      body = StrFormat(R"("type": "locale", "params": {"locales": ["%s"]})",
                       kLocales[rng.NextBounded(3)]);
      break;
    case 5:
      body = StrFormat(
          R"("type": "min_friend_count", "params": {"count": %lld})",
          static_cast<long long>(rng.NextInRange(0, 700)));
      break;
    case 6:
      body = StrFormat(R"("type": "new_user", "params": {"max_days": %lld})",
                       static_cast<long long>(rng.NextInRange(0, 2000)));
      break;
    case 7:
      body = StrFormat(
          R"("type": "min_app_version", "params": {"version": %lld})",
          static_cast<long long>(rng.NextInRange(200, 400)));
      break;
    case 8:
      body = StrFormat(
          R"("type": "id_in", "params": {"ids": [%lld, %lld, %lld]})",
          static_cast<long long>(rng.NextInRange(0, 1999)),
          static_cast<long long>(rng.NextInRange(0, 1999)),
          static_cast<long long>(rng.NextInRange(0, 1999)));
      break;
    case 9: {
      int64_t mod = rng.NextInRange(2, 100);
      int64_t lo = rng.NextInRange(0, mod - 1);
      int64_t hi = rng.NextInRange(lo + 1, mod);
      body = StrFormat(
          R"("type": "id_mod", "params": {"mod": %lld, "lo": %lld, "hi": %lld})",
          static_cast<long long>(mod), static_cast<long long>(lo),
          static_cast<long long>(hi));
      break;
    }
    case 10: {
      double lo = rng.NextDouble() * 0.9;
      double hi = lo + 0.01 + rng.NextDouble() * (1.0 - lo - 0.01);
      body = StrFormat(
          R"("type": "hash_range", "params": {"salt": "s%llu", "lo": %.4f, "hi": %.4f})",
          static_cast<unsigned long long>(rng.NextBounded(8)), lo, hi);
      break;
    }
    case 11:
      body = StrFormat(
          R"("type": "string_attr_equals", "params": {"attr": "%s", "value": "%s"})",
          kAttrs[rng.NextBounded(2)], kAttrValues[rng.NextBounded(3)]);
      break;
    case 12:
      body = StrFormat(
          R"("type": "%s", "params": {"attr": "score", "threshold": %.3f})",
          rng.NextBool(0.5) ? "numeric_attr_gt" : "numeric_attr_lt",
          rng.NextDouble());
      break;
    case 13:
      body = StrFormat(R"("type": "has_attr", "params": {"attr": "%s"})",
                       rng.NextBool(0.5) ? "tier" : "score");
      break;
    default:
      body = StrFormat(
          R"("type": "laser", "params": {"project": "Trend", "threshold": %.3f})",
          rng.NextDouble());
      break;
  }
  const char* negate = rng.NextBool(0.3) ? "true" : "false";
  return StrFormat(R"({%s, "negate": %s})", body.c_str(), negate);
}

std::string RandomProjectJson(Rng& rng, const std::string& name) {
  static const double kProbs[] = {0.0, 0.25, 0.5, 1.0};
  int n_rules = static_cast<int>(rng.NextInRange(1, 4));
  std::string rules;
  for (int r = 0; r < n_rules; ++r) {
    int n_restraints = static_cast<int>(rng.NextInRange(0, 4));
    std::string restraints;
    for (int i = 0; i < n_restraints; ++i) {
      if (i > 0) restraints += ", ";
      restraints += RandomRestraintJson(rng);
    }
    if (r > 0) rules += ", ";
    rules += StrFormat(
        R"({"restraints": [%s], "pass_probability": %.2f})",
        restraints.c_str(), kProbs[rng.NextBounded(4)]);
  }
  return StrFormat(R"({"project": "%s", "rules": [%s]})", name.c_str(),
                   rules.c_str());
}

UserContext RandomUser(Rng& rng) {
  static const char* kCountries[] = {"US", "CA", "BR", "JP", "DE", "FR"};
  static const char* kPlatforms[] = {"android", "ios", "web"};
  static const char* kLocales[] = {"en_US", "pt_BR", "ja_JP", "de_DE"};
  UserContext user;
  user.user_id = rng.NextInRange(0, 1999);
  user.country = kCountries[rng.NextBounded(6)];
  user.locale = kLocales[rng.NextBounded(4)];
  user.app = "fb4a";
  user.device = rng.NextBool(0.5) ? "pixel" : "iphone";
  user.platform = kPlatforms[rng.NextBounded(3)];
  user.is_employee = rng.NextBool(0.1);
  user.account_age_days = static_cast<int32_t>(rng.NextInRange(0, 2500));
  user.friend_count = static_cast<int32_t>(rng.NextInRange(0, 900));
  user.app_version = static_cast<int32_t>(rng.NextInRange(180, 420));
  if (rng.NextBool(0.5)) {
    static const char* kAttrValues[] = {"gold", "silver", "bronze"};
    user.string_attrs["tier"] = kAttrValues[rng.NextBounded(3)];
  }
  if (rng.NextBool(0.5)) {
    user.numeric_attrs["score"] = rng.NextDouble();
  }
  return user;
}

LaserStore MakeLaserStore(Rng& rng) {
  LaserStore laser;
  for (int64_t id = 0; id < 2000; ++id) {
    if (rng.NextBool(0.7)) {
      laser.Put("Trend-" + std::to_string(id), rng.NextDouble());
    }
  }
  return laser;
}

TEST(GatekeeperDifferentialTest, RuntimeMatchesNaiveAcrossRandomProjects) {
  Rng rng(0xD1FFBA77E12ULL);
  LaserStore laser = MakeLaserStore(rng);
  GatekeeperRuntime runtime(&laser);

  // One runtime lives through all 1000 configs under the same project name,
  // so every iteration is also a live snapshot swap over prior state.
  for (int iter = 0; iter < kProjects; ++iter) {
    std::string json = RandomProjectJson(rng, "fuzz");
    Result<Json> parsed = Json::Parse(json);
    ASSERT_TRUE(parsed.ok()) << json;
    Result<NaiveEvaluator> naive = NaiveEvaluator::FromJson(*parsed);
    ASSERT_TRUE(naive.ok()) << naive.status() << "\n" << json;
    ASSERT_TRUE(runtime.ApplyConfigUpdate("gatekeeper/fuzz.json", json).ok());

    for (int u = 0; u < kUsersPerProject; ++u) {
      // Epoch rebuild mid-loop: the reordered snapshot must not change any
      // outcome (stats learned so far feed CostBasedOrders).
      if (u == kUsersPerProject / 2 && iter % 7 == 0) {
        runtime.Rebuild();
      }
      UserContext user = RandomUser(rng);
      bool expected = naive->Check(user, &laser);
      EXPECT_EQ(runtime.Check("fuzz", user), expected)
          << "iter " << iter << " user " << user.user_id << "\n" << json;
    }

    // Occasional tombstone: the runtime must fail closed, then recover on
    // the next config.
    if (iter % 97 == 0) {
      ASSERT_TRUE(runtime.ApplyConfigUpdate("gatekeeper/fuzz.json", "").ok());
      EXPECT_FALSE(runtime.Check("fuzz", RandomUser(rng)));
    }
  }
}

TEST(GatekeeperDifferentialTest, CheckManyMatchesNaivePerUser) {
  Rng rng(0xBA7C4ULL);
  LaserStore laser = MakeLaserStore(rng);
  GatekeeperRuntime runtime(&laser);

  for (int iter = 0; iter < 50; ++iter) {
    std::string json = RandomProjectJson(rng, "batch");
    Result<Json> parsed = Json::Parse(json);
    ASSERT_TRUE(parsed.ok()) << json;
    Result<NaiveEvaluator> naive = NaiveEvaluator::FromJson(*parsed);
    ASSERT_TRUE(naive.ok()) << json;
    ASSERT_TRUE(runtime.ApplyConfigUpdate("gatekeeper/batch.json", json).ok());

    std::vector<UserContext> users;
    for (int u = 0; u < 64; ++u) {
      users.push_back(RandomUser(rng));
    }
    std::vector<uint8_t> results;
    size_t passed = runtime.CheckMany("batch", users, &results);
    ASSERT_EQ(results.size(), users.size());
    size_t expected_passed = 0;
    for (size_t u = 0; u < users.size(); ++u) {
      bool expected = naive->Check(users[u], &laser);
      expected_passed += expected ? 1 : 0;
      EXPECT_EQ(results[u] != 0, expected)
          << "iter " << iter << " user " << users[u].user_id << "\n" << json;
    }
    EXPECT_EQ(passed, expected_passed);
  }
}

TEST(GatekeeperDifferentialTest, CostOrderingAblationChangesNoOutcome) {
  // Only Rebuild() changes an evaluation order, so the declared-order arm
  // of the ablation is a runtime that never rebuilds. Both arms see the same
  // checks; the rebuilt one reorders after every round of learning.
  Rng rng(0x0DE4ULL);
  LaserStore laser = MakeLaserStore(rng);
  GatekeeperRuntime declared(&laser);
  GatekeeperRuntime rebuilt(&laser);
  for (int iter = 0; iter < 50; ++iter) {
    std::string json = RandomProjectJson(rng, "ablate");
    Result<Json> parsed = Json::Parse(json);
    ASSERT_TRUE(parsed.ok()) << json;
    Result<NaiveEvaluator> naive = NaiveEvaluator::FromJson(*parsed);
    ASSERT_TRUE(naive.ok()) << naive.status() << "\n" << json;
    ASSERT_TRUE(declared.ApplyConfigUpdate("gatekeeper/ablate.json", json).ok());
    ASSERT_TRUE(rebuilt.ApplyConfigUpdate("gatekeeper/ablate.json", json).ok());

    std::vector<UserContext> users;
    for (int u = 0; u < 64; ++u) {
      users.push_back(RandomUser(rng));
    }
    for (int round = 0; round < 3; ++round) {
      for (const UserContext& user : users) {
        bool expected = naive->Check(user, &laser);
        EXPECT_EQ(declared.Check("ablate", user), expected)
            << "declared, iter " << iter << " round " << round << " user "
            << user.user_id << "\n" << json;
        EXPECT_EQ(rebuilt.Check("ablate", user), expected)
            << "rebuilt, iter " << iter << " round " << round << " user "
            << user.user_id << "\n" << json;
      }
      rebuilt.Rebuild();
    }
  }
}

}  // namespace
}  // namespace configerator
