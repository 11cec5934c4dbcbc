// Concurrency stress for the shared-snapshot GatekeeperRuntime: reader
// threads hammer Check()/CheckMany() while a writer publishes config updates,
// tombstones, and epoch rebuilds. Asserts:
//   * no torn reads — sentinel users whose outcome is identical under every
//     published config never observe a different answer;
//   * snapshot versions are monotone per thread;
//   * folded statistics equal the sum of per-thread observations once the
//     threads have quiesced.
// Run under TSan (scripts/check.sh --lane tsan) to catch actual data races.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/gatekeeper/runtime.h"
#include "src/util/strings.h"

namespace configerator {
namespace {

// Every published variant keeps the same sentinel semantics: employees always
// pass, and the churn rules can never match the non-employee sentinel (his
// country is "US", the churn rules gate on "XX"). Only rule count and
// parameters vary between variants.
std::string ChurnConfigJson(int step) {
  std::string churn_rules;
  int extra = 1 + step % 3;
  for (int r = 0; r < extra; ++r) {
    churn_rules += StrFormat(
        R"(, {"restraints": [{"type": "country", "params": {"countries": ["XX"]}},
                             {"type": "min_friend_count", "params": {"count": %d}}],
             "pass_probability": 1.0})",
        step + r);
  }
  return StrFormat(
      R"({"project": "sentinel", "rules": [
            {"restraints": [{"type": "employee"}], "pass_probability": 1.0}%s]})",
      churn_rules.c_str());
}

UserContext EmployeeUser() {
  UserContext user;
  user.user_id = 1;
  user.country = "US";
  user.is_employee = true;
  return user;
}

UserContext RegularUser() {
  UserContext user;
  user.user_id = 7;
  user.country = "US";
  user.is_employee = false;
  return user;
}

TEST(GatekeeperConcurrencyTest, ReadersStayConsistentUnderWriterChurn) {
  constexpr int kReaders = 4;
  constexpr int kReaderIters = 20000;
  constexpr int kWriterUpdates = 300;

  GatekeeperRuntime runtime;
  ASSERT_TRUE(
      runtime.ApplyConfigUpdate("gatekeeper/sentinel.json", ChurnConfigJson(0))
          .ok());

  const UserContext employee = EmployeeUser();
  const UserContext regular = RegularUser();
  const std::vector<UserContext> batch = {employee, regular};

  std::atomic<int> wrong_outcomes{0};
  std::atomic<int> version_regressions{0};
  std::atomic<uint64_t> reader_checks{0};
  std::atomic<bool> writer_done{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      uint64_t local_checks = 0;
      uint64_t last_version = 0;
      for (int i = 0; i < kReaderIters; ++i) {
        uint64_t version = runtime.snapshot_version();
        if (version < last_version) {
          version_regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last_version = version;

        bool e = runtime.Check("sentinel", employee);
        bool r = runtime.Check("sentinel", regular);
        local_checks += 2;
        if (!e || r) {
          wrong_outcomes.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 64 == 0) {
          std::vector<uint8_t> results;
          size_t passed = runtime.CheckMany("sentinel", batch, &results);
          local_checks += batch.size();
          if (passed != 1 || results.size() != 2 || results[0] != 1 ||
              results[1] != 0) {
            wrong_outcomes.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      reader_checks.fetch_add(local_checks, std::memory_order_relaxed);
    });
  }

  std::thread writer([&] {
    for (int step = 1; step <= kWriterUpdates; ++step) {
      ASSERT_TRUE(runtime
                      .ApplyConfigUpdate("gatekeeper/sentinel.json",
                                         ChurnConfigJson(step))
                      .ok());
      if (step % 10 == 0) {
        runtime.Rebuild();
      }
      // Churn a second project through load + tombstone; readers never
      // query it, but its snapshot swaps must not disturb them.
      if (step % 2 == 0) {
        ASSERT_TRUE(runtime
                        .ApplyConfigUpdate(
                            "gatekeeper/other.json",
                            R"({"project": "other", "rules": [{"restraints": [],
                                "pass_probability": 1.0}]})")
                        .ok());
      } else {
        ASSERT_TRUE(
            runtime.ApplyConfigUpdate("gatekeeper/other.json", "").ok());
      }
      std::this_thread::yield();
    }
    writer_done.store(true, std::memory_order_release);
  });

  for (std::thread& reader : readers) {
    reader.join();
  }
  writer.join();

  EXPECT_TRUE(writer_done.load(std::memory_order_acquire));
  EXPECT_EQ(wrong_outcomes.load(), 0)
      << "a reader observed a torn/inconsistent snapshot";
  EXPECT_EQ(version_regressions.load(), 0)
      << "snapshot_version() went backwards";
  // Folded stripes equal the sum of per-thread observations: no increment
  // was lost or double-counted. (The main thread issued no checks.)
  EXPECT_EQ(runtime.check_count(), reader_checks.load());
  // The writer's swaps all published: initial load + updates + other-project
  // churn + rebuilds, each a version bump.
  EXPECT_GT(runtime.snapshot_version(),
            static_cast<uint64_t>(kWriterUpdates));
}

TEST(GatekeeperConcurrencyTest, FoldedStatsCountEveryEvaluation) {
  constexpr int kThreads = 4;
  constexpr int kChecksPerThread = 10000;

  GatekeeperRuntime runtime;
  // Single always-true restraint: every check evaluates it exactly once and
  // it always passes, so the folded stats are exactly predictable.
  ASSERT_TRUE(runtime
                  .ApplyConfigUpdate(
                      "gatekeeper/stats.json",
                      R"({"project": "stats", "rules": [{"restraints":
                          [{"type": "always"}], "pass_probability": 1.0}]})")
                  .ok());

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      UserContext user;
      user.user_id = t;
      for (int i = 0; i < kChecksPerThread; ++i) {
        runtime.Check("stats", user);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kThreads) * kChecksPerThread;
  EXPECT_EQ(runtime.check_count(), kTotal);
  auto stats = runtime.StatsSnapshot("stats");
  ASSERT_EQ(stats.size(), 1u);
  ASSERT_EQ(stats[0].size(), 1u);
  EXPECT_EQ(stats[0][0].evals, kTotal);
  EXPECT_EQ(stats[0][0].passes, kTotal);
  EXPECT_DOUBLE_EQ(stats[0][0].pass_rate(), 1.0);

  // Stats survive an epoch rebuild (same shared block, new snapshot).
  uint64_t version_before = runtime.snapshot_version();
  runtime.Rebuild();
  EXPECT_GT(runtime.snapshot_version(), version_before);
  auto stats_after = runtime.StatsSnapshot("stats");
  ASSERT_EQ(stats_after.size(), 1u);
  EXPECT_EQ(stats_after[0][0].evals, kTotal);
}

}  // namespace
}  // namespace configerator
