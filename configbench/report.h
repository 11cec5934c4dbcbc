// The result envelope of one benchmark run: what ran (bench, workload, seed,
// commit, host and build), what was measured (named metrics, each a value
// with a unit) and how many operations were attempted and failed.
//
// Print() writes a human-readable table, then the whole envelope as one
// JSON line prefixed "envelope: ", then — as the last line of stdout — the
// object the tooling parses:
//
//   {"correct": true, "attempted": 812, "failed": 0,
//    "metrics": {"setup_s": {"value": 2.41, "unit": "s"}, ...}}

#ifndef CONFIGBENCH_REPORT_H_
#define CONFIGBENCH_REPORT_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace configbench {

#if defined(__SANITIZE_ADDRESS__)
inline constexpr const char* kSanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
inline constexpr const char* kSanitizer = "thread";
#else
inline constexpr const char* kSanitizer = "none";
#endif

class Report {
 public:
  Report(std::string workload, uint64_t seed, bool trace)
      : workload_(std::move(workload)), seed_(seed), trace_(trace) {}

  // Metrics print in insertion order. A value that is not finite is a bench
  // bug; it is reported as a failed check rather than as invalid JSON.
  void Add(const std::string& name, const std::string& unit, double value) {
    if (!std::isfinite(value)) {
      Fail("metric " + name + " is not finite");
      value = 0;
    }
    metrics_.push_back(Metric{name, unit, value});
  }

  void SetOps(uint64_t attempted, uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }
  void Fail(const std::string& reason) { errors_.push_back(reason); }
  bool correct() const { return errors_.empty() && failed_ == 0; }

  void Print() const {
    std::printf("configerator_bench  workload=%s seed=%llu trace=%d\n",
                workload_.c_str(), static_cast<unsigned long long>(seed_),
                trace_ ? 1 : 0);
    std::printf("  commit=%s nproc=%u compiler=\"%s\" build=%s sanitizer=%s\n",
                CFG_GIT_SHA, std::thread::hardware_concurrency(), __VERSION__,
                CFG_BUILD_TYPE, kSanitizer);
    std::printf("  %-42s %18s  %s\n", "metric", "value", "unit");
    for (const Metric& m : metrics_) {
      std::printf("  %-42s %18.6g  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("  ops attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (const std::string& error : errors_) {
      std::printf("  FAILED CHECK: %s\n", error.c_str());
    }

    std::string meta = "\"bench\": \"configerator_bench\", \"workload\": " +
                       Quote(workload_) +
                       ", \"seed\": " + std::to_string(seed_) +
                       ", \"trace\": " + (trace_ ? "true" : "false") +
                       ", \"git_sha\": " + Quote(CFG_GIT_SHA) +
                       ", \"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"compiler\": " + Quote(__VERSION__) +
                       ", \"build_type\": " + Quote(CFG_BUILD_TYPE) +
                       ", \"sanitizer\": " + Quote(kSanitizer) +
                       ", \"ops_attempted\": " + std::to_string(attempted_) +
                       ", \"ops_failed\": " + std::to_string(failed_);
    std::printf("envelope: {%s, \"metrics\": %s}\n", meta.c_str(),
                MetricsJson().c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                MetricsJson().c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value;
  };

  // Names, units and the compiler string are plain ASCII without quotes or
  // backslashes; escape defensively anyway.
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      out += c;
    }
    return out + "\"";
  }

  std::string MetricsJson() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      out += (i == 0 ? "" : ", ") + Quote(metrics_[i].name) +
             ": {\"value\": " + value + ", \"unit\": " +
             Quote(metrics_[i].unit) + "}";
    }
    return out + "}";
  }

  std::string workload_;
  uint64_t seed_;
  bool trace_;
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace configbench

#endif  // CONFIGBENCH_REPORT_H_
