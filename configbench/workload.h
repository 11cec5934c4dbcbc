// What every benchmark workload provides, and what a measured run of one
// collects. Workloads build their own world (stack, repository, subscribers)
// from the seed, so the same seed gives the same inputs and — because the
// distribution plane runs on the simulator — the same simulated timeline.

#ifndef CONFIGBENCH_WORKLOAD_H_
#define CONFIGBENCH_WORKLOAD_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "configbench/spans.h"
#include "src/util/rng.h"

namespace configbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Uniform fixed-capacity sample of a stream (Algorithm R), so memory does not
// grow with run length or speed; exact while the stream fits. Seeded, so a
// deterministic stream keeps a deterministic sample.
class Reservoir {
 public:
  explicit Reservoir(uint64_t seed) : rng_(seed) {}

  void Add(double x) {
    ++seen_;
    if (samples_.size() < kCapacity) {
      samples_.push_back(x);
    } else {
      uint64_t slot = rng_.NextBounded(seen_);
      if (slot < kCapacity) {
        samples_[slot] = x;
      }
    }
  }
  void Merge(const Reservoir& other) {
    for (double x : other.samples_) {
      Add(x);
    }
  }

  bool empty() const { return samples_.empty(); }

  // Linear interpolation between closest ranks; p in [0, 100]; 0 if empty.
  double Percentile(double p) const {
    if (samples_.empty()) {
      return 0;
    }
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  }

 private:
  static constexpr size_t kCapacity = 1 << 16;

  configerator::Rng rng_;
  uint64_t seen_ = 0;
  std::vector<double> samples_;
};

// Everything one measured phase records. Times are wall clock unless named
// "sim"; per-layer sums are over the phase's commits (or serving updates).
struct Stats {
  // Operations: commits for the commit workloads; Gatekeeper user checks for
  // serving (its updates and reads are counted in `attempted` too).
  uint64_t ops = 0;
  // Op rate of each window of the measured phase (see Measure in main.cc).
  Reservoir window_ops_per_s{17};
  Reservoir op_ms{11};
  Reservoir author_wait_ms{12};
  Reservoir save_to_fleet_sim_s{13};
  Reservoir read_ns{14};
  Reservoir land_to_fleet_sim_s{15};
  Reservoir generator_late_ms{16};

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // The first few failure messages.

  // Run digest: per-commit verdict, no-op flag, compiled-entry count and
  // head commit id (plus oracle outcomes for serving). Traced and untraced
  // runs of the same seed and length must agree on it.
  uint64_t digest = 1469598103934665603ULL;

  // Per-layer counts, summed over commits.
  uint64_t commits = 0;
  uint64_t reanalyzed = 0;
  uint64_t pruned = 0;
  uint64_t noop_certified = 0;
  uint64_t invariants_checked = 0;
  uint64_t sim_events = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t zxids = 0;
  uint64_t proxy_updates = 0;
  uint64_t fleet_updates = 0;
  uint64_t snapshot_swaps = 0;
  uint64_t unit_hits = 0, unit_misses = 0;
  uint64_t output_hits = 0, output_misses = 0;
  uint64_t reads = 0;
  double read_seconds = 0;
  double commit_seconds = 0;  // Wall time of DriveCommit calls.
  uint64_t traces = 0;        // Held by the stack's tracer at the end.
  uint64_t spans = 0;

  // Records one timed batch of `n` oracle-checked config reads.
  void AddReads(size_t n, double seconds) {
    read_ns.Add(seconds * 1e9 / static_cast<double>(n));
    read_seconds += seconds;
    reads += n;
    attempted += n;
  }
  void Fail(const std::string& message) {
    ++failed;
    if (errors.size() < 8) {
      errors.push_back(message);
    }
  }
  void Digest(const std::string& item) {
    for (unsigned char c : item) {
      digest = (digest ^ c) * 1099511628211ULL;  // FNV-1a.
    }
    digest = (digest ^ 0xff) * 1099511628211ULL;
  }
};

// The smoke variant shrinks every world so the whole suite runs in seconds;
// it exercises the same code paths at a fraction of the size.
struct WorkloadConfig {
  uint64_t seed = 1;
  bool smoke = false;
  // Perturbs one oracle expectation, so the run must report a failure.
  bool perturb = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the world and drives one warm-up operation through it.
  virtual void Setup(Stats* stats) = 0;
  // Later operations take the traced path and record spans into `spans`.
  virtual void EnableTracing(SpanRecorder* spans) = 0;
  // Brackets the measured phase (serving starts and joins its readers).
  virtual void BeginMeasure(Stats*) {}
  virtual void EndMeasure(Stats*) {}
  // Ops completed so far in the measured phase; serving's reader threads
  // count theirs as they go.
  virtual uint64_t OpsDone(const Stats& stats) const { return stats.ops; }
  // One measured operation: a commit, or for serving one config update and
  // the reads and oracle checks around it. Returns false when the workload
  // cannot continue (its world is wedged).
  virtual bool RunOp(Stats* stats) = 0;
};

std::unique_ptr<Workload> MakeAuthoringWorkload(const WorkloadConfig& config,
                                                bool noop);
std::unique_ptr<Workload> MakeFanoutWorkload(const WorkloadConfig& config);
std::unique_ptr<Workload> MakeServingWorkload(const WorkloadConfig& config);

}  // namespace configbench

#endif  // CONFIGBENCH_WORKLOAD_H_
