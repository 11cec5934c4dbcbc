// Commit tracer: assigns each landed commit a trace id and records the
// causally-ordered spans it generates as it flows through the pipeline —
// LandingStrip → Sandcastle → canary → git tailer → Zeus leader/observer/
// proxy tree → per-server disk cache → application callback (and the
// PackageVessel metadata/bulk split). All timestamps are *sim* time, so a
// DST run produces bit-identical traces on replay.
//
// Causal joins happen at the two points where the commit changes identity:
//  * BindPath(path, ctx): a landed commit touches `path`; the tailer later
//    discovers the change by path and parents its publish span here.
//  * BindZxid(zxid, ctx): Zeus assigned a zxid to the published write; every
//    later delivery of that zxid (observer push, anti-entropy replay,
//    subscribe refetch) parents its span here.
//
// StartSpan with an invalid parent returns an invalid context and records
// nothing — a delivery whose provenance predates tracing (or was never
// traced) contributes no orphan span, which is what lets ValidateComplete
// demand a fully-connected tree.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/status.h"

namespace configerator {

// Identifies one span within one trace; passed by value across hops (it
// rides beside the shared ZeusTxn through the distribution tree). trace_id
// 0 = invalid.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

struct Span {
  uint64_t id = 0;      // Dense per trace: spans[i].id == i + 1.
  uint64_t parent = 0;  // 0 = root span.
  std::string name;     // e.g. "proxy.apply".
  std::string host;     // Where it ran, e.g. "1.0.4".
  SimTime start = 0;
  SimTime end = -1;  // -1 = still open (sim time is never negative).
  bool open() const { return end < 0; }
};

struct TraceData {
  uint64_t id = 0;
  std::string name;  // e.g. "commit step=7".
  SimTime start = 0;
  std::vector<Span> spans;
};

class Tracer {
 public:
  // Record 1 of every `n` traces (default 1 = record everything). At fleet
  // scale a span tree per commit per 100k-server fan-out is the tracer's
  // memory wall, so scale runs sample: an unsampled StartTrace returns an
  // invalid context, and because StartSpan on an invalid parent records
  // nothing, the whole downstream tree no-ops without any caller changes.
  // Sampling is by arrival order (first of each stride), so it is
  // deterministic under DST replay.
  void SetSampleEvery(uint64_t n) { sample_every_ = n == 0 ? 1 : n; }
  uint64_t sample_every() const { return sample_every_; }
  // Traces skipped by sampling since construction.
  uint64_t sampled_out() const { return sampled_out_; }

  // Opens a root span; `at` is the sim time the commit entered the pipeline.
  // Returns an invalid context (nothing recorded) for sampled-out traces.
  TraceContext StartTrace(const std::string& name, const std::string& host,
                          SimTime at);

  // Opens a child span. Invalid/unknown parent → invalid context, no span.
  TraceContext StartSpan(const TraceContext& parent, const std::string& name,
                         const std::string& host, SimTime at);

  void EndSpan(const TraceContext& ctx, SimTime at);

  // --- Causal joins ---------------------------------------------------------

  void BindPath(const std::string& path, const TraceContext& ctx);
  TraceContext PathContext(const std::string& path) const;
  void BindZxid(int64_t zxid, const TraceContext& ctx);
  TraceContext ZxidContext(int64_t zxid) const;

  // --- Queries --------------------------------------------------------------

  const TraceData* Find(uint64_t trace_id) const;
  // Root-span start, or -1 if the trace is unknown. Propagation latency at a
  // hop is `now - TraceStartTime(ctx.trace_id)`.
  SimTime TraceStartTime(uint64_t trace_id) const;
  size_t trace_count() const { return traces_.size(); }

  // A complete trace: has spans, every span is closed, every parent exists,
  // and time is monotone along every parent→child edge (child starts no
  // earlier than its parent — causality in sim time).
  Status ValidateComplete(uint64_t trace_id) const;

  // Indented text rendering of the span tree, children ordered by
  // (start, id). Deterministic; DST violation reports embed this.
  std::string DumpTree(uint64_t trace_id) const;

 private:
  std::map<uint64_t, TraceData> traces_;
  std::map<std::string, TraceContext> by_path_;
  std::map<int64_t, TraceContext> by_zxid_;
  uint64_t next_trace_id_ = 1;
  uint64_t sample_every_ = 1;
  uint64_t arrivals_ = 0;
  uint64_t sampled_out_ = 0;
};

}  // namespace configerator

#endif  // SRC_OBS_TRACE_H_
