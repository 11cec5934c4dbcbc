// Wall-clock spans for the traced run, recorded by the benchmark around its
// calls into each layer (the program itself records none yet). A span has a
// name, a start, an end, a parent and the id of the operation (commit or
// update) it belongs to. Spans stay in memory; WriteChromeTrace() exports
// them as Chrome trace-event JSON, which chrome://tracing and Perfetto open.
//
// A span's self time is its duration minus the time its children cover, so
// the self times of one operation's spans add up to its root span.

#ifndef CONFIGBENCH_SPANS_H_
#define CONFIGBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <string>
#include <vector>

namespace configbench {

class SpanRecorder {
 public:
  // Starts operation `op_id` with a span named `name`: the operation's root,
  // unless a span is already open (then it nests, like any other span).
  void BeginOp(uint64_t op_id, const char* name) {
    op_id_ = op_id;
    Begin(name);
  }
  // Opens a child of the innermost open span.
  void Begin(const char* name) {
    int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, op_id_, parent, Now()});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
  }
  void End() {
    Span& span = spans_[static_cast<size_t>(open_.back())];
    open_.pop_back();
    span.end_ns = Now();
    if (span.parent >= 0) {
      spans_[static_cast<size_t>(span.parent)].child_ns +=
          span.end_ns - span.start_ns;
    }
  }

  // Total self time per span name, in seconds.
  std::map<std::string, double> SelfSecondsByName() const {
    std::map<std::string, double> out;
    for (const Span& span : spans_) {
      out[span.name] += static_cast<double>(span.self_ns()) * 1e-9;
    }
    return out;
  }

  // Root spans: summed duration and summed self time, in seconds.
  double RootSeconds() const { return SumRoots(false); }
  double RootSelfSeconds() const { return SumRoots(true); }

  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << std::fixed << std::setprecision(3)
        << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << static_cast<double>(s.start_ns - origin) * 1e-3
          << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
          << ", \"args\": {\"op\": " << s.op_id << ", \"parent\": " << s.parent
          << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;  // String literal: spans are cheap to record.
    uint64_t op_id;
    int32_t parent;    // Index into spans_, or -1 for an operation's root.
    int64_t start_ns;
    int64_t end_ns = -1;
    int64_t child_ns = 0;
    int64_t self_ns() const { return end_ns - start_ns - child_ns; }
  };

  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  double SumRoots(bool self_only) const {
    int64_t total = 0;
    for (const Span& span : spans_) {
      if (span.parent < 0) {
        total += self_only ? span.self_ns() : span.end_ns - span.start_ns;
      }
    }
    return static_cast<double>(total) * 1e-9;
  }

  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t op_id_ = 0;
};

// Opens a span for the enclosing scope; does nothing when `recorder` is null
// (the untraced run), so traced and untraced runs share one code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name) : recorder_(recorder) {
    if (recorder_ != nullptr) {
      recorder_->Begin(name);
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace configbench

#endif  // CONFIGBENCH_SPANS_H_
