// In-memory span recorder for the benchmark's traced pass. Spans are opened
// and closed by the benchmark's own code around each call into a library
// layer (name, start, end, parent span, request id); nothing inside the
// library is instrumented. Spans are written out when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  struct Span {
    uint32_t name = 0;
    uint32_t parent = kNoParent;
    uint64_t request = 0;
    Clock::time_point start;
    Clock::time_point end;
    bool probe = false;  // recorded by the layer probe, not the job replay

    double ms() const { return MsBetween(start, end); }
  };

  Tracer();

  /// Interns a span name ("<module>.<what>"); call outside timed loops.
  uint32_t Name(const std::string& name);
  const std::string& NameOf(uint32_t id) const { return names_[id]; }

  /// Opens a span under the innermost open span; returns its index.
  uint32_t Begin(uint32_t name, uint64_t request);
  void End(uint32_t span);
  /// Renames a closed span (e.g. a request that turned out to be a memo hit).
  void Rename(uint32_t span, uint32_t name) { spans_[span].name = name; }

  /// Spans opened from now on carry the probe flag.
  void SetProbe(bool probe) { probe_ = probe; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every closed span named `name`, job spans first; if
  /// the job recorded none, the probe's.
  std::vector<double> Durations(const std::string& name) const;
  /// Sum of the durations of spans named `name` outside the probe.
  double JobTotalMs(const std::string& name) const;
  /// Sum of the durations of the direct children of span `span`.
  double ChildrenMs(uint32_t span) const;
  /// Sum of the durations of every span outside the probe whose parent is
  /// named `parent`: the library time inside the benchmark's op spans.
  double JobChildrenMs(const std::string& parent) const;

  /// Self time (duration minus the part covered by child spans) summed per
  /// span name over the subtree rooted at `root`.
  std::map<std::string, double> SelfTimes(uint32_t root) const;

  /// Writes one line per span: index, name, parent, request, probe flag and
  /// start/end in µs relative to the first span.
  Status Write(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  bool probe_ = false;
};

/// RAII span; a null tracer records nothing (the untraced pass).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint32_t name, uint64_t request)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t index() const { return span_; }

 private:
  Tracer* tracer_;
  uint32_t span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
