// In-memory span log for the traced run: the benchmark records a span
// around every Client call and every layer-pass call, keeps them in
// memory and writes them out once, at exit.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

class SpanLog {
 public:
  /// A trace is one operation (or one layer-pass call): its root span
  /// covers the whole of it and every other span of the trace is a child
  /// of the root.
  struct Span {
    uint64_t trace_id = 0;
    uint32_t name = 0;  // index into names_
    bool root = false;
    double start_s = 0.0;
    double dur_s = 0.0;
  };

  bool enabled() const { return enabled_; }
  void Enable(size_t expected_spans);

  void Add(uint64_t trace_id, const char* name, double start_s, double end_s,
           bool root);

  /// Sum of self time (duration minus the time of the trace's child
  /// spans, for a root) per span name, seconds.
  std::map<std::string, double> SelfTimeByName() const;

  /// Writes the spans as CSV (trace_id,root,name,start_us,dur_us).
  bool WriteCsv(const std::string& path) const;


 private:
  uint32_t NameId(const char* name);

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> name_ids_;
};

/// Self time per span kind over the spans still in `tracer`'s ring,
/// divided by the number of request roots there: microseconds of each
/// phase per traced request, in the tracer's clock.
std::map<dinomo::obs::SpanKind, double> TracerSelfUsPerRequest(
    const dinomo::obs::Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
