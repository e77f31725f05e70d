#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

void SpanLog::Enable(size_t expected_spans) {
  enabled_ = true;
  spans_.reserve(expected_spans);
}

uint32_t SpanLog::NameId(const char* name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(name, id);
  return id;
}

void SpanLog::Add(uint64_t trace_id, const char* name, double start_s,
                  double end_s, bool root) {
  if (!enabled_) return;
  spans_.push_back(Span{trace_id, NameId(name), root, start_s,
                        end_s - start_s});
}

std::map<std::string, double> SpanLog::SelfTimeByName() const {
  std::map<uint64_t, double> child;
  for (const Span& s : spans_) {
    if (!s.root) child[s.trace_id] += s.dur_s;
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    const double covered = s.root ? child[s.trace_id] : 0.0;
    self[names_[s.name]] += std::max(0.0, s.dur_s - covered);
  }
  return self;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "trace_id,root,name,start_us,dur_us\n");
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu,%d,%s,%.3f,%.3f\n",
                 static_cast<unsigned long long>(s.trace_id), s.root ? 1 : 0,
                 names_[s.name].c_str(), (s.start_s - t0) * 1e6,
                 s.dur_s * 1e6);
  }
  return std::fclose(f) == 0;
}

std::map<dinomo::obs::SpanKind, double> TracerSelfUsPerRequest(
    const dinomo::obs::Tracer& tracer) {
  using dinomo::obs::SpanKind;
  const std::vector<dinomo::obs::SpanRecord> spans = tracer.Snapshot();
  auto id = [](uint64_t trace, uint32_t span) {
    return std::make_pair(trace, span);
  };
  std::map<std::pair<uint64_t, uint32_t>, double> child;
  for (const auto& s : spans) {
    if (s.parent_id != 0) child[id(s.trace_id, s.parent_id)] += s.dur_us;
  }
  std::map<SpanKind, double> self;
  uint64_t requests = 0;
  for (const auto& s : spans) {
    if (s.kind == SpanKind::kRequest) requests++;
    auto it = s.span_id != 0 ? child.find(id(s.trace_id, s.span_id))
                             : child.end();
    const double covered = it == child.end() ? 0.0 : it->second;
    self[s.kind] += std::max(0.0, s.dur_us - covered);
  }
  if (requests > 0) {
    for (auto& [kind, us] : self) us /= static_cast<double>(requests);
  }
  return self;
}

}  // namespace perfbench
