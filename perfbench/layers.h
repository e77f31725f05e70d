// The benchmark's metric sets and the per-layer measurements shared by
// every workload: counter deltas, tracer self times and the layer pass.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spans.h"
#include "workload/ycsb.h"

namespace perfbench {

/// Printed by an untraced run (--trace 0), on every workload.
const std::vector<MetricDef>& EndToEndMetrics();
/// Printed by a traced run (--trace 1), on every workload; a metric whose
/// layer a workload does not exercise reads 0.
const std::vector<MetricDef>& PerLayerMetrics();

/// Sets `name` with the unit the metric tables give it.
void SetMetric(Report* report, const char* name, double value);

/// core.op_failure_ratio and the failure breakdown from the report's
/// counts.
void FailureMetrics(Report* report);

/// Fabric round trips (all initiators) in a counter delta.
uint64_t RoundTrips(const dinomo::obs::MetricsSnapshot& delta);

/// Per-layer metrics derived from the always-on counters over a measured
/// run that completed `ops` operations.
void CounterMetrics(const dinomo::obs::MetricsSnapshot& delta, double ops,
                    Report* report);

/// Per-layer metrics from the self time of the tracer's spans.
void TracerMetrics(const dinomo::obs::Tracer& tracer, Report* report);

/// What the layer pass needs to know about the workload.
struct LayerInputs {
  dinomo::workload::WorkloadSpec spec;  // keys, skew and value size
  size_t cache_bytes_per_worker = 0;
  int num_kns = 1;
  size_t pool_bytes = 0;     // per DPM node
  size_t segment_size = 0;
};

/// Times calls into each layer's public functions with the workload's own
/// keys and sizes, one span per timed repetition.
void RunLayerPass(const LayerInputs& in, SpanLog* spans, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
