// sim-storm: the rack-scale open-loop storm in virtual time. 100 KNs and
// 12 DPM nodes under a three-tenant diurnal load plus a flash spike, with
// the windowed-p99 SLO autoscaler adding and removing KNs. Model latency is
// measured from each op's intended arrival time; the host cost of
// simulating it is what the end-to-end metrics measure.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "load/arrival.h"
#include "load/traffic.h"
#include "sim/dinomo_sim.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dinomo;

constexpr double kSecond = 1e6;
constexpr size_t kMiB = 1024 * 1024;
constexpr size_t kValueSize = 1024;
constexpr int kSetups = 3;
constexpr int kRepetitions = 2;

// The storm_autoscaling bench's quick configuration.
struct StormConfig {
  int base_kns = 100;
  int max_kns = 160;
  int dpm_nodes = 12;
  uint64_t records = 48000;
  double duration_us = 2.8 * kSecond;
  double warmup_us = 0.2 * kSecond;
  double trough_ops_s = 120e3;
  double peak_ops_s = 240e3;
  double diurnal_period_us = 1.6 * kSecond;
  double spike_ops_s = 1.3e6;
  double spike_at_us = 0.9 * kSecond;
  double spike_dur_us = 0.2 * kSecond;
  double p99_slo_us = 3000.0;
  double scaler_window_us = 50e3;
  size_t pool_bytes = 128 * kMiB;
  size_t segment_size = 128 * 1024;
  size_t cache_bytes = 2 * kMiB;
};

sim::DinomoSimOptions SimOptions(const StormConfig& cfg, uint64_t seed,
                                 obs::Tracer* tracer) {
  sim::DinomoSimOptions opt;
  opt.variant = SystemVariant::kDinomo;
  opt.num_kns = cfg.base_kns;
  opt.dpm_nodes = cfg.dpm_nodes;
  opt.dpm.pool_size = cfg.pool_bytes;
  opt.dpm.index_log2_buckets = 12;
  opt.dpm.segment_size = cfg.segment_size;
  opt.dpm_threads = 16;
  opt.kn.num_workers = 1;
  opt.kn.cache_bytes = cfg.cache_bytes;
  // Rack-scale per-op compute budget: 100 KNs x 1 worker saturate near
  // 1 Mops/s, so the spike (1.3 Mops/s) overloads the cluster.
  opt.kn.cpu_value_hit_us = 100.0;
  opt.kn.cpu_shortcut_hit_us = 140.0;
  opt.kn.cpu_miss_us = 160.0;
  opt.kn.cpu_write_us = 120.0;
  opt.spec.record_count = cfg.records;
  opt.spec.value_size = kValueSize;
  opt.spec.seed = seed;
  opt.client_threads = 0;  // open loop only
  opt.stats_window_us = 100e3;
  opt.seed = seed;
  opt.tracer = tracer;
  return opt;
}

load::OpenLoopSpec Tenants(const StormConfig& cfg, uint64_t seed) {
  load::OpenLoopSpec spec;
  spec.seed = seed;
  const uint64_t r0 = cfg.records * 2 / 5;
  const uint64_t r1 = cfg.records * 3 / 10;
  const uint64_t r2 = cfg.records - r0 - r1;
  load::TenantSpec t0;  // skewed read-mostly with a churning hot set
  t0.weight = 0.5;
  t0.spec = workload::WorkloadSpec::ReadMostlyUpdate(r0, 0.8);
  t0.key_base = 0;
  t0.hot_churn_interval_us = 0.4 * kSecond;
  load::TenantSpec t1;  // uniform read-only
  t1.weight = 0.3;
  t1.spec = workload::WorkloadSpec::ReadOnly(r1, 0.0);
  t1.key_base = r0;
  load::TenantSpec t2;  // moderately skewed write-heavy
  t2.weight = 0.2;
  t2.spec = workload::WorkloadSpec::WriteHeavyUpdate(r2, 0.5);
  t2.key_base = r0 + r1;
  for (load::TenantSpec* t : {&t0, &t1, &t2}) {
    t->spec.value_size = kValueSize;
    t->spec.seed = seed;
    spec.tenants.push_back(*t);
  }
  spec.horizon_us = cfg.duration_us;
  return spec;
}

/// The model's outputs; identical for every run of one seed.
struct ModelOutputs {
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t abandoned = 0;
  uint64_t in_flight_at_end = 0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double slo_violation_s = 0.0;
  int scale_actions = 0;

  bool operator==(const ModelOutputs&) const = default;
};

struct StormRun {
  ModelOutputs model;
  double host_s = 0.0;
  double cpu_s = 0.0;
  uint64_t events = 0;
  double space_amp = 0.0;
  obs::MetricsSnapshot delta;
};

/// Seconds of stats windows whose p99 broke the SLO, or that had offered
/// traffic and no completions.
double SloViolationSeconds(const sim::DinomoSim::OpenLoopStats& st,
                           double slo_us) {
  double seconds = 0.0;
  const size_t n = std::max(st.windows.num_windows(),
                            st.offered_per_window.size());
  for (size_t i = 0; i < n; ++i) {
    const uint64_t offered =
        i < st.offered_per_window.size() ? st.offered_per_window[i] : 0;
    const bool has = i < st.windows.num_windows();
    const uint64_t completed = has ? st.windows.window(i).completed : 0;
    const double p99 = has ? st.windows.window(i).latency.P99() : 0.0;
    if ((completed > 0 && p99 > slo_us) || (offered > 0 && completed == 0)) {
      seconds += st.windows.window_us() / kSecond;
    }
  }
  return seconds;
}

StormRun RunOnce(const StormConfig& cfg, sim::DinomoSim* sim, uint64_t seed,
                 SpanLog* spans, uint64_t trace_id) {
  load::RateSchedule schedule = load::RateSchedule::Diurnal(
      cfg.trough_ops_s, cfg.peak_ops_s, cfg.diurnal_period_us,
      /*steps_per_period=*/16, cfg.duration_us);
  schedule.AddSpike(cfg.spike_at_us, cfg.spike_dur_us, cfg.spike_ops_s);
  load::OpenLoopSource source(
      std::make_unique<load::ScheduledArrivalProcess>(schedule, seed),
      Tenants(cfg, seed));

  sim::DinomoSim::OpenLoopOptions run;
  run.source = &source;
  run.value_size = kValueSize;
  run.autoscale = true;
  run.autoscaler.p99_slo_us = cfg.p99_slo_us;
  run.autoscaler.breach_windows = 2;
  run.autoscaler.clear_windows = 3;
  run.autoscaler.clear_fraction = 0.5;
  run.autoscaler.cooldown_s = 0.15;
  run.autoscaler.min_kns = cfg.base_kns;
  run.autoscaler.max_kns = cfg.max_kns;
  run.autoscaler.scale_up_step = 12;
  run.autoscaler.scale_down_step = 8;
  run.autoscaler_interval_us = cfg.scaler_window_us;

  StormRun r;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  const uint64_t events0 = sim->engine()->executed();
  const double cpu0 = ProcessCpuS();
  const HostTicks host0 = ReadHostTicks();
  const double t0 = NowS();
  sim->RunOpenLoop(run, cfg.duration_us, cfg.warmup_us);
  const double t1 = NowS();
  NoteHostSteal(host0);
  r.host_s = t1 - t0;
  r.cpu_s = ProcessCpuS() - cpu0;
  r.events = sim->engine()->executed() - events0;
  r.delta = obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  spans->Add(trace_id, "sim.RunOpenLoop", t0, t1, false);

  const sim::DinomoSim::OpenLoopStats& st = *sim->open_loop_stats();
  r.model.offered = st.offered;
  r.model.completed = st.completed;
  r.model.abandoned = st.abandoned;
  r.model.in_flight_at_end = st.in_flight_at_end;
  r.model.p50_us = st.intended_latency.P50();
  r.model.p90_us = st.intended_latency.Percentile(90);
  r.model.p99_us = st.intended_latency.P99();
  r.model.slo_violation_s = SloViolationSeconds(st, cfg.p99_slo_us);
  r.model.scale_actions = st.scale_ups + st.scale_downs;

  // No DrainLogs() here: after RunOpenLoop a merge batch may still be
  // dequeued with its finish scheduled on the stopped engine, and
  // DrainLogs then waits for it forever (README.md, "Known limits").
  double allocated = 0.0;
  for (int n = 0; n < sim->pool()->num_nodes(); ++n) {
    allocated += static_cast<double>(
        sim->pool()->node(n)->allocator()->allocated_bytes());
  }
  r.space_amp = allocated / (static_cast<double>(cfg.records) *
                             static_cast<double>(8 + kValueSize));
  return r;
}

}  // namespace

void RunStormWorkload(const RunArgs& a, Report* rep) {
  const StormConfig cfg;
  std::printf("workload sim-storm: %d KNs (autoscaled to <= %d), %d DPM "
              "nodes, %llu records x %zu B, %.1f s virtual, spike %.0f ops/s "
              "at %.1f s\n",
              cfg.base_kns, cfg.max_kns, cfg.dpm_nodes,
              static_cast<unsigned long long>(cfg.records), kValueSize,
              cfg.duration_us / kSecond, cfg.spike_ops_s,
              cfg.spike_at_us / kSecond);
  SpanLog spans;
  obs::Tracer tracer;
  std::vector<StormRun> runs;
  std::vector<double> setup_s;
  // Two repetitions of one seed, so their model outputs can be compared.
  // Untraced: both untraced. Traced: one untraced run for the counters,
  // then one traced run.
  for (int i = 0; i < kRepetitions; ++i) {
    const bool traced = a.trace && i == 1;
    if (traced) {
      obs::TraceOptions topt;
      topt.sample_every = 1;
      topt.ring_capacity = 1 << 16;
      tracer.Enable(topt);
      spans.Enable(1024);
    }
    const uint64_t trace_id = static_cast<uint64_t>(i) + 1;
    const double t0 = NowS();
    auto sim = std::make_unique<sim::DinomoSim>(
        SimOptions(cfg, a.seed, traced ? &tracer : nullptr));
    sim->Preload();
    const double t1 = NowS();
    setup_s.push_back(t1 - t0);
    spans.Add(trace_id, "sim.Preload", t0, t1, false);
    runs.push_back(RunOnce(cfg, sim.get(), a.seed, &spans, trace_id));
    sim.reset();
    spans.Add(trace_id, "sim.storm", t0, NowS(), true);
  }
  // One more set-up, so setup_s is a median of three.
  while (!a.trace && setup_s.size() < kSetups) {
    const double t0 = NowS();
    auto sim =
        std::make_unique<sim::DinomoSim>(SimOptions(cfg, a.seed, nullptr));
    sim->Preload();
    setup_s.push_back(NowS() - t0);
  }

  for (const StormRun& r : runs) {
    const ModelOutputs& m = r.model;
    // An abandoned op exhausted its retry budget: the client saw it fail.
    rep->attempted += m.offered;
    rep->failed += m.abandoned;
    rep->fail_kinds[static_cast<size_t>(FailKind::kDeadline)] += m.abandoned;
    if (m.offered != m.completed + m.abandoned + m.in_flight_at_end) {
      rep->Fail("sim-storm: offered " + std::to_string(m.offered) +
                " != completed " + std::to_string(m.completed) +
                " + abandoned " + std::to_string(m.abandoned) +
                " + in flight " + std::to_string(m.in_flight_at_end));
    }
    if (!(m == runs.front().model)) {
      rep->Fail("sim-storm: model outputs differ between runs of one seed");
    }
  }
  const StormRun& first = runs.front();
  std::printf("model: offered=%llu completed=%llu abandoned=%llu "
              "in_flight_at_end=%llu p50=%.1f us p99=%.1f us "
              "slo_violation=%.2f s "
              "scale_actions=%d; %zu run(s)\n",
              static_cast<unsigned long long>(first.model.offered),
              static_cast<unsigned long long>(first.model.completed),
              static_cast<unsigned long long>(first.model.abandoned),
              static_cast<unsigned long long>(first.model.in_flight_at_end),
              first.model.p50_us, first.model.p99_us,
              first.model.slo_violation_s, first.model.scale_actions,
              runs.size());

  std::vector<double> tput, cpu_per_op;
  for (const StormRun& r : runs) {
    tput.push_back(static_cast<double>(r.model.completed) / r.host_s);
    cpu_per_op.push_back(r.cpu_s * 1e6 /
                         static_cast<double>(r.model.completed));
  }
  const double ops =
      static_cast<double>(std::max<uint64_t>(first.model.completed, 1));
  if (!a.trace) {
    SetMetric(rep, "throughput_ops_s", Median(tput));
    SetMetric(rep, "cpu_us_per_op", Median(cpu_per_op));
    SetMetric(rep, "p50_us", first.model.p50_us);
    SetMetric(rep, "p90_us", first.model.p90_us);
    SetMetric(rep, "rts_per_op",
              static_cast<double>(RoundTrips(first.delta)) / ops);
    SetMetric(rep, "pm_space_amp", first.space_amp);
    SetMetric(rep, "setup_s", Median(setup_s));
  } else {
    CounterMetrics(first.delta, ops, rep);
    SetMetric(rep, "sim.events_per_op",
              static_cast<double>(first.events) / ops);
    SetMetric(rep, "sim.model_p99_us", first.model.p99_us);
    SetMetric(rep, "sim.model_slo_violation_s", first.model.slo_violation_s);
    SetMetric(rep, "mnode.scale_actions", first.model.scale_actions);
    TracerMetrics(tracer, rep);
    SetMetric(rep, "obs.trace_overhead_ratio", tput[1] / tput[0]);

    LayerInputs in;
    // The layer pass uses the largest tenant's keys and skew.
    in.spec =
        workload::WorkloadSpec::ReadMostlyUpdate(cfg.records * 2 / 5, 0.8);
    in.spec.value_size = kValueSize;
    in.spec.seed = a.seed;
    in.cache_bytes_per_worker = cfg.cache_bytes;
    in.num_kns = cfg.base_kns;
    in.pool_bytes = cfg.pool_bytes;
    in.segment_size = cfg.segment_size;
    RunLayerPass(in, &spans, rep);
    const std::string path = a.out_dir + "/spans-" + a.workload + ".csv";
    if (!spans.WriteCsv(path)) {
      std::printf("NOTE: could not write %s\n", path.c_str());
    }
  }
  FailureMetrics(rep);
  SetMetric(rep, "peak_rss_mb", PeakRssMb());
}

}  // namespace perfbench
