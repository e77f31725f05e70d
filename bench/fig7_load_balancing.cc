// Reproduces Figure 7: latency and throughput over time while the
// workload switches from low skew (Zipf 0.5) to extreme skew (Zipf 2),
// for DINOMO (with selective replication), DINOMO-N (no replication) and
// Clover (shared-everything).
//
// Expected shape (§5.3): at the switch all systems dip; Clover initially
// beats unreplicated DINOMO on the hot keys (any KN can serve them);
// DINOMO's M-node detects the hot keys and grows their replication factor
// step by step, after which DINOMO overtakes Clover (~1.6x in the paper)
// and far exceeds DINOMO-N, which stays bottlenecked on single owners.

#include <cstdio>

#include "bench_common.h"
#include "bench_json.h"

namespace {

using namespace dinomo;

constexpr double kSecond = 1e6;
double g_duration = 4.0 * kSecond;
constexpr double kSwitchAt = 0.5 * kSecond;
constexpr int kStreams = 48;
constexpr int kKns = 8;

workload::WorkloadSpec LowSkew() {
  auto spec = workload::WorkloadSpec::WriteHeavyUpdate(bench::kRecords, 0.5);
  spec.value_size = bench::kValueSize;
  return spec;
}

workload::WorkloadSpec HighSkew() {
  auto spec = workload::WorkloadSpec::WriteHeavyUpdate(bench::kRecords, 2.0);
  spec.value_size = bench::kValueSize;
  return spec;
}

void PrintTimeline(const sim::WindowStats& w, const char* name) {
  std::printf("\n--- %s ---\n", name);
  std::printf("%8s %12s %12s %12s\n", "t(s)", "Kops/s", "avg(us)",
              "p99(us)");
  for (size_t i = 0; i < w.num_windows(); ++i) {
    std::printf("%8.1f %12.1f %12.1f %12.1f\n",
                (i + 1) * w.window_us() / kSecond,
                w.ThroughputMops(i) * 1e3, w.window(i).latency.Average(),
                w.window(i).latency.P99());
  }
}

double TailMops(const sim::WindowStats& w, size_t windows) {
  if (w.num_windows() < windows) return 0.0;
  double total = 0;
  for (size_t i = w.num_windows() - windows; i < w.num_windows(); ++i) {
    total += w.ThroughputMops(i);
  }
  return total / windows;
}

double RunDinomo(SystemVariant variant, const char* name,
                 bool enable_mnode) {
  auto opt = bench::BaseDinomo(variant, kKns, LowSkew());
  opt.client_threads = kStreams;
  opt.stats_window_us = 100e3;
  opt.mnode_epoch_us = 100e3;
  opt.policy.avg_latency_slo_us = 40.0;
  opt.policy.tail_latency_slo_us = 400.0;
  // Only replication decisions: membership changes disabled via bounds.
  opt.policy.over_utilization_lower_bound = 2.0;   // never "all busy"
  opt.policy.under_utilization_upper_bound = 0.0;  // never remove
  opt.policy.hot_sigma = 3.0;
  opt.policy.cold_sigma = 1.0;
  opt.policy.max_replication = kKns;

  sim::DinomoSim sim(opt);
  sim.Preload();
  if (enable_mnode) sim.EnableMnode();
  sim.clients().ScheduleWorkloadChange(kSwitchAt, HighSkew());
  sim.Run(g_duration, 0);
  PrintTimeline(sim.clients().windows(), name);
  return TailMops(sim.clients().windows(), 5);
}

double RunClover() {
  auto opt = bench::BaseClover(kKns, LowSkew());
  opt.client_threads = kStreams;
  opt.stats_window_us = 100e3;
  sim::CloverSim sim(opt);
  sim.Preload();
  sim.clients().ScheduleWorkloadChange(kSwitchAt, HighSkew());
  sim.Run(g_duration, 0);
  PrintTimeline(sim.clients().windows(), "Clover");
  return TailMops(sim.clients().windows(), 5);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter("fig7_load_balancing", argc, argv);
  bench::PrintHeader(
      "Figure 7: load balancing under extreme skew (Zipf 0.5 -> Zipf 2 at "
      "t=0.5s, 50r/50u)");
  if (reporter.quick()) g_duration = 1.5 * kSecond;
  reporter.Config("records", bench::kRecords)
      .Config("value_size", bench::kValueSize)
      .Config("num_kns", kKns)
      .Config("client_threads", kStreams)
      .Config("duration_us", g_duration)
      // Closed-loop driver: every latency below is a *service* latency
      // (issue -> completion of ops the driver chose to send), subject to
      // coordinated omission under overload. Intended-send latency needs a
      // configured arrival rate; see bench/storm_autoscaling and
      // EXPERIMENTS.md "Latency bases".
      .Config("latency_basis", "service")
      .Config("seed", sim::DinomoSimOptions().seed);
  const double dinomo = RunDinomo(SystemVariant::kDinomo,
                                  "DINOMO (selective replication)", true);
  const double dinomo_n =
      RunDinomo(SystemVariant::kDinomoN, "DINOMO-N (no replication)", false);
  const double clover = RunClover();
  reporter.Add(obs::Json::Object()
                   .Set("system", "dinomo")
                   .Set("tail_mops", dinomo));
  reporter.Add(obs::Json::Object()
                   .Set("system", "dinomo_n")
                   .Set("tail_mops", dinomo_n));
  reporter.Add(obs::Json::Object()
                   .Set("system", "clover")
                   .Set("tail_mops", clover));

  std::printf("\nSteady-state throughput after the switch (last 0.5s):\n");
  std::printf("  DINOMO   = %.1f Kops/s\n", dinomo * 1e3);
  std::printf("  DINOMO-N = %.1f Kops/s\n", dinomo_n * 1e3);
  std::printf("  Clover   = %.1f Kops/s\n", clover * 1e3);
  if (clover > 0 && dinomo_n > 0) {
    std::printf(
        "  DINOMO/Clover = %.2fx (paper: ~1.6x), DINOMO/DINOMO-N = %.2fx "
        "(paper: up to 5.6x)\n",
        dinomo / clover, dinomo / dinomo_n);
  }
  return reporter.Finish() ? 0 : 1;
}
