// Elasticity demo on the virtual-time engine: a bursty workload triggers
// the M-node's policy engine to scale KVS nodes out and back in, exactly
// the scenario of the paper's Figure 6 — here as a runnable example with
// a compact timeline.
//
//   $ ./build/examples/elastic_autoscale

#include <cstdio>

#include "sim/dinomo_sim.h"
#include "workload/ycsb.h"

int main() {
  using namespace dinomo;

  workload::WorkloadSpec spec =
      workload::WorkloadSpec::WriteHeavyUpdate(50000, 0.5);
  spec.value_size = 512;

  sim::DinomoSimOptions opt;
  opt.variant = SystemVariant::kDinomo;
  opt.num_kns = 2;
  opt.dpm.pool_size = 1024 * 1024 * 1024;
  opt.dpm.segment_size = 1024 * 1024;
  opt.kn.num_workers = 2;
  opt.kn.cache_bytes = 8 * 1024 * 1024;
  opt.client_threads = 4;
  opt.spec = spec;
  opt.stats_window_us = 250e3;
  opt.mnode_epoch_us = 100e3;
  opt.policy.avg_latency_slo_us = 30.0;
  opt.policy.tail_latency_slo_us = 300.0;
  opt.policy.under_utilization_upper_bound = 0.20;
  opt.policy.grace_period_s = 1.0;
  opt.policy.max_kns = 6;

  sim::DinomoSim sim(opt);
  std::printf("preloading %llu records...\n",
              static_cast<unsigned long long>(spec.record_count));
  sim.Preload();
  sim.EnableMnode();

  // Burst at t=1s (load x8), calm down at t=4s.
  sim.clients().ScheduleLoadChange(1e6, 32);
  sim.clients().ScheduleLoadChange(4e6, 4);

  std::printf("running 6s of virtual time with the M-node in control...\n");
  sim.Run(6e6, 0);

  const auto& w = sim.clients().windows();
  std::printf("\n%8s %12s %12s %12s\n", "t(s)", "Kops/s", "avg(us)",
              "p99(us)");
  for (size_t i = 0; i < w.num_windows(); ++i) {
    std::printf("%8.2f %12.1f %12.1f %12.1f\n",
                (i + 1) * w.window_us() / 1e6, w.ThroughputMops(i) * 1e3,
                w.window(i).latency.Average(), w.window(i).latency.P99());
  }
  std::printf(
      "\nThe cluster ended with %d KNs (started with 2): the burst drove "
      "SLO\nviolations, the M-node added capacity, and the calm let it "
      "shed an\nunder-utilized node — all without moving any data "
      "(ownership-only\nreconfiguration, paper Section 3.5).\n",
      sim.NumActiveKns());
  return 0;
}
