// Reproduces Figure 4: the impact of DPM compute capacity on the
// insert-only log-write throughput, for a DRAM-backed and an Optane-PM-
// backed DPM, against the "log-write max" (the rate KNs could sustain if
// merging never throttled them via the unmerged-segment threshold).
//
// Paper setup (§5.1): insert-only, 16 KNs, 8 B keys / 1 KB values.
// Expected shape: log-write throughput climbs with DPM threads and
// approaches the max at ~4 threads on DRAM; the PM profile needs more
// threads (with 4 threads it stays ~16% below the max).

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"

namespace {

using namespace dinomo;

double RunInsertOnly(int dpm_threads, dpm::MergeProfile profile,
                     double duration_us) {
  workload::WorkloadSpec spec;
  spec.record_count = 1000;  // small preload; inserts dominate
  spec.read_proportion = 0.0;
  spec.update_proportion = 0.0;
  spec.insert_proportion = 1.0;
  spec.zipf_theta = 0.99;
  spec.value_size = bench::kValueSize;

  auto opt = bench::BaseDinomo(SystemVariant::kDinomo, /*kns=*/16, spec);
  opt.dpm_threads = dpm_threads;
  opt.dpm.merge_profile = profile;
  opt.dpm.pool_size = 3072 * bench::kMiB;

  sim::DinomoSim sim(opt);
  sim.Preload();
  sim.Run(duration_us, /*warmup_us=*/duration_us * 0.3);
  return sim.clients().ThroughputMops();
}

// Merge throughput measured the way the paper does: pre-generated log
// segments merged locally at the DPM, per thread count.
double MergeThroughputMops(int threads, dpm::MergeProfile profile) {
  const double per_entry_us =
      profile.per_entry_us +
      profile.per_byte_us *
          static_cast<double>(dpm::EncodedEntrySize(8, bench::kValueSize));
  return threads / per_entry_us;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter("fig4_dpm_compute", argc, argv);
  bench::PrintHeader(
      "Figure 4: performance impact of DPM compute capacity\n"
      "(insert-only, 16 KNs, 1 KB values; Mops/s)");

  const std::vector<int> thread_counts =
      reporter.quick() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  const double duration_us = reporter.Scaled(100e3, 30e3);
  reporter.Config("num_kns", 16)
      .Config("value_size", bench::kValueSize)
      .Config("duration_us", duration_us)
      .Config("seed", sim::DinomoSimOptions().seed);

  // Log-write max: merging effectively unconstrained.
  const double log_write_max =
      RunInsertOnly(/*dpm_threads=*/64, dpm::MergeProfile::Dram(),
                    duration_us);
  reporter.Config("log_write_max_mops", log_write_max);
  std::printf("log-write max (unthrottled): %.3f Mops/s\n\n", log_write_max);

  std::printf("%-12s %18s %18s %18s %18s\n", "DPM threads",
              "log-write (DRAM)", "merge (DRAM)", "log-write (PM)",
              "merge (PM)");
  for (int t : thread_counts) {
    const double lw_dram =
        RunInsertOnly(t, dpm::MergeProfile::Dram(), duration_us);
    const double mg_dram = MergeThroughputMops(t, dpm::MergeProfile::Dram());
    const double lw_pm =
        RunInsertOnly(t, dpm::MergeProfile::OptanePm(), duration_us);
    const double mg_pm =
        MergeThroughputMops(t, dpm::MergeProfile::OptanePm());
    std::printf("%-12d %18.3f %18.3f %18.3f %18.3f\n", t, lw_dram, mg_dram,
                lw_pm, mg_pm);
    reporter.Add(obs::Json::Object()
                     .Set("dpm_threads", t)
                     .Set("log_write_dram_mops", lw_dram)
                     .Set("merge_dram_mops", mg_dram)
                     .Set("log_write_pm_mops", lw_pm)
                     .Set("merge_pm_mops", mg_pm));
  }

  const double dram4 = MergeThroughputMops(4, dpm::MergeProfile::Dram());
  const double pm4 = MergeThroughputMops(4, dpm::MergeProfile::OptanePm());
  std::printf(
      "\nAt 4 DPM threads: DRAM merge = %.2f of log-write max, "
      "PM merge = %.2f of log-write max\n",
      dram4 / log_write_max, pm4 / log_write_max);
  std::printf(
      "(paper: DRAM ~ at max with 4 threads; PM ~16%% below max)\n");
  return reporter.Finish() ? 0 : 1;
}
