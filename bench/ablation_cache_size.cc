// Ablation: DAC's sensitivity to the per-KN cache size on the end-to-end
// read-mostly workload. The design claim (§3.3) is that DAC needs no
// tuning as the aggregate cache grows/shrinks with reconfiguration: hit
// ratio and the value/shortcut split adapt automatically.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"

namespace {

using namespace dinomo;

void RunOne(double cache_fraction, double duration_us,
            bench::BenchReporter* reporter) {
  auto spec = workload::WorkloadSpec::ReadMostlyUpdate(bench::kRecords, 0.99);
  spec.value_size = bench::kValueSize;
  auto opt = bench::BaseDinomo(SystemVariant::kDinomo, /*kns=*/4, spec);
  opt.kn.cache_bytes = static_cast<size_t>(
      bench::DatasetBytes() * cache_fraction / 4);  // aggregate fraction
  sim::DinomoSim sim(opt);
  sim.Preload();
  sim.Run(duration_us, duration_us * 0.4);
  auto p = sim.CollectProfile();
  std::printf("%-16.3f %12.3f %10.1f%% %12.1f%% %10.2f\n", cache_fraction,
              sim.clients().ThroughputMops(), p.cache_hit_ratio * 100,
              p.value_hit_share * 100, p.rts_per_op);
  std::fflush(stdout);
  reporter->Add(obs::Json::Object()
                    .Set("cache_fraction", cache_fraction)
                    .Set("mops", sim.clients().ThroughputMops())
                    .Set("hit_ratio", p.cache_hit_ratio)
                    .Set("value_hit_share", p.value_hit_share)
                    .Set("rts_per_op", p.rts_per_op));
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter("ablation_cache_size", argc, argv);
  bench::PrintHeader(
      "Ablation: DAC vs aggregate cache size (4 KNs, 95r/5u Zipf 0.99)\n"
      "Expected: hit ratio stays high; the value-hit share grows with the "
      "cache;\nRTs/op falls towards zero as values dominate");
  const double duration_us = reporter.Scaled(100e3, 40e3);
  std::vector<double> fractions = reporter.quick()
                                      ? std::vector<double>{0.05, 0.5}
                                      : std::vector<double>{0.02, 0.05, 0.125,
                                                            0.25, 0.5, 1.0};
  reporter.Config("records", bench::kRecords)
      .Config("value_size", bench::kValueSize)
      .Config("num_kns", 4)
      .Config("duration_us", duration_us)
      .Config("seed", sim::DinomoSimOptions().seed);
  std::printf("%-16s %12s %11s %13s %10s\n", "cache/dataset", "Mops/s",
              "hit ratio", "value share", "RTs/op");
  for (double fraction : fractions) {
    RunOne(fraction, duration_us, &reporter);
  }
  return reporter.Finish() ? 0 : 1;
}
