// Reproduces Figure 5: end-to-end throughput scalability of DINOMO,
// DINOMO-S, DINOMO-N and Clover from 1 to 16 KNs across the paper's five
// request mixes at moderate skew (Zipf 0.99).
//
// Expected shape (§5.2): DINOMO scales to 16 KNs; Clover stops scaling by
// ~4 KNs (metadata-server CPU / network); DINOMO-S stops scaling in
// read-dominated mixes once the shared link saturates (~8 KNs); DINOMO and
// DINOMO-N are nearly on par; at 16 KNs DINOMO >= ~3.8x Clover.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"

namespace {

using namespace dinomo;

double RunDinomoVariant(SystemVariant variant, int kns,
                        const workload::WorkloadSpec& spec,
                        double duration_us) {
  auto opt = bench::BaseDinomo(variant, kns, spec);
  sim::DinomoSim sim(opt);
  sim.Preload();
  sim.Run(duration_us, duration_us / 2);
  return sim.clients().ThroughputMops();
}

double RunClover(int kns, const workload::WorkloadSpec& spec,
                 double duration_us) {
  auto opt = bench::BaseClover(kns, spec);
  sim::CloverSim sim(opt);
  sim.Preload();
  sim.Run(duration_us, duration_us / 2);
  return sim.clients().ThroughputMops();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter("fig5_scalability", argc, argv);
  bench::PrintHeader(
      "Figure 5: performance scalability, Zipf 0.99 (Mops/s)");

  const std::vector<int> kn_counts =
      reporter.quick() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8, 16};
  const double duration_us = reporter.Scaled(80e3, 40e3);
  auto mixes = bench::PaperMixes(0.99);
  if (reporter.quick()) mixes.resize(1);
  reporter.Config("records", bench::kRecords)
      .Config("value_size", bench::kValueSize)
      .Config("zipf_theta", 0.99)
      .Config("duration_us", duration_us)
      .Config("seed", sim::DinomoSimOptions().seed);
  // The ratio is reported at the largest KN count run (16 in the full
  // sweep, as in the paper).
  const int top_kns = kn_counts.back();
  double dinomo_top = 0;
  double clover_top = 0;

  for (const auto& spec : mixes) {
    std::printf("\nworkload %s\n", spec.MixName());
    std::printf("%-6s %12s %12s %12s %12s\n", "KNs", "DINOMO", "DINOMO-S",
                "DINOMO-N", "Clover");
    for (int kns : kn_counts) {
      const double d =
          RunDinomoVariant(SystemVariant::kDinomo, kns, spec, duration_us);
      const double ds =
          RunDinomoVariant(SystemVariant::kDinomoS, kns, spec, duration_us);
      const double dn =
          RunDinomoVariant(SystemVariant::kDinomoN, kns, spec, duration_us);
      const double c = RunClover(kns, spec, duration_us);
      std::printf("%-6d %12.3f %12.3f %12.3f %12.3f\n", kns, d, ds, dn, c);
      std::fflush(stdout);
      reporter.Add(obs::Json::Object()
                       .Set("mix", spec.MixName())
                       .Set("kns", kns)
                       .Set("dinomo_mops", d)
                       .Set("dinomo_s_mops", ds)
                       .Set("dinomo_n_mops", dn)
                       .Set("clover_mops", c));
      if (kns == top_kns) {
        dinomo_top += d;
        clover_top += c;
      }
    }
  }

  std::printf(
      "\nAcross all mixes at %d KNs: DINOMO/Clover = %.2fx "
      "(paper: >= 3.8x)\n",
      top_kns, clover_top > 0 ? dinomo_top / clover_top : 0.0);
  return reporter.Finish() ? 0 : 1;
}
