// Ablation: how much of DINOMO's write performance comes from batching
// log entries into a single one-sided RDMA write (§3.6)?  Sweeps the
// group-commit threshold from 1 (no batching) upward on a write-heavy
// workload and reports throughput and write-side round trips per op.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"

namespace {

using namespace dinomo;

struct Point {
  double mops;
  double rts_per_op;
};

Point RunOne(size_t batch_ops, double duration_us) {
  auto spec = workload::WorkloadSpec::WriteHeavyUpdate(bench::kRecords, 0.99);
  spec.value_size = bench::kValueSize;
  auto opt = bench::BaseDinomo(SystemVariant::kDinomo, /*kns=*/4, spec);
  opt.kn.batch_max_ops = batch_ops;
  opt.kn.batch_max_bytes = batch_ops * (bench::kValueSize + 128);
  sim::DinomoSim sim(opt);
  sim.Preload();
  sim.Run(duration_us, duration_us / 2);
  return Point{sim.clients().ThroughputMops(),
               sim.CollectProfile().rts_per_op};
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter("ablation_batching", argc, argv);
  bench::PrintHeader(
      "Ablation: write batching (one-sided batched log writes, Sec 3.6)\n"
      "4 KNs, 50r/50u Zipf 0.99");
  const double duration_us = reporter.Scaled(80e3, 40e3);
  std::vector<size_t> batches = reporter.quick()
                                    ? std::vector<size_t>{1, 8}
                                    : std::vector<size_t>{1, 2, 4, 8, 16, 32};
  reporter.Config("records", bench::kRecords)
      .Config("value_size", bench::kValueSize)
      .Config("num_kns", 4)
      .Config("duration_us", duration_us)
      .Config("seed", sim::DinomoSimOptions().seed);
  std::printf("%-12s %12s %14s\n", "batch ops", "Mops/s", "RTs/op");
  double base = 0;
  Point last{};
  for (size_t b : batches) {
    const Point p = RunOne(b, duration_us);
    if (b == 1) base = p.mops;
    if (b == 8) last = p;
    std::printf("%-12zu %12.3f %14.2f\n", b, p.mops, p.rts_per_op);
    std::fflush(stdout);
    reporter.Add(obs::Json::Object()
                     .Set("batch_ops", b)
                     .Set("mops", p.mops)
                     .Set("rts_per_op", p.rts_per_op));
  }
  const Point best = last.mops > 0 ? last : RunOne(8, duration_us);
  std::printf("\nbatch=8 vs batch=1 speedup: %.2fx\n",
              base > 0 ? best.mops / base : 0.0);
  return reporter.Finish() ? 0 : 1;
}
