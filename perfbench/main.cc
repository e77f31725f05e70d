// Benchmark binary: runs one named workload in this process and prints
// the result as one JSON line (the last line of standard output).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out_dir DIR]
//   perfbench --selftest
//
// Every thread of a workload run is pinned to one CPU.
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "layers.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "{point-hot|point-cold|scan-insert|sim-storm} --seed N "
               "--seconds S --trace 0|1 [--out_dir DIR] | --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out_dir") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (selftest) return perfbench::RunSelfTest() == 0 ? 0 : 1;
  if (!(args.seconds > 0)) return Usage();

  // Every thread of the run shares one CPU. Spread over the VM's vCPUs,
  // each hand-off between the load thread, the KN workers and the merge
  // threads wakes a vCPU the host may not run for milliseconds (README.md,
  // "Host noise").
  const int cpu = perfbench::PinToOneCpu();
  if (cpu < 0) {
    std::printf("NOTE: could not pin the run to one CPU\n");
  } else {
    std::printf("pinned to CPU %d\n", cpu);
  }

  perfbench::Report report;
  if (args.workload == "sim-storm") {
    perfbench::RunStormWorkload(args, &report);
  } else if (!perfbench::RunWallWorkload(args, &report)) {
    return Usage();
  }
  if (!args.trace) {
    for (const perfbench::MetricDef& d : perfbench::EndToEndMetrics()) {
      if (!(report.Get(d.name) > 0)) {
        report.Fail(std::string("end-to-end metric ") + d.name +
                    " was not measured or read 0");
      }
    }
  }
  report.Keep(args.trace ? perfbench::PerLayerMetrics()
                         : perfbench::EndToEndMetrics());
  report.Print();
  return report.correct() ? 0 : 1;
}
