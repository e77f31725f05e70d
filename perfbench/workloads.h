// The benchmark's workloads. Each runs in its own process; main.cc picks
// one by name.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 5.0;
  bool trace = false;
  /// Where the traced run writes its spans.
  std::string out_dir = ".";
};

/// Wall-clock workloads on the threaded Cluster: point-hot, point-cold,
/// scan-insert. Returns false for an unknown name.
bool RunWallWorkload(const RunArgs& args, Report* report);

/// The virtual-time DinomoSim storm: sim-storm.
void RunStormWorkload(const RunArgs& args, Report* report);

/// Feeds each output checker a deliberately wrong output and a right one.
/// Returns the number of checks that misjudged.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
