// Reproduces Figure 3: read throughput of different KN cache policies as
// the cache size grows from 1% to 16% of the dataset.
//
// Paper setup (§5.1): one KN with 16 threads, 30M keys x 8B/64B, a uniform
// working set of 5% of the dataset, cache measured as a fraction of the
// dataset size. Policies: shortcut-only (0%), static-25/50/75 (X% of the
// cache reserved for values), value-only (100%), and DAC.
//
// Scaled setup: 200k keys x 64 B values, working set 10k keys, one KN with
// 8 workers. Expected shape: shortcut-only wins at small caches, value-only
// wins at large caches, the static points cross over in between, and DAC
// tracks within ~16% of the best policy at every size.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"

namespace {

using namespace dinomo;

struct PolicyConfig {
  const char* name;
  kn::CachePolicyKind kind;
  double fraction;
};

constexpr uint64_t kFig3Records = 100000;
constexpr size_t kFig3ValueSize = 64;

double RunOne(const PolicyConfig& policy, double cache_pct,
              double duration_us, double* rts_per_op) {
  workload::WorkloadSpec spec =
      workload::WorkloadSpec::ReadOnly(kFig3Records, /*theta=*/0.0);
  spec.value_size = kFig3ValueSize;
  spec.working_set_count = kFig3Records / 20;  // 5% uniform working set

  sim::DinomoSimOptions opt;
  opt.variant = SystemVariant::kDinomo;
  opt.num_kns = 1;
  opt.dpm.pool_size = 512 * bench::kMiB;
  opt.dpm.index_log2_buckets = 14;
  opt.dpm.segment_size = 1 * bench::kMiB;
  opt.dpm_threads = 4;
  opt.kn.num_workers = 8;
  opt.kn.policy = policy.kind;
  opt.kn.static_value_fraction = policy.fraction;
  const size_t dataset =
      kFig3Records * (kFig3ValueSize + cache::kValueEntryOverhead);
  opt.kn.cache_bytes = static_cast<size_t>(dataset * cache_pct / 100.0);
  opt.spec = spec;
  opt.client_threads = 48;

  sim::DinomoSim sim(opt);
  sim.Preload();
  // Long enough for DAC to adapt; shortcut/value-only converge instantly.
  sim.Run(duration_us, /*warmup_us=*/duration_us / 2);
  if (rts_per_op != nullptr) {
    *rts_per_op = sim.CollectProfile().rts_per_op;
  }
  return sim.clients().ThroughputMops();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter("fig3_cache_policies", argc, argv);
  bench::PrintHeader(
      "Figure 3: cache-policy comparison (read-only, uniform 5% working "
      "set, single KN)\nThroughput in Mops/s vs cache size as % of dataset");

  const std::vector<PolicyConfig> policies = {
      {"shortcut-only", kn::CachePolicyKind::kShortcutOnly, 0.0},
      {"static-25", kn::CachePolicyKind::kStatic, 0.25},
      {"static-50", kn::CachePolicyKind::kStatic, 0.50},
      {"static-75", kn::CachePolicyKind::kStatic, 0.75},
      {"value-only", kn::CachePolicyKind::kValueOnly, 1.0},
      {"DAC", kn::CachePolicyKind::kDac, 0.0},
  };
  const std::vector<double> cache_pcts =
      reporter.quick() ? std::vector<double>{2, 8}
                       : std::vector<double>{1, 2, 4, 8, 16};
  const double duration_us = reporter.Scaled(1200e3, 150e3);
  reporter.Config("records", kFig3Records)
      .Config("value_size", kFig3ValueSize)
      .Config("num_kns", 1)
      .Config("workers_per_kn", 8)
      .Config("client_threads", 48)
      .Config("duration_us", duration_us)
      .Config("seed", sim::DinomoSimOptions().seed);

  std::printf("%-14s", "cache%");
  for (double pct : cache_pcts) std::printf("%10.0f%%", pct);
  std::printf("\n");

  std::vector<std::vector<double>> results(policies.size());
  for (size_t p = 0; p < policies.size(); ++p) {
    std::printf("%-14s", policies[p].name);
    std::fflush(stdout);
    for (double pct : cache_pcts) {
      double rts = 0;
      const double mops = RunOne(policies[p], pct, duration_us, &rts);
      results[p].push_back(mops);
      std::printf("%11.3f", mops);
      std::fflush(stdout);
      reporter.Add(obs::Json::Object()
                       .Set("policy", policies[p].name)
                       .Set("cache_pct", pct)
                       .Set("mops", mops)
                       .Set("rts_per_op", rts));
    }
    std::printf("\n");
  }

  // The paper's headline claim: DAC within ~16% of the best policy at
  // every cache size.
  std::printf("\nDAC vs best static policy per cache size:\n");
  for (size_t c = 0; c < cache_pcts.size(); ++c) {
    double best = 0;
    size_t best_p = 0;
    for (size_t p = 0; p + 1 < policies.size(); ++p) {  // exclude DAC
      if (results[p][c] > best) {
        best = results[p][c];
        best_p = p;
      }
    }
    const double dac = results.back()[c];
    std::printf("  %4.0f%%: best=%s (%.3f), DAC=%.3f  -> DAC/best = %.2f\n",
                cache_pcts[c], policies[best_p].name, best, dac,
                best > 0 ? dac / best : 0.0);
  }
  return reporter.Finish() ? 0 : 1;
}
