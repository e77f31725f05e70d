#ifndef DINOMO_SIM_CLOVER_SIM_H_
#define DINOMO_SIM_CLOVER_SIM_H_

#include <memory>
#include <vector>

#include "clover/clover.h"
#include "obs/metrics.h"
#include "sim/closed_loop.h"
#include "sim/engine.h"
#include "workload/ycsb.h"

namespace dinomo {
namespace sim {

/// Configuration of a virtual-time Clover run.
struct CloverSimOptions {
  int num_kns = 4;
  int workers_per_kn = 8;
  clover::CloverOptions clover;
  size_t cache_bytes_per_kn = 16 * 1024 * 1024;

  int client_threads = 64;
  workload::WorkloadSpec spec;

  double stats_window_us = 100e3;
  /// MS GC pass interval (virtual time). Clover dedicates a GC thread
  /// that cycles continuously; a pass over the hot chains is fast.
  double gc_interval_us = 20e3;
  double request_timeout_us = 500e3;
  /// Membership-update delay after a failure (paper: Clover updates RNs
  /// in < 68 ms).
  double membership_update_us = 68e3;
  uint64_t seed = 42;

  /// Registry the sim and the Clover store/KNs publish metrics into;
  /// nullptr = the process-wide registry.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The Clover baseline under the discrete-event engine. Shared-everything:
/// every request can go to any KN (clients spread them round-robin), so
/// load balancing is trivial — and every KN caches the same hot keys
/// redundantly, which is exactly why its hit ratio falls as KNs are added
/// (Table 6). The metadata server is a 4-worker pool; version-chain walks
/// and MS RPCs consume the shared link and MS CPU. Load comes from the
/// shared closed-loop driver; this class supplies its Serve step.
class CloverSim : private ClosedLoop::Server {
 public:
  explicit CloverSim(const CloverSimOptions& options);
  ~CloverSim();

  CloverSim(const CloverSim&) = delete;
  CloverSim& operator=(const CloverSim&) = delete;

  Engine* engine() { return &engine_; }
  clover::CloverStore* store() { return store_.get(); }
  /// The closed-loop clients: throughput, latency, timelines, and load or
  /// workload changes.
  ClosedLoop& clients() { return clients_; }
  const ClosedLoop& clients() const { return clients_; }

  void Preload();
  /// Runs the closed loop for `duration_us` of virtual time, with the
  /// metadata server's GC pass cycling alongside.
  void Run(double duration_us, double warmup_us = 0.0);

  struct Profile {
    double cache_hit_ratio = 0.0;
    double rts_per_op = 0.0;
    uint64_t ops = 0;
  };
  Profile CollectProfile() const;

  void ScheduleKill(double at_us, int kn_index);

  int NumActiveKns() const;

 private:
  struct WorkerSim {
    std::unique_ptr<clover::CloverKn> kn;
    double free_until = 0.0;
  };
  struct KnSim {
    std::vector<std::unique_ptr<WorkerSim>> workers;
    bool failed = false;
    bool routable = true;  // false once clients learned of the failure
  };
  /// Shared-everything routing: round-robin over the KNs clients believe
  /// alive, then the metadata-server timing model.
  double Serve(const workload::WorkloadOp& op, const std::string& value,
               obs::TraceContext* trace,
               const std::function<void()>& retry) override;
  void GcTick();

  CloverSimOptions options_;
  obs::MetricGroup metrics_;  // sim.clover.*
  obs::Gauge& throughput_mops_;
  obs::Gauge& link_utilization_;
  obs::Gauge& ms_utilization_;
  Engine engine_;
  std::unique_ptr<clover::CloverStore> store_;
  LinkModel link_;
  PoolModel ms_pool_;

  std::vector<std::unique_ptr<KnSim>> kns_;
  uint64_t salt_ = 0;
  uint64_t ops_executed_ = 0;
  bool gc_running_ = false;
  ClosedLoop clients_;
};

}  // namespace sim
}  // namespace dinomo

#endif  // DINOMO_SIM_CLOVER_SIM_H_
