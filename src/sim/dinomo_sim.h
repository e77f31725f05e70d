#ifndef DINOMO_SIM_DINOMO_SIM_H_
#define DINOMO_SIM_DINOMO_SIM_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/routing.h"
#include "core/reconfig.h"
#include "dpm/dpm_node.h"
#include "dpm/dpm_pool.h"
#include "kn/kn_worker.h"
#include "load/traffic.h"
#include "mnode/policy.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/closed_loop.h"
#include "sim/engine.h"
#include "workload/ycsb.h"

namespace dinomo {
namespace sim {

/// Configuration of a virtual-time DINOMO cluster run.
struct DinomoSimOptions {
  SystemVariant variant = SystemVariant::kDinomo;
  int num_kns = 4;
  dpm::DpmOptions dpm;
  /// DPM pool size (DINOMO-N forces 1; see DpmPoolOptions).
  int dpm_nodes = 1;
  /// Copies of each log batch (2 = primary + mirror, replicate-before-ack).
  int replication_factor = 1;
  kn::KnOptions kn;  // per-node template (ids filled in)
  /// DPM processor threads: merge work and two-sided RPCs contend here.
  int dpm_threads = 4;

  // Closed-loop load (paper: 8 client nodes x 64 threads).
  int client_threads = 64;
  workload::WorkloadSpec spec;

  /// Requests each closed-loop client stream keeps in flight (the
  /// pipelined async client). 1 = the classic submit-and-wait client:
  /// the serving worker is modeled busy until the op's network time has
  /// elapsed. Depth > 1 overlaps the network wait: the worker core is
  /// occupied for the op's CPU portion only, and up to `pipeline_depth`
  /// ops per stream proceed concurrently. Depth 1 is byte-identical to
  /// the pre-pipelining model.
  int pipeline_depth = 1;

  /// Timeline resolution for throughput/latency series.
  double stats_window_us = 100e3;
  /// Delay for a client to refresh routing after a rejection, us.
  double routing_refresh_us = 300.0;
  /// Client request timeout after which a dead KN's request is retried
  /// elsewhere (paper §5.3: "user requests are set to time out after
  /// 500ms").
  double request_timeout_us = 500e3;

  /// M-node (only used when RunPolicyEpochs is enabled).
  mnode::PolicyParams policy;
  double mnode_epoch_us = 1e6;

  uint64_t seed = 42;

  /// Fault schedule injected into the fabric and the DPM RPC path (empty
  /// = fault-free). The injector's clock is the engine's virtual time, so
  /// the same schedule + seed replays the same fault sequence run after
  /// run. kFailStop events name a KN *index* into the active list and are
  /// enacted through the same path as ScheduleKill.
  net::FaultSchedule faults;

  /// Registry the sim — and every component it creates (DPM node, fabric,
  /// PM pool, merge service, KN workers, caches) — publishes metrics
  /// into; nullptr = the process-wide registry.
  obs::MetricsRegistry* metrics = nullptr;

  /// Request tracer (nullptr = the global tracer). When enabled, the sim
  /// installs its virtual clock into the tracer for the lifetime of the
  /// run, so span timestamps are virtual-time and seed-deterministic.
  obs::Tracer* tracer = nullptr;
};

/// The paper's DINOMO / DINOMO-S / DINOMO-N systems under the
/// discrete-event engine: real KnWorker / DpmNode / cache / index code,
/// virtual time. Used by the Figure-5/6/7/8 and Table-6 harnesses.
/// Reconfigurations run reconfig::Protocol with this class as its
/// virtual-time runtime; closed-loop load comes from the shared driver,
/// to which this class supplies its Serve step.
class DinomoSim : private reconfig::Runtime, private ClosedLoop::Server {
 public:
  explicit DinomoSim(const DinomoSimOptions& options);
  ~DinomoSim();

  DinomoSim(const DinomoSim&) = delete;
  DinomoSim& operator=(const DinomoSim&) = delete;

  Engine* engine() { return &engine_; }
  /// DPM node 0 — the whole pool in single-node configurations.
  dpm::DpmNode* dpm() { return pool_->node(0); }
  dpm::DpmPool* pool() { return pool_.get(); }
  cluster::RoutingService* routing() { return &routing_; }
  /// Non-null iff options.faults was non-empty.
  net::FaultInjector* fault_injector() { return injector_.get(); }
  /// The closed-loop clients: throughput, latency, timelines, abandoned
  /// ops, and load or workload changes.
  ClosedLoop& clients() { return clients_; }
  const ClosedLoop& clients() const { return clients_; }

  /// Loads spec.record_count records (no virtual time elapses) and
  /// settles all merges. Caches end up warm, as after the paper's load +
  /// warm-up phase.
  void Preload();

  /// Runs the closed loop for `duration_us` of virtual time. Statistics
  /// ignore the first `warmup_us`.
  void Run(double duration_us, double warmup_us = 0.0);

  /// Flushes every live worker's buffered log batches to the DPM pool.
  /// Acked writes may sit in KN-side batches (served from the buffer on
  /// reads) until a flush; benchmarks call this before auditing
  /// durability directly against the DPM indexes.
  void DrainLogs();

  // ----- Results -----

  /// Restarts the profile window: fabric round-trip counters, worker op
  /// counters, and cache hit/miss stats all reset to zero (warm state —
  /// caches, indexes, logs — is untouched). Benchmarks call this between
  /// a warmup Run and the measured Run so CollectProfile only sees
  /// measured-phase traffic; Preload does the same reset internally.
  void ResetProfileWindow();

  /// Table-6 style profile, aggregated across all KNs since Preload (or
  /// the most recent ResetProfileWindow).
  struct Profile {
    double cache_hit_ratio = 0.0;
    double value_hit_share = 0.0;
    double rts_per_op = 0.0;
    uint64_t ops = 0;
    /// Range scans served (kScan requests; not part of `ops`, which
    /// counts point lookups by cache outcome).
    uint64_t scans = 0;
  };
  Profile CollectProfile() const;

  double LinkUtilization(double elapsed_us) const {
    return link_.Utilization(elapsed_us);
  }
  double DpmUtilization(double elapsed_us) const {
    return dpm_pool_.Utilization(elapsed_us);
  }

  // ----- Elasticity experiment hooks (Figures 6-8) -----

  /// Fail-stop kills the idx-th active KN at `at_us`.
  void ScheduleKill(double at_us, int kn_index);
  /// Fail-stop kills DPM pool node `node` at `at_us`: mirror promotion,
  /// KN failover recovery, and (after the detection delay) the protocol's
  /// DPM recovery round, as Cluster::KillDpm runs it.
  void ScheduleDpmKill(double at_us, int node);
  /// Enables the M-node: a policy epoch every options.mnode_epoch_us.
  void EnableMnode();

  // ----- Open-loop engine (storm / autoscaling experiments) -----

  struct OpenLoopOptions {
    /// Arrival-stamped op stream; must outlive the run.
    load::TrafficSource* source = nullptr;
    /// Payload for Put-type ops.
    size_t value_size = 1024;
    /// Windowed-p99 SLO autoscaler (mutually exclusive with EnableMnode:
    /// both would consume the per-epoch occupancy counters).
    bool autoscale = false;
    mnode::SloAutoscalerParams autoscaler;
    /// Autoscaler evaluation interval, us.
    double autoscaler_interval_us = 50e3;
  };

  struct OpenLoopStats {
    explicit OpenLoopStats(double window_us) : windows(window_us) {}
    /// Latency from the op's *intended* arrival time — includes every
    /// retry, park and queueing delay, so overload shows up instead of
    /// being coordinated-omitted. The SLO numbers. Post-warmup.
    Histogram intended_latency;
    /// Latency from the op's final dispatch to a worker (the closed-loop
    /// style number, for comparison). Post-warmup.
    Histogram service_latency;
    uint64_t offered = 0;     // arrivals injected
    uint64_t completed = 0;   // ops finished (all, including warmup)
    uint64_t completed_after_warmup = 0;
    uint64_t abandoned = 0;   // retry budget exhausted
    uint64_t in_flight_at_end = 0;
    /// Completions with intended-basis latency, per stats window.
    WindowStats windows;
    /// Arrivals per stats window (indexed like `windows`), i.e. the
    /// offered-load curve actually generated.
    std::vector<uint64_t> offered_per_window;
    /// (virtual us, active KNs) after each autoscaler evaluation.
    std::vector<std::pair<double, int>> kn_trajectory;
    int scale_ups = 0;
    int scale_downs = 0;
  };

  /// Runs `duration_us` of open-loop traffic: ops from opts.source enter
  /// the system at their intended arrival times, independent of
  /// completions (arrivals outrun completions under overload and queueing
  /// shows up in the intended-basis latency). Histograms skip the first
  /// `warmup_us`. The closed-loop streams stay idle.
  void RunOpenLoop(const OpenLoopOptions& opts, double duration_us,
                   double warmup_us = 0.0);
  /// Stats of the last RunOpenLoop (nullptr before the first call).
  const OpenLoopStats* open_loop_stats() const { return open_stats_.get(); }

  int NumActiveKns() const { return static_cast<int>(ActiveKns().size()); }
  /// KN ids currently serving.
  std::vector<uint64_t> ActiveKns() const override;
  /// Runs `fn` on each worker of a live KN, between events.
  void RunOnWorkers(uint64_t kn_id,
                    const std::function<void(kn::KnWorker*)>& fn) override;
  /// Runs reconfigurations at the current virtual time (between runs).
  reconfig::Protocol* reconfig() { return &reconfig_; }

 private:
  struct WorkerSim {
    std::unique_ptr<kn::KnWorker> worker;
    double free_until = 0.0;
    // Requests parked on the unmerged-segment threshold.
    std::deque<std::function<void()>> parked;
  };

  struct KnSim {
    uint64_t kn_id = 0;
    std::vector<std::unique_ptr<WorkerSim>> workers;
    bool failed = false;
    /// Requests are rejected (Unavailable) until this time
    /// (reconfiguration windows).
    double unavailable_until = 0.0;
    double busy_us_epoch = 0.0;  // occupancy accounting
  };

  KnSim* FindKn(uint64_t kn_id);

  /// One in-flight open-loop op. Held by shared_ptr in the engine's event
  /// closures so retries and completions share its mutable state.
  struct OpenOp {
    workload::WorkloadOp op;
    double intended_us = 0.0;
    /// When the attempt that finally got served was dispatched.
    double dispatch_us = 0.0;
    int attempt = 0;
    obs::TraceContext* trace = nullptr;  // owned by clients_
  };

  /// Service step of both loops (ClosedLoop::Server): routes the op, runs
  /// the real worker code and applies the timing model. Spans survive
  /// reschedules: Busy parks and routing retries become wait spans.
  double Serve(const workload::WorkloadOp& op, const std::string& value,
               obs::TraceContext* trace,
               const std::function<void()>& retry) override;
  void PumpMerges();
  void OnMergeFinished(const dpm::MergeAck& ack);

  // Open-loop internals.
  void OpenScheduleNextArrival();
  void OpenIssue(const load::TimedOp& timed);
  void OpenExecute(std::shared_ptr<OpenOp> op);
  void OpenComplete(const std::shared_ptr<OpenOp>& op, double finish);
  void AutoscalerEval();

  // M-node and fault enactment in virtual time.
  void MnodeEpoch();
  void DoKill(int kn_index);
  void DoDpmKill(int node);

  // reconfig::Runtime, in virtual time: a protocol call runs inside one
  // engine event. Pause opens a round at now + the fixed round overhead,
  // each Charge may push its end out, and Resume holds the participants
  // unavailable until it.
  uint64_t StartKn() override;
  void RetireKn(uint64_t kn_id) override;
  void Pause(const std::vector<uint64_t>& kn_ids) override;
  double Resume(const std::vector<uint64_t>& kn_ids) override;
  void MergeRunnable() override;
  void Charge(const reconfig::Cost& cost) override;
  double NowUs() const override { return engine_.now_us(); }
  void WaitUs(double us) override;

  DinomoSimOptions options_;
  obs::Tracer* tracer_;        // options.tracer or the global one
  uint32_t trace_pid_ = 0;     // chrome pid lane for this sim instance
  bool trace_clock_installed_ = false;
  obs::MetricGroup metrics_;  // sim.dinomo.*
  obs::HistogramMetric& op_latency_us_;
  obs::Gauge& throughput_mops_;
  obs::Gauge& link_utilization_;
  obs::Gauge& dpm_utilization_;
  Engine engine_;
  // Declared before pool_ so the injector outlives the fabrics and DPM
  // nodes that hold raw pointers to it.
  std::unique_ptr<net::FaultInjector> injector_;
  std::unique_ptr<dpm::DpmPool> pool_;
  cluster::RoutingService routing_;
  mnode::PolicyEngine policy_;
  reconfig::Protocol reconfig_;

  LinkModel link_;
  PoolModel dpm_pool_;
  double round_end_ = 0.0;  // end of the current reconfiguration round

  std::vector<std::unique_ptr<KnSim>> kns_;
  uint64_t next_kn_id_ = 1;
  uint64_t salt_ = 0;
  /// Worker occupancy model of the run in progress. The open loop and a
  /// pipelined closed loop serve asynchronously: the worker core is busy
  /// for the op's CPU portion only, and round trips ride out while the
  /// next queued op executes. The depth-1 closed loop holds the worker
  /// until the op's network time has elapsed.
  bool async_worker_ = false;

  Histogram epoch_latency_;  // closed loop, since last policy epoch
  ClosedLoop clients_;

  bool mnode_enabled_ = false;
  double epoch_started_ = 0.0;

  // Open-loop run state (live only inside RunOpenLoop).
  load::TrafficSource* open_source_ = nullptr;
  std::unique_ptr<OpenLoopStats> open_stats_;
  std::string open_value_;
  double open_run_until_ = 0.0;
  double open_warmup_until_ = 0.0;
  bool open_exhausted_ = true;
  uint64_t open_in_flight_ = 0;
  std::unique_ptr<mnode::SloAutoscaler> autoscaler_;
  double autoscaler_interval_us_ = 0.0;
  /// Intended-basis latency + arrivals since the last autoscaler eval.
  Histogram open_interval_latency_;
  uint64_t open_interval_offered_ = 0;
};

}  // namespace sim
}  // namespace dinomo

#endif  // DINOMO_SIM_DINOMO_SIM_H_
