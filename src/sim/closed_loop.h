#ifndef DINOMO_SIM_CLOSED_LOOP_H_
#define DINOMO_SIM_CLOSED_LOOP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "workload/ycsb.h"

namespace dinomo {
namespace sim {

/// Tries one op gets before its driver abandons it (the first try plus 100
/// retries): a prolonged outage must not pin a client forever. Shared by
/// the closed loop and DinomoSim's open loop.
inline constexpr int kMaxAttempts = 101;

/// The closed-loop clients of a virtual-time sim (the paper's client
/// nodes: each stream issues its next op when one completes). Both
/// CloverSim and DinomoSim drive their load through this class; each
/// supplies only the step that serves one op.
class ClosedLoop {
 public:
  /// The owner's service step. Serve routes `op` (Put-type ops write
  /// `value`), runs the real store code, applies the timing model and
  /// returns the virtual time the op finishes. A disposition that cannot
  /// be served now (dead or reconfiguring KN, Busy park, wrong owner)
  /// schedules `retry` itself and returns a negative value; `retry`
  /// re-enters the driver, which counts the attempt.
  class Server {
   public:
    virtual ~Server() = default;
    virtual double Serve(const workload::WorkloadOp& op,
                         const std::string& value, obs::TraceContext* trace,
                         const std::function<void()>& retry) = 0;
  };

  struct Options {
    int client_threads = 64;
    workload::WorkloadSpec spec;
    uint64_t seed = 42;
    /// Ops each stream keeps in flight (1 = submit and wait).
    int pipeline_depth = 1;
    double stats_window_us = 100e3;
    /// Records every post-warmup latency (required).
    obs::HistogramMetric* op_latency_us = nullptr;
    /// Records every latency, warmup included (optional; the M-node's
    /// per-epoch view).
    Histogram* epoch_latency = nullptr;
    /// Samples op traces (nullptr = untraced).
    obs::Tracer* tracer = nullptr;
    uint32_t trace_pid = 0;
  };

  ClosedLoop(Engine* engine, Server* server, const Options& options);

  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Primes every stream and runs the engine for `duration_us` of virtual
  /// time. Statistics ignore the first `warmup_us`.
  void Run(double duration_us, double warmup_us = 0.0);

  /// Changes the number of active streams at `at_us`. Streams a previous
  /// drop parked wake up before new ones are created.
  void ScheduleLoadChange(double at_us, int client_threads);
  /// Switches every stream's workload spec at `at_us`.
  void ScheduleWorkloadChange(double at_us, const workload::WorkloadSpec& s);

  /// Post-warmup average throughput of the last Run, in Mops/s.
  double ThroughputMops() const;
  double AvgLatencyUs() const { return run_latency_.Average(); }
  double P99LatencyUs() const { return run_latency_.P99(); }
  const WindowStats& windows() const { return windows_; }
  /// Ops abandoned after kMaxAttempts tries.
  uint64_t abandoned() const { return abandoned_; }
  /// End of the last Run, virtual us.
  double run_until() const { return run_until_; }

  // Traces of sampled in-flight ops, this loop's and the owner's open
  // loop's. Event closures hold raw pointers; the driver owns the
  // contexts so a sim's teardown can end the ones still in flight while
  // its virtual clock is installed.

  /// A new trace for an op of `type` when the tracer samples it, else
  /// nullptr.
  obs::TraceContext* StartTrace(workload::OpType type);
  /// Ends and frees `trace` (nullptr is a no-op).
  void EndTrace(obs::TraceContext* trace);
  /// Ends every live trace, in start order.
  void EndTraces();

 private:
  struct Stream {
    std::unique_ptr<workload::WorkloadGenerator> gen;
    bool active = false;
    /// Ops this stream has in flight (<= pipeline depth).
    int in_flight = 0;
  };

  void IssueNext(int stream_idx);
  void Execute(int stream_idx, const workload::WorkloadOp& op,
               double issue_time, int attempt, obs::TraceContext* trace);
  void Complete(int stream_idx, double issue_time, double finish,
                obs::TraceContext* trace);

  Engine* engine_;
  Server* server_;
  Options options_;  // spec: the current one (workload changes replace it)
  std::map<uint64_t, std::unique_ptr<obs::TraceContext>> traces_;  // by id

  std::vector<Stream> streams_;
  WindowStats windows_;
  Histogram run_latency_;  // post-warmup
  double warmup_until_ = 0.0;
  double run_until_ = 0.0;
  uint64_t completed_after_warmup_ = 0;
  uint64_t abandoned_ = 0;
};

}  // namespace sim
}  // namespace dinomo

#endif  // DINOMO_SIM_CLOSED_LOOP_H_
