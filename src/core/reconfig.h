#ifndef DINOMO_CORE_RECONFIG_H_
#define DINOMO_CORE_RECONFIG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/routing.h"
#include "common/status.h"
#include "dpm/dpm_pool.h"
#include "kn/kn_worker.h"
#include "mnode/policy.h"

namespace dinomo {

/// Which system of the paper's evaluation a cluster instantiates (§5,
/// "Comparison points").
enum class SystemVariant {
  kDinomo,   // OP + DAC + selective replication
  kDinomoS,  // shortcut-only cache, otherwise DINOMO
  kDinomoN,  // shared-nothing: partitioned data/metadata, no replication
};

namespace reconfig {

/// A runtime's options with the DPM and KN settings its `variant` implies.
template <typename Options>
Options ForVariant(Options opt) {
  if (opt.variant == SystemVariant::kDinomoN) {
    opt.dpm.partitioned_metadata = true;
    opt.kn.dinomo_n = true;
  }
  if (opt.variant == SystemVariant::kDinomoS) {
    opt.kn.policy = kn::CachePolicyKind::kShortcutOnly;
  }
  return opt;
}

/// Modelled cost of one protocol step. The virtual-time runtime charges it
/// against its link and DPM-processor models; the threaded runtime pays
/// real time instead and ignores it.
struct Cost {
  uint64_t link_bytes = 0;
  double dpm_cpu_us = 0.0;
  /// Fixed latency the round lasts at least, measured from now.
  double latency_us = 0.0;
};

/// What the reconfiguration protocol needs from a runtime. `Cluster`
/// implements it with threads on the wall clock, `sim::DinomoSim` on the
/// discrete-event engine's virtual clock. Calls run one protocol step at
/// a time; nothing here may block on an event only the caller can deliver.
class Runtime {
 public:
  virtual ~Runtime() = default;

  /// KNs currently serving, in ascending id order.
  virtual std::vector<uint64_t> ActiveKns() const = 0;
  /// Runs `fn` on each worker of a live KN (on the worker's own thread
  /// where it has one) and returns once all have run.
  virtual void RunOnWorkers(uint64_t kn_id,
                            const std::function<void(kn::KnWorker*)>& fn) = 0;
  /// Starts a KN outside the ring; it serves once resumed. Returns its id.
  virtual uint64_t StartKn() = 0;
  /// Stops and forgets a KN that has left the ring (scale-in or failure).
  virtual void RetireKn(uint64_t kn_id) = 0;
  /// Makes KNs reject requests (clients back off and retry). Opens the
  /// round: every later Charge extends it until Resume.
  virtual void Pause(const std::vector<uint64_t>& kn_ids) = 0;
  /// Lets KNs serve again once the round's cost has elapsed; returns that
  /// time, us.
  virtual double Resume(const std::vector<uint64_t>& kn_ids) = 0;
  /// Merges the batches queued and runnable now, in queue order. A no-op
  /// where merge threads run them anyway.
  virtual void MergeRunnable() = 0;
  virtual void Charge(const Cost& cost) = 0;
  virtual double NowUs() const = 0;
  /// Waits before an admin RPC is retried: a sleep on the wall clock, a
  /// longer round in virtual time.
  virtual void WaitUs(double us) = 0;
};

/// DINOMO's reconfiguration protocol (§3.5), written once for both
/// runtimes. Every membership or ownership change runs the same steps:
/// the participants become unavailable, their logs merge synchronously,
/// the new mapping is published, and they resume. No data is copied,
/// except under DINOMO-N, where reorganization physically moves entries —
/// the cost the paper charges shared-nothing designs.
class Protocol {
 public:
  Protocol(Runtime* runtime, dpm::DpmPool* pool,
           cluster::RoutingService* routing, mnode::PolicyEngine* policy,
           SystemVariant variant, int workers_per_kn);

  /// Scale-out by one KN; returns the new KN's id.
  Result<uint64_t> AddKn();
  /// Graceful scale-in.
  Status RemoveKn(uint64_t kn_id);
  /// KN fail-stop recovery, run once the runtime has failed the node:
  /// merges what its logs reached, then repartitions its ranges.
  Status RecoverKn(uint64_t kn_id);
  /// DPM fail-stop recovery, run after DpmPool::KillNode promoted the
  /// mirrors: KNs quiesce and re-resolve segment homes, shared keys
  /// collapse, re-replication restores the mirror count, and the window
  /// since `failed_at_us` publishes as dpm.pool.recovery_window_us.
  Status RecoverDpm(double failed_at_us);
  /// Selective replication of a hot key across `replication` KNs.
  Status ReplicateKey(uint64_t key_hash, int replication);
  /// Collapses a key back to its single owner.
  Status DereplicateKey(uint64_t key_hash);
  /// The M-node's inputs for the `epoch_us` that ends now, from every
  /// live KN's worker stats, which restart for the next epoch. `busy_us`
  /// gives a KN's busy time from its workers' summed stats; a KN's
  /// occupancy is that time per worker core. Latency is the caller's.
  mnode::ClusterMetrics CollectMetrics(
      double epoch_us,
      const std::function<double(uint64_t kn_id, double stats_busy_us)>&
          busy_us);
  /// One M-node epoch at `now_s`: decides on `metrics` and enacts it.
  mnode::PolicyAction RunPolicy(const mnode::ClusterMetrics& metrics,
                                double now_s);
  /// Publishes the current mapping to every live KN; each empties the
  /// cache partitions it no longer owns. A KN the previous push reached
  /// drops only what it lost since then: the replicated keys whose owner
  /// set no longer names it, and the ring ranges handed to added nodes.
  /// Any other KN scans its whole cache.
  void PushRouting();

 private:
  std::vector<uint64_t> LogOwners(const std::vector<uint64_t>& kn_ids) const;
  /// Pause, flush and merge: protocol steps 1-3 for `kn_ids`.
  Status Quiesce(const std::vector<uint64_t>& kn_ids);
  /// Merges every batch the log `owners` submitted, on every live DPM
  /// node, including batches already dequeued but not yet finished.
  Status Settle(const std::vector<uint64_t>& owners);
  /// Hands a leaving (or failed) KN's ranges to the others.
  Status Depart(uint64_t kn_id);
  /// Removes a shared key's indirect slot and its replicated mapping.
  Status Collapse(uint64_t key_hash);
  /// DINOMO-N reorganization away from `from_kns` under the current map.
  Status Migrate(const std::vector<uint64_t>& from_kns);
  template <typename Fn>
  auto RetryTransient(Fn&& fn) -> decltype(fn());

  Runtime* rt_;
  dpm::DpmPool* pool_;
  cluster::RoutingService* routing_;
  mnode::PolicyEngine* policy_;
  SystemVariant variant_;
  int workers_per_kn_;
  // The table the last PushRouting published, and the KNs (ascending) it
  // reached: their workers hold that table and cache only keys it gives
  // them.
  std::shared_ptr<const cluster::RoutingTable> pushed_;
  std::vector<uint64_t> pushed_kns_;
};

}  // namespace reconfig
}  // namespace dinomo

#endif  // DINOMO_CORE_RECONFIG_H_
