#include "sim/clover_sim.h"

#include <algorithm>

#include "common/logging.h"
#include "kn/kn_worker.h"

namespace dinomo {
namespace sim {

CloverSim::CloverSim(const CloverSimOptions& options)
    : options_(options),
      metrics_(obs::Scope("sim.clover", options.metrics)),
      throughput_mops_(metrics_.gauge("throughput_mops")),
      link_utilization_(metrics_.gauge("link.utilization")),
      ms_utilization_(metrics_.gauge("ms_pool.utilization")),
      link_(options.clover.link_profile.bandwidth_gbps),
      ms_pool_(options.clover.ms_workers),
      clients_(&engine_, this,
               {.client_threads = options.client_threads,
                .spec = options.spec,
                .seed = options.seed,
                .stats_window_us = options.stats_window_us,
                .op_latency_us = &metrics_.histogram("op_latency_us")}) {
  if (options_.metrics != nullptr) {
    options_.clover.metrics = options_.metrics;
  }
  store_ = std::make_unique<clover::CloverStore>(options_.clover);
  for (int i = 0; i < options_.num_kns; ++i) {
    auto kn_sim = std::make_unique<KnSim>();
    for (int w = 0; w < options_.workers_per_kn; ++w) {
      auto ws = std::make_unique<WorkerSim>();
      const int fabric_node =
          (i * options_.workers_per_kn + w) % net::Fabric::kMaxNodes;
      ws->kn = std::make_unique<clover::CloverKn>(
          store_.get(), fabric_node,
          options_.cache_bytes_per_kn / options_.workers_per_kn);
      kn_sim->workers.push_back(std::move(ws));
    }
    kns_.push_back(std::move(kn_sim));
  }
}

CloverSim::~CloverSim() = default;

int CloverSim::NumActiveKns() const {
  int n = 0;
  for (const auto& k : kns_) {
    if (!k->failed) n++;
  }
  return n;
}

void CloverSim::Preload() {
  clover::CloverKn* loader = kns_[0]->workers[0]->kn.get();
  const std::string value(options_.spec.value_size, 'p');
  for (uint64_t rec = 0; rec < options_.spec.record_count; ++rec) {
    kn::OpResult r = loader->Put(workload::KeyForRecord(rec), value);
    DINOMO_CHECK(r.status.ok());
  }
  store_->fabric()->ResetCounters();
  for (auto& k : kns_) {
    for (auto& ws : k->workers) ws->kn->ResetStats();
  }
  ops_executed_ = 0;
}

void CloverSim::Run(double duration_us, double warmup_us) {
  if (!gc_running_) {
    gc_running_ = true;
    engine_.ScheduleAfter(options_.gc_interval_us, [this] { GcTick(); });
  }
  clients_.Run(duration_us, warmup_us);
  const double elapsed = engine_.now_us();
  throughput_mops_.Set(clients_.ThroughputMops());
  link_utilization_.Set(link_.Utilization(elapsed));
  ms_utilization_.Set(ms_pool_.Utilization(elapsed));
}

void CloverSim::GcTick() {
  store_->RunGcOnce();
  if (engine_.now_us() < clients_.run_until()) {
    engine_.ScheduleAfter(options_.gc_interval_us, [this] { GcTick(); });
  } else {
    gc_running_ = false;
  }
}

double CloverSim::Serve(const workload::WorkloadOp& op,
                        const std::string& value,
                        obs::TraceContext* /*trace*/,
                        const std::function<void()>& retry) {
  const double now = engine_.now_us();
  // Shared-everything: any KN serves any key; clients spread requests
  // round-robin across the KNs they believe are alive.
  std::vector<KnSim*> routable;
  for (auto& k : kns_) {
    if (k->routable) routable.push_back(k.get());
  }
  if (routable.empty()) {
    engine_.ScheduleAfter(options_.request_timeout_us, retry);
    return -1.0;
  }
  KnSim* k = routable[salt_ % routable.size()];
  WorkerSim* ws =
      k->workers[(salt_ / routable.size()) % k->workers.size()].get();
  salt_++;
  if (k->failed) {
    // Client does not yet know: the request times out first (§5.3).
    engine_.ScheduleAfter(options_.request_timeout_us, retry);
    return -1.0;
  }

  kn::OpResult r;
  switch (op.type) {
    case workload::OpType::kRead:
      r = ws->kn->Get(op.key);
      break;
    case workload::OpType::kUpdate:
    case workload::OpType::kInsert:
      r = ws->kn->Put(op.key, value);
      break;
    case workload::OpType::kScan:
      // Clover's index is hash-only; the baseline cannot serve the scan
      // class. Degrade to a point read of the start key so a mixed spec
      // still drives load instead of wedging the closed loop.
      r = ws->kn->Get(op.key);
      break;
  }
  if (!r.status.ok() && !r.status.IsNotFound()) {
    engine_.ScheduleAfter(1000.0, retry);
    return -1.0;
  }
  ops_executed_++;

  // Metadata-server involvement (dpm_cpu_us) is Clover's scaling
  // bottleneck.
  const double start = std::max(now, ws->free_until);
  const double finish = TimeOp(start, r.cpu_us, r.cost,
                               options_.clover.link_profile, &link_, &ms_pool_)
                            .finish;
  ws->free_until = finish;
  return finish;
}

CloverSim::Profile CloverSim::CollectProfile() const {
  Profile p;
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (const auto& k : kns_) {
    for (const auto& ws : k->workers) {
      const cache::CacheStats& cs = ws->kn->stats();
      hits += cs.value_hits + cs.shortcut_hits;
      misses += cs.misses;
    }
  }
  p.ops = hits + misses;
  if (p.ops > 0) p.cache_hit_ratio = static_cast<double>(hits) / p.ops;
  if (ops_executed_ > 0) {
    p.rts_per_op =
        static_cast<double>(store_->fabric()->TotalRoundTrips()) /
        ops_executed_;
  }
  return p;
}

void CloverSim::ScheduleKill(double at_us, int kn_index) {
  engine_.ScheduleAt(at_us, [this, kn_index] {
    std::vector<KnSim*> active;
    for (auto& k : kns_) {
      if (!k->failed) active.push_back(k.get());
    }
    if (kn_index < 0 || kn_index >= static_cast<int>(active.size())) return;
    KnSim* victim = active[kn_index];
    victim->failed = true;
    // Clients keep timing out on it until the membership update lands —
    // no data reorganization is needed (shared-everything).
    engine_.ScheduleAfter(options_.membership_update_us,
                          [victim] { victim->routable = false; });
  });
}

}  // namespace sim
}  // namespace dinomo
