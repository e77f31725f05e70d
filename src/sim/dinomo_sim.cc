#include "sim/dinomo_sim.h"

#include <algorithm>

#include "common/logging.h"

namespace dinomo {
namespace sim {

namespace {
// Fixed protocol overhead of a reconfiguration round (hash-ring updates,
// membership broadcast), us.
constexpr double kReconfigOverheadUs = 200.0;
// Failure-detection delay before the M-node reacts to a dead KN or DPM
// node, us (the paper's full recovery takes ~109 ms on a 2-minute
// timeline; the experiment timelines here are ~50x shorter).
constexpr double kFailureDetectUs = 5e3;

DinomoSimOptions WithRegistry(DinomoSimOptions opt) {
  if (opt.metrics != nullptr) {
    opt.dpm.metrics = opt.metrics;
    opt.kn.metrics = opt.metrics;
  }
  return opt;
}


}  // namespace

DinomoSim::DinomoSim(const DinomoSimOptions& options)
    : options_(WithRegistry(reconfig::ForVariant(options))),
      tracer_(options.tracer != nullptr ? options.tracer
                                        : &obs::Tracer::Global()),
      trace_pid_(tracer_->enabled() ? tracer_->NextProcessId() : 0),
      metrics_(obs::Scope("sim.dinomo", options.metrics)),
      op_latency_us_(metrics_.histogram("op_latency_us")),
      throughput_mops_(metrics_.gauge("throughput_mops")),
      link_utilization_(metrics_.gauge("link.utilization")),
      dpm_utilization_(metrics_.gauge("dpm_pool.utilization")),
      pool_(std::make_unique<dpm::DpmPool>(dpm::DpmPoolOptions{
          options_.dpm_nodes, options_.replication_factor, options_.dpm})),
      routing_(options.kn.num_workers),
      policy_(options.policy),
      reconfig_(this, pool_.get(), &routing_, &policy_, options_.variant,
                options_.kn.num_workers),
      link_(options.dpm.link_profile.bandwidth_gbps),
      dpm_pool_(options.dpm_threads),
      clients_(&engine_, this,
               {.client_threads = options_.client_threads,
                .spec = options_.spec,
                .seed = options_.seed,
                .pipeline_depth = options_.pipeline_depth,
                .stats_window_us = options_.stats_window_us,
                .op_latency_us = &op_latency_us_,
                .epoch_latency = &epoch_latency_,
                .tracer = tracer_,
                .trace_pid = trace_pid_}) {
  if (tracer_->enabled()) {
    // Virtual-time tracing: timestamps come from the engine clock, so a
    // trace replays bit-identically for a given seed. The clock override
    // is restored in the destructor.
    tracer_->SetClock([this] { return engine_.now_us(); });
    trace_clock_installed_ = true;
  }
  for (int i = 0; i < pool_->num_nodes(); ++i) {
    pool_->node(i)->merge()->SetMergeCallback(
        [this](const dpm::MergeAck& ack) { OnMergeFinished(ack); });
    if (tracer_->enabled()) pool_->node(i)->merge()->SetTracer(tracer_);
  }

  if (!options_.faults.empty()) {
    injector_ = std::make_unique<net::FaultInjector>(options_.faults,
                                                     options_.metrics);
    // Virtual time drives the fault windows, so a schedule replays
    // identically across runs; delays must never block the sim thread.
    injector_->SetClock([this] { return engine_.now_us(); });
    injector_->set_sleep_on_delay(false);
    pool_->SetFaultInjector(injector_.get());
    for (const net::FaultEvent& ev : options_.faults.events) {
      if (ev.kind == net::FaultEvent::Kind::kFailStop) {
        engine_.ScheduleAt(ev.start_us, [this] {
          const int victim = injector_->ClaimFailStop();
          if (victim >= 0) {
            DoKill(victim);
            injector_->NoteFailStopEnacted();
          }
        });
      } else if (ev.kind == net::FaultEvent::Kind::kDpmFailStop) {
        engine_.ScheduleAt(ev.start_us, [this] {
          const int victim = injector_->ClaimDpmFailStop();
          if (victim >= 0) DoDpmKill(victim);
        });
      }
    }
  }

  for (int i = 0; i < options_.num_kns; ++i) routing_.AddKn(StartKn());
  reconfig_.PushRouting();
}

DinomoSim::~DinomoSim() {
  if (trace_clock_installed_) {
    // End in-flight traces while the virtual clock is still installed,
    // then restore the wall clock for whoever uses the tracer next.
    clients_.EndTraces();
    tracer_->SetClock(nullptr);
  }
}

DinomoSim::KnSim* DinomoSim::FindKn(uint64_t kn_id) {
  for (auto& k : kns_) {
    if (k->kn_id == kn_id) return k.get();
  }
  return nullptr;
}

void DinomoSim::Preload() {
  // Load-phase traffic is not part of any experiment; suspend injection
  // so the strict load-loop invariants (only Busy rejections) hold.
  pool_->SetFaultInjector(nullptr);
  auto table = routing_.Snapshot();
  const std::string value(options_.spec.value_size, 'p');
  for (uint64_t rec = 0; rec < options_.spec.record_count; ++rec) {
    const std::string key = workload::KeyForRecord(rec);
    const uint64_t kh = kn::KeyHash(key);
    KnSim* k = FindKn(table->PrimaryOwner(kh));
    DINOMO_CHECK(k != nullptr);
    kn::KnWorker* w =
        k->workers[table->ThreadFor(kh, k->kn_id)]->worker.get();
    kn::OpResult r;
    for (int tries = 0; tries < 100; ++tries) {
      r = w->Put(key, value);
      if (r.status.ok()) break;
      if (!r.status.IsBusy()) {
        DINOMO_LOG_STREAM(Error)
            << "preload put rejected: " << r.status.ToString();
      }
      DINOMO_CHECK(r.status.IsBusy());
      // Busy = some node hit the unmerged-segment threshold. The shared
      // FIFO merge queue can be arbitrarily deep, so nibbling at it one
      // batch at a time may never reach this owner's backlog within any
      // fixed retry budget; merge it synchronously everywhere instead
      // (with a pool the blocking node may be the key's primary *or* its
      // mirror).
      for (int n = 0; n < pool_->num_nodes(); ++n) {
        DINOMO_CHECK(pool_->node(n)->DrainOwner(w->log_owner()).ok());
      }
    }
    // A silently skipped record would surface much later as a phantom
    // lost write; the load loop must either ack every record or die.
    DINOMO_CHECK(r.status.ok());
  }
  for (auto& k : kns_) {
    for (auto& ws : k->workers) {
      kn::OpResult r = ws->worker->FlushWrites();
      DINOMO_CHECK(r.status.ok());
    }
  }
  for (int i = 0; i < pool_->num_nodes(); ++i) {
    DINOMO_CHECK(pool_->node(i)->merge()->DrainAll().ok());
  }
  // Measurement starts fresh: keep the warm caches, reset the counters.
  ResetProfileWindow();
  pool_->SetFaultInjector(injector_.get());
}

void DinomoSim::Run(double duration_us, double warmup_us) {
  async_worker_ = options_.pipeline_depth > 1;
  clients_.Run(duration_us, warmup_us);
  const double elapsed = engine_.now_us();
  throughput_mops_.Set(clients_.ThroughputMops());
  link_utilization_.Set(link_.Utilization(elapsed));
  dpm_utilization_.Set(dpm_pool_.Utilization(elapsed));
}

void DinomoSim::DrainLogs() {
  for (auto& k : kns_) {
    if (k->failed) continue;
    for (auto& ws : k->workers) {
      Status st = ws->worker->DrainLog();
      if (!st.ok() && !st.IsBusy()) {
        DINOMO_LOG_STREAM(Warn) << "log drain failed: " << st.ToString();
      }
    }
  }
}

double DinomoSim::Serve(const workload::WorkloadOp& op,
                        const std::string& value, obs::TraceContext* trace,
                        const std::function<void()>& retry) {
  const double now = engine_.now_us();
  auto table = routing_.Snapshot();
  if (table->global_ring.empty()) {
    if (trace != nullptr) trace->MarkWait(obs::SpanKind::kBackoff, now);
    engine_.ScheduleAfter(options_.routing_refresh_us, retry);
    return -1.0;
  }
  const uint64_t kh = kn::KeyHash(op.key);
  const uint64_t kn_id = table->RouteFor(kh, salt_++);
  KnSim* k = FindKn(kn_id);
  if (k == nullptr || k->failed) {
    // Dead node: the request times out, then the client refreshes.
    const double delay =
        k == nullptr ? options_.routing_refresh_us : options_.request_timeout_us;
    if (trace != nullptr) trace->MarkWait(obs::SpanKind::kBackoff, now);
    engine_.ScheduleAfter(delay, retry);
    return -1.0;
  }
  if (k->unavailable_until > now) {
    const double at = std::max(now + options_.routing_refresh_us,
                               k->unavailable_until);
    if (trace != nullptr) trace->MarkWait(obs::SpanKind::kBackoff, now);
    engine_.ScheduleAt(at, retry);
    return -1.0;
  }
  const int widx = table->ThreadFor(kh, kn_id);
  WorkerSim* ws = k->workers[widx].get();

  if (trace != nullptr && ws->free_until > now) {
    // The worker is modeled busy until free_until: queue wait.
    trace->RecordWait(obs::SpanKind::kQueueWait, now, ws->free_until - now);
  }
  kn::OpResult r;
  {
    obs::ScopedTraceContext trace_scope(trace);
    switch (op.type) {
      case workload::OpType::kRead:
        r = ws->worker->Get(op.key);
        break;
      case workload::OpType::kUpdate:
      case workload::OpType::kInsert:
        r = ws->worker->Put(op.key, value);
        break;
      case workload::OpType::kScan: {
        std::vector<kn::ScanRow> rows;
        r = ws->worker->Scan(op.key, op.scan_len, &rows);
        break;
      }
    }
  }
  if (trace != nullptr) trace->AddOpCostRoundTrips(r.cost.round_trips);
  PumpMerges();

  if (r.status.IsBusy()) {
    // Blocked on the unmerged-segment threshold: wait for merge progress
    // on this worker's log (the log-write blocking of §4). Under fault
    // injection Busy can also be a bounced RPC with no merge ever coming,
    // so arm a timeout alongside the parked wakeup; the once-guard keeps
    // whichever fires second from re-executing the op.
    if (trace != nullptr) trace->MarkWait(obs::SpanKind::kMergeWait, now);
    auto fired = std::make_shared<bool>(false);
    auto once = [fired, retry] {
      if (*fired) return;
      *fired = true;
      retry();
    };
    ws->parked.push_back(once);
    if (injector_ != nullptr) {
      engine_.ScheduleAt(now + options_.request_timeout_us, once);
    }
    return -1.0;
  }
  if (r.status.IsWrongOwner() || r.status.IsUnavailable()) {
    if (trace != nullptr) trace->MarkWait(obs::SpanKind::kBackoff, now);
    engine_.ScheduleAfter(options_.routing_refresh_us, retry);
    return -1.0;
  }

  // Two-sided ops' DPM processor time shares the pool with the merge
  // threads.
  const double start = std::max(now, ws->free_until);
  const OpTiming t = TimeOp(start, r.cpu_us, r.cost, options_.dpm.link_profile,
                            &link_, &dpm_pool_);
  const double core_free = async_worker_ ? t.cpu_done : t.finish;
  ws->free_until = core_free;
  k->busy_us_epoch += core_free - start;
  return t.finish;
}

void DinomoSim::PumpMerges() {
  // All DPM nodes' processors share one modeled CPU pool (dpm_pool_),
  // matching the single merge-thread budget of the real runtime.
  for (int n = 0; n < pool_->num_nodes(); ++n) {
    dpm::DpmNode* node = pool_->node(n);
    dpm::MergeTask task;
    while (node->merge()->TryDequeue(&task)) {
      const double cpu = node->merge()->Execute(task);
      // A reconfiguration may settle the batch before this event fires.
      node->merge()->Defer(task);
      const double done = dpm_pool_.Reserve(engine_.now_us(), cpu);
      engine_.ScheduleAt(done, [this, node, task] {
        node->merge()->FinishDeferred(task);
        PumpMerges();
      });
    }
  }
}

void DinomoSim::OnMergeFinished(const dpm::MergeAck& ack) {
  KnSim* k = FindKn(ack.owner >> 8);
  if (k == nullptr) return;
  const int widx = static_cast<int>(ack.owner & 0xff);
  if (widx >= static_cast<int>(k->workers.size())) return;
  WorkerSim* ws = k->workers[widx].get();
  ws->worker->OnOwnerBatchMerged(ack.node, ack.base);
  // Wake writers blocked on the threshold.
  std::deque<std::function<void()>> parked;
  parked.swap(ws->parked);
  for (auto& retry : parked) {
    engine_.ScheduleAfter(0.0, std::move(retry));
  }
}

// ----- Open-loop engine -----

void DinomoSim::RunOpenLoop(const OpenLoopOptions& opts, double duration_us,
                            double warmup_us) {
  DINOMO_CHECK(opts.source != nullptr);
  // The autoscaler consumes the per-epoch occupancy counters that
  // the M-node epoch also resets; running both would corrupt both.
  DINOMO_CHECK(!opts.autoscale || !mnode_enabled_);
  const double now = engine_.now_us();
  open_source_ = opts.source;
  open_stats_ = std::make_unique<OpenLoopStats>(options_.stats_window_us);
  open_value_.assign(opts.value_size, 'o');
  open_run_until_ = now + duration_us;
  open_warmup_until_ = now + warmup_us;
  async_worker_ = true;
  open_exhausted_ = false;
  open_in_flight_ = 0;
  open_interval_latency_.Reset();
  open_interval_offered_ = 0;
  if (opts.autoscale) {
    autoscaler_ = std::make_unique<mnode::SloAutoscaler>(opts.autoscaler);
    autoscaler_interval_us_ = opts.autoscaler_interval_us;
    engine_.ScheduleAfter(autoscaler_interval_us_,
                          [this] { AutoscalerEval(); });
  }
  OpenScheduleNextArrival();
  engine_.RunUntil(open_run_until_);
  open_stats_->in_flight_at_end = open_in_flight_;
  if (autoscaler_ != nullptr) {
    open_stats_->scale_ups = autoscaler_->scale_ups();
    open_stats_->scale_downs = autoscaler_->scale_downs();
  }
  const double elapsed = engine_.now_us();
  const double span = open_run_until_ - open_warmup_until_;
  throughput_mops_.Set(
      span > 0 ? open_stats_->completed_after_warmup / span : 0.0);
  link_utilization_.Set(link_.Utilization(elapsed));
  dpm_utilization_.Set(dpm_pool_.Utilization(elapsed));
}

void DinomoSim::OpenScheduleNextArrival() {
  if (open_exhausted_) return;
  load::TimedOp timed;
  if (!open_source_->Next(&timed) || timed.intended_us >= open_run_until_) {
    open_exhausted_ = true;
    return;
  }
  // Arrivals are injected at their intended instant — never earlier, and
  // never held back by completions (that is the whole point). An arrival
  // stamped in the past (e.g. a replayed trace older than now) goes in
  // immediately; its lateness is charged to intended latency.
  const double at = std::max(timed.intended_us, engine_.now_us());
  engine_.ScheduleAt(at, [this, timed] {
    OpenIssue(timed);
    OpenScheduleNextArrival();
  });
}

void DinomoSim::OpenIssue(const load::TimedOp& timed) {
  OpenLoopStats& stats = *open_stats_;
  stats.offered++;
  const size_t widx =
      static_cast<size_t>(timed.intended_us / stats.windows.window_us());
  if (stats.offered_per_window.size() <= widx) {
    stats.offered_per_window.resize(widx + 1);
  }
  stats.offered_per_window[widx]++;
  open_interval_offered_++;
  auto op = std::make_shared<OpenOp>();
  op->op = timed.op;
  op->intended_us = timed.intended_us;
  op->trace = clients_.StartTrace(op->op.type);
  open_in_flight_++;
  OpenExecute(std::move(op));
}

void DinomoSim::OpenExecute(std::shared_ptr<OpenOp> op) {
  const double now = engine_.now_us();
  if (op->trace != nullptr) op->trace->FlushWait(now);
  if (op->attempt >= kMaxAttempts) {
    open_stats_->abandoned++;
    open_in_flight_--;
    clients_.EndTrace(op->trace);
    return;
  }
  // Service latency measures from the dispatch that got served; every
  // earlier rejected attempt's wait lands only in intended latency.
  op->dispatch_us = now;
  std::shared_ptr<OpenOp> self = op;
  auto retry = [this, self] {
    self->attempt++;
    OpenExecute(self);
  };
  const double finish = Serve(op->op, open_value_, op->trace, retry);
  if (finish < 0) return;
  engine_.ScheduleAt(finish,
                     [this, self, finish] { OpenComplete(self, finish); });
}

void DinomoSim::OpenComplete(const std::shared_ptr<OpenOp>& op,
                             double finish) {
  clients_.EndTrace(op->trace);
  open_in_flight_--;
  OpenLoopStats& stats = *open_stats_;
  stats.completed++;
  const double intended_lat = finish - op->intended_us;
  const double service_lat = finish - op->dispatch_us;
  stats.windows.Record(finish, intended_lat);
  open_interval_latency_.Add(intended_lat);
  if (finish >= open_warmup_until_) {
    stats.intended_latency.Add(intended_lat);
    stats.service_latency.Add(service_lat);
    stats.completed_after_warmup++;
    op_latency_us_.Record(intended_lat);
  }
}

void DinomoSim::AutoscalerEval() {
  const double now = engine_.now_us();
  mnode::SloSample sample;
  sample.p99_us = open_interval_latency_.P99();
  sample.completed = open_interval_latency_.count();
  sample.offered = open_interval_offered_;
  sample.active_kns = NumActiveKns();
  open_interval_latency_.Reset();
  open_interval_offered_ = 0;
  const mnode::SloAutoscaler::Decision decision =
      autoscaler_->Observe(sample, now / 1e6);
  if (decision.delta_kns > 0) {
    for (int i = 0; i < decision.delta_kns; ++i) (void)reconfig_.AddKn();
  } else {
    for (int i = 0; i < -decision.delta_kns; ++i) {
      // Retire the KN that did the least work since the last eval; its
      // keys rehash onto the survivors.
      uint64_t victim = 0;
      double min_busy = 0.0;
      bool found = false;
      for (const auto& k : kns_) {
        if (k->failed) continue;
        if (!found || k->busy_us_epoch < min_busy) {
          min_busy = k->busy_us_epoch;
          victim = k->kn_id;
          found = true;
        }
      }
      if (found) (void)reconfig_.RemoveKn(victim);
    }
  }
  // Occupancy counters only feed victim choice here; restart them so the
  // next decision reflects post-change traffic.
  for (const auto& k : kns_) k->busy_us_epoch = 0.0;
  open_stats_->kn_trajectory.emplace_back(now, NumActiveKns());
  if (now < open_run_until_) {
    engine_.ScheduleAfter(autoscaler_interval_us_,
                          [this] { AutoscalerEval(); });
  }
}

void DinomoSim::ResetProfileWindow() {
  for (int i = 0; i < pool_->num_nodes(); ++i) {
    pool_->node(i)->fabric()->ResetCounters();
  }
  for (auto& k : kns_) {
    for (auto& ws : k->workers) {
      ws->worker->SnapshotStats(/*reset=*/true);
      ws->worker->cache()->ResetStats();
    }
  }
}

DinomoSim::Profile DinomoSim::CollectProfile() const {
  Profile p;
  uint64_t value_hits = 0;
  uint64_t shortcut_hits = 0;
  uint64_t misses = 0;
  uint64_t ops = 0;
  for (const auto& k : kns_) {
    for (const auto& ws : k->workers) {
      const cache::CacheStats& cs =
          const_cast<kn::KnWorker*>(ws->worker.get())->cache()->stats();
      value_hits += cs.value_hits;
      shortcut_hits += cs.shortcut_hits;
      misses += cs.misses;
    }
  }
  ops = value_hits + shortcut_hits + misses;
  p.ops = ops;
  if (ops > 0) {
    p.cache_hit_ratio =
        static_cast<double>(value_hits + shortcut_hits) / ops;
  }
  if (value_hits + shortcut_hits > 0) {
    p.value_hit_share =
        static_cast<double>(value_hits) / (value_hits + shortcut_hits);
  }
  uint64_t rts = 0;
  for (int n = 0; n < pool_->num_nodes(); ++n) {
    rts += pool_->node(n)->fabric()->TotalRoundTrips();
  }
  // Round trips per *request*; reads and writes both count.
  uint64_t requests = 0;
  for (const auto& k : kns_) {
    for (const auto& ws : k->workers) {
      auto stats =
          const_cast<kn::KnWorker*>(ws->worker.get())->SnapshotStats(false);
      requests += stats.reads + stats.writes + stats.scans;
      p.scans += stats.scans;
    }
  }
  if (requests > 0) p.rts_per_op = static_cast<double>(rts) / requests;
  return p;
}

// ----- Elasticity hooks -----

void DinomoSim::ScheduleKill(double at_us, int kn_index) {
  engine_.ScheduleAt(at_us, [this, kn_index] { DoKill(kn_index); });
}

void DinomoSim::ScheduleDpmKill(double at_us, int node) {
  engine_.ScheduleAt(at_us, [this, node] { DoDpmKill(node); });
}

void DinomoSim::EnableMnode() {
  if (mnode_enabled_) return;
  mnode_enabled_ = true;
  epoch_started_ = engine_.now_us();
  engine_.ScheduleAfter(options_.mnode_epoch_us, [this] { MnodeEpoch(); });
}

void DinomoSim::MnodeEpoch() {
  const double now = engine_.now_us();
  mnode::ClusterMetrics metrics = reconfig_.CollectMetrics(
      now - epoch_started_, [this](uint64_t kn_id, double) {
        // Modelled: the time the KN's worker cores were held.
        KnSim* k = FindKn(kn_id);
        return std::exchange(k->busy_us_epoch, 0.0);
      });
  metrics.avg_latency_us = epoch_latency_.Average();
  metrics.p99_latency_us = epoch_latency_.P99();
  epoch_latency_.Reset();
  epoch_started_ = now;
  reconfig_.RunPolicy(metrics, now / 1e6);
  // Epochs run while either loop does.
  if (now < std::max(clients_.run_until(), open_run_until_)) {
    engine_.ScheduleAfter(options_.mnode_epoch_us, [this] { MnodeEpoch(); });
  }
}

void DinomoSim::DoKill(int kn_index) {
  const std::vector<uint64_t> active = ActiveKns();
  if (kn_index < 0 || kn_index >= static_cast<int>(active.size())) return;
  const uint64_t victim = active[kn_index];
  FindKn(victim)->failed = true;
  // Detection, then the failure-handling round (§3.5, "Fault tolerance").
  engine_.ScheduleAfter(kFailureDetectUs, [this, victim] {
    const Status st = reconfig_.RecoverKn(victim);
    if (!st.ok()) {
      DINOMO_LOG_STREAM(Warn) << "kn recovery failed: " << st.ToString();
    }
  });
}

void DinomoSim::DoDpmKill(int node) {
  const double killed_at = engine_.now_us();
  // The node dies now: the pool promotes each of its ranges' mirrors and
  // bumps the placement generation. Workers re-resolve segment homes at
  // their next op; RPCs stamped with the old generation bounce as
  // Unavailable, which the clients retry.
  const Status killed = pool_->KillNode(node);
  if (!killed.ok()) {
    DINOMO_LOG_STREAM(Warn) << "dpm kill skipped: " << killed.ToString();
    return;
  }
  if (injector_ != nullptr) injector_->NoteDpmFailStopEnacted();
  engine_.ScheduleAfter(kFailureDetectUs, [this, killed_at] {
    const Status st = reconfig_.RecoverDpm(killed_at);
    if (!st.ok()) {
      DINOMO_LOG_STREAM(Warn) << "dpm recovery failed: " << st.ToString();
    }
  });
}

// ----- reconfig::Runtime -----

std::vector<uint64_t> DinomoSim::ActiveKns() const {
  std::vector<uint64_t> out;
  for (const auto& k : kns_) {
    if (!k->failed) out.push_back(k->kn_id);
  }
  return out;
}

void DinomoSim::RunOnWorkers(uint64_t kn_id,
                             const std::function<void(kn::KnWorker*)>& fn) {
  KnSim* k = FindKn(kn_id);
  if (k == nullptr || k->failed) return;
  for (auto& ws : k->workers) fn(ws->worker.get());
}

uint64_t DinomoSim::StartKn() {
  auto kn_sim = std::make_unique<KnSim>();
  kn_sim->kn_id = next_kn_id_++;
  kn::KnOptions kno = options_.kn;
  kno.kn_id = kn_sim->kn_id;
  kno.fabric_node = static_cast<int>(kn_sim->kn_id % net::Fabric::kMaxNodes);
  for (int w = 0; w < options_.kn.num_workers; ++w) {
    auto ws = std::make_unique<WorkerSim>();
    ws->worker = std::make_unique<kn::KnWorker>(kno, w, pool_.get());
    kn_sim->workers.push_back(std::move(ws));
  }
  kns_.push_back(std::move(kn_sim));
  return kns_.back()->kn_id;
}

void DinomoSim::RetireKn(uint64_t kn_id) {
  if (KnSim* k = FindKn(kn_id)) k->failed = true;
}

void DinomoSim::Pause(const std::vector<uint64_t>& /*kn_ids*/) {
  // The round runs inside one event, so nothing is served before Resume
  // sets the participants' unavailability.
  round_end_ = engine_.now_us() + kReconfigOverheadUs;
}

double DinomoSim::Resume(const std::vector<uint64_t>& kn_ids) {
  for (uint64_t id : kn_ids) {
    if (KnSim* k = FindKn(id)) {
      k->unavailable_until = std::max(k->unavailable_until, round_end_);
    }
  }
  return round_end_;
}

void DinomoSim::MergeRunnable() {
  // Each batch is charged on the modelled DPM processors.
  const double now = engine_.now_us();
  for (int n = 0; n < pool_->num_nodes(); ++n) {
    dpm::MergeService* merge = pool_->node(n)->merge();
    dpm::MergeTask task;
    while (merge->TryDequeue(&task)) {
      round_end_ =
          std::max(round_end_, dpm_pool_.Reserve(now, merge->Execute(task)));
      merge->Finish(task);
    }
  }
}

void DinomoSim::Charge(const reconfig::Cost& cost) {
  const double now = engine_.now_us();
  if (cost.link_bytes > 0) {
    round_end_ = std::max(round_end_, link_.Reserve(now, cost.link_bytes));
  }
  if (cost.dpm_cpu_us > 0) {
    round_end_ = std::max(round_end_, dpm_pool_.Reserve(now, cost.dpm_cpu_us));
  }
  round_end_ = std::max(round_end_, now + cost.latency_us);
}

void DinomoSim::WaitUs(double us) {
  round_end_ = std::max(round_end_, engine_.now_us()) + us;
}

}  // namespace sim
}  // namespace dinomo
