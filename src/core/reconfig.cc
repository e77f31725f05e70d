#include "core/reconfig.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <unordered_map>

#include "common/backoff.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "dpm/log.h"
#include "net/fabric.h"

namespace dinomo {
namespace reconfig {

namespace {

// Modelled costs, charged by the virtual-time runtime only.
// DINOMO-N reorganization: extra DPM CPU per migrated key, and a serial
// copy + index-rebuild pipeline the paper measures at roughly 180 MB/s
// (11 s for a ~2 GB partition).
constexpr double kMigratePerKeyUs = 12.0;
constexpr double kMigrateUsPerByte = 1.0 / 180.0;
// DPM processor time per entry re-encoded + merged by the re-replication
// repair pass after a DPM fail-stop.
constexpr double kRepairPerEntryUs = 2.0;
// Brief primary pause while a replicated key's ownership propagates
// ("brief tail latency spikes ... to retrieve the up-to-date ownership
// mapping").
constexpr double kOwnershipPropagationUs = 1000.0;

}  // namespace

Protocol::Protocol(Runtime* runtime, dpm::DpmPool* pool,
                   cluster::RoutingService* routing,
                   mnode::PolicyEngine* policy, SystemVariant variant,
                   int workers_per_kn)
    : rt_(runtime),
      pool_(pool),
      routing_(routing),
      policy_(policy),
      variant_(variant),
      workers_per_kn_(workers_per_kn) {}

// Admin RPCs are off the request path, so they wait out transient DPM
// rejections (injected or real) instead of aborting a half-done ownership
// change. Bounded: ~6 ms of backoff at worst.
template <typename Fn>
auto Protocol::RetryTransient(Fn&& fn) -> decltype(fn()) {
  Backoff backoff(BackoffOptions{50.0, 2'000.0, 2.0, 0.5}, /*seed=*/11);
  auto result = fn();
  for (int attempt = 1; attempt < 6; ++attempt) {
    if (result.ok() || !IsTransient(GetStatus(result))) break;
    rt_->WaitUs(backoff.NextDelayUs());
    result = fn();
  }
  return result;
}

std::vector<uint64_t> Protocol::LogOwners(
    const std::vector<uint64_t>& kn_ids) const {
  std::vector<uint64_t> owners;
  for (uint64_t id : kn_ids) {
    for (int w = 0; w < workers_per_kn_; ++w) owners.push_back((id << 8) | w);
  }
  return owners;
}

void Protocol::PushRouting() {
  const auto table = routing_->Snapshot();
  const std::vector<uint64_t> kns = rt_->ActiveKns();
  // Each KN empties exactly the partitions it no longer owns (§3.4: "the
  // current owner empties its cache"), in the index-metadata cache too: a
  // pointer for a range that later comes back must not resurface. A KN
  // reached by the last push caches only keys that table gave it, so it
  // can lose only keys replicated under either table, or ranges the ring
  // handed away; removing nodes hands away only the removed nodes' ranges.
  std::vector<uint64_t> shared_keys;
  std::vector<cluster::HashRing::Handoff> handoffs;
  if (pushed_ != nullptr) {
    for (const auto* t : {pushed_.get(), table.get()}) {
      for (const auto& [key_hash, owners] : t->replicated) {
        shared_keys.push_back(key_hash);
      }
    }
    std::sort(shared_keys.begin(), shared_keys.end());
    shared_keys.erase(std::unique(shared_keys.begin(), shared_keys.end()),
                      shared_keys.end());
    // An empty ring on either side hands nothing off (a cluster's first
    // KN can join after a push with no KNs, e.g. a DPM recovery round
    // that ran before the cluster's KNs started).
    if (!pushed_->global_ring.empty() && !table->global_ring.empty() &&
        !(pushed_->global_ring == table->global_ring)) {
      handoffs = table->global_ring.HandoffsFrom(pushed_->global_ring);
    }
  }
  for (uint64_t id : kns) {
    auto not_owned = [&table, id](uint64_t key_hash) {
      return !table->IsOwner(key_hash, id);
    };
    if (!std::binary_search(pushed_kns_.begin(), pushed_kns_.end(), id)) {
      rt_->RunOnWorkers(id, [&table, &not_owned](kn::KnWorker* w) {
        w->SetRouting(table);
        w->cache()->InvalidateIf(not_owned);
        if (w->icache() != nullptr) w->icache()->InvalidateIf(not_owned);
      });
      continue;
    }
    std::vector<uint64_t> lost_keys;
    for (uint64_t key_hash : shared_keys) {
      if (pushed_->IsOwner(key_hash, id) && not_owned(key_hash)) {
        lost_keys.push_back(key_hash);
      }
    }
    std::vector<cluster::HashRing::Handoff> lost_ranges;
    for (const auto& h : handoffs) {
      if (h.from == id) lost_ranges.push_back(h);
    }
    auto in_lost_range = [&lost_ranges, &not_owned](uint64_t key_hash) {
      auto it = std::upper_bound(
          lost_ranges.begin(), lost_ranges.end(), key_hash,
          [](uint64_t k, const cluster::HashRing::Handoff& h) {
            return k < h.first;
          });
      return it != lost_ranges.begin() && key_hash <= std::prev(it)->last &&
             not_owned(key_hash);
    };
    rt_->RunOnWorkers(id, [&](kn::KnWorker* w) {
      w->SetRouting(table);
      for (uint64_t key_hash : lost_keys) {
        w->cache()->Invalidate(key_hash);
        if (w->icache() != nullptr) w->icache()->Invalidate(key_hash);
      }
      if (!lost_ranges.empty()) {
        w->cache()->InvalidateIf(in_lost_range);
        if (w->icache() != nullptr) w->icache()->InvalidateIf(in_lost_range);
      }
    });
  }
  pushed_ = table;
  pushed_kns_ = kns;
}

Status Protocol::Quiesce(const std::vector<uint64_t>& kn_ids) {
  rt_->Pause(kn_ids);
  for (uint64_t id : kn_ids) {
    rt_->RunOnWorkers(id, [](kn::KnWorker* w) {
      // Busy leaves the batch buffered on the worker, which still serves
      // it; anything else is worth a line in the log.
      const Status st = w->FlushWrites().status;
      if (!st.ok() && !st.IsBusy()) {
        DINOMO_LOG_STREAM(Warn) << "log flush failed: " << st.ToString();
      }
    });
  }
  return Settle(LogOwners(kn_ids));
}

Status Protocol::Settle(const std::vector<uint64_t>& owners) {
  rt_->MergeRunnable();
  // DrainOwner merges what is left, finishing a batch still in flight.
  double cpu_us = 0.0;
  for (int n = 0; n < pool_->num_nodes(); ++n) {
    if (!pool_->alive(n)) continue;
    dpm::MergeService* merge = pool_->node(n)->merge();
    const double before = merge->merged_cpu_us();
    for (uint64_t owner : owners) {
      DINOMO_RETURN_IF_ERROR(merge->DrainOwner(owner));
    }
    cpu_us += merge->merged_cpu_us() - before;
  }
  if (cpu_us > 0) rt_->Charge({0, cpu_us, 0.0});
  return Status::Ok();
}

Result<uint64_t> Protocol::AddKn() {
  // Steps 1-3: every KN that loses a range participates.
  const std::vector<uint64_t> participants = rt_->ActiveKns();
  DINOMO_RETURN_IF_ERROR(Quiesce(participants));
  // Step 4: the new node and the new mapping.
  const uint64_t id = rt_->StartKn();
  routing_->AddKn(id);
  // Steps 5-7: push the mappings (DINOMO-N then moves the data under
  // them), resume everyone; the new KN goes live.
  PushRouting();
  if (variant_ == SystemVariant::kDinomoN) {
    DINOMO_RETURN_IF_ERROR(Migrate(participants));
  }
  std::vector<uint64_t> resumed = participants;
  resumed.push_back(id);
  rt_->Resume(resumed);
  return id;
}

Status Protocol::RemoveKn(uint64_t kn_id) {
  const std::vector<uint64_t> active = rt_->ActiveKns();
  if (std::find(active.begin(), active.end(), kn_id) == active.end()) {
    return Status::NotFound("unknown KN");
  }
  if (active.size() <= 1) {
    return Status::InvalidArgument("cannot remove the last KN");
  }
  return Depart(kn_id);
}

Status Protocol::RecoverKn(uint64_t kn_id) {
  // Failure handling (§3.5): merge the failed KN's pending log segments,
  // then repartition its ranges among the alive KNs. Its DRAM contents
  // (cache, un-flushed batches) died with it.
  DINOMO_RETURN_IF_ERROR(Depart(kn_id));
  for (int n = 0; n < pool_->num_nodes(); ++n) {
    if (!pool_->alive(n)) continue;
    for (uint64_t owner : LogOwners({kn_id})) {
      pool_->node(n)->ReleaseOwnerSegments(owner);
    }
  }
  policy_->NoteMembershipChange(rt_->NowUs() / 1e6);
  return Status::Ok();
}

Status Protocol::Depart(uint64_t kn_id) {
  std::vector<uint64_t> gainers = rt_->ActiveKns();
  gainers.erase(std::remove(gainers.begin(), gainers.end(), kn_id),
                gainers.end());
  // Only DINOMO-N's gainers take part: they stall while data moves.
  const bool reorganize = variant_ == SystemVariant::kDinomoN;
  if (reorganize) rt_->Pause(gainers);
  DINOMO_RETURN_IF_ERROR(Quiesce({kn_id}));
  routing_->RemoveKn(kn_id);
  rt_->RetireKn(kn_id);
  PushRouting();
  if (reorganize) {
    DINOMO_RETURN_IF_ERROR(Migrate({kn_id}));
    rt_->Resume(gainers);
  }
  return Status::Ok();
}

Status Protocol::RecoverDpm(double failed_at_us) {
  // Quiesce every KN: each worker's flush re-resolves placement first
  // (the generation moved), so buffered entries re-bin to the promoted
  // owners before the merge.
  const std::vector<uint64_t> participants = rt_->ActiveKns();
  DINOMO_RETURN_IF_ERROR(Quiesce(participants));

  // Shared (selectively replicated) keys collapse conservatively: their
  // indirect slots lived in a single node's pool and their shared writes
  // were primary-only, so a membership change invalidates the scheme
  // wholesale. The M-node re-replicates hot keys afterwards.
  const auto table = routing_->Snapshot();  // Collapse publishes new ones
  for (const auto& [key_hash, owners] : table->replicated) {
    const Status st = Collapse(key_hash);
    if (!st.ok()) {
      DINOMO_LOG_STREAM(Warn)
          << "collapse of replicated key failed: " << st.ToString();
      routing_->ClearReplication(key_hash);
    }
  }

  // Restore the mirror count while the cluster is quiescent. The repair
  // is idempotent, so transient faults inside it are retried. If it still
  // fails the KNs come back regardless: a wedged quiesce would turn one
  // dead DPM node into a whole-cluster outage.
  auto repair = RetryTransient([&] { return pool_->ReReplicate(); });
  if (!repair.ok()) {
    rt_->Resume(participants);
    return repair.status();
  }
  if (repair.value().bytes_copied > 0) {
    rt_->Charge({repair.value().bytes_copied,
                 repair.value().entries_copied * kRepairPerEntryUs, 0.0});
  }
  PushRouting();
  const double resumed_at = rt_->Resume(participants);
  pool_->NoteRecoveryWindow(resumed_at - failed_at_us);
  return Status::Ok();
}

Status Protocol::ReplicateKey(uint64_t key_hash, int replication) {
  if (variant_ == SystemVariant::kDinomoN) {
    return Status::NotSupported("DINOMO-N has no selective replication");
  }
  const uint64_t primary = routing_->Snapshot()->PrimaryOwner(key_hash);
  // Owner set: the primary plus the next distinct live KNs.
  std::vector<uint64_t> owners{primary};
  for (uint64_t id : rt_->ActiveKns()) {
    if (static_cast<int>(owners.size()) >= replication) break;
    if (id != primary) owners.push_back(id);
  }
  if (owners.size() <= 1) return Status::Ok();  // nothing to share with

  // The primary is the only node that may hold the value in cache: pause
  // it, land its writes, install the indirect slot, then publish. The
  // slot lives on the key's primary DPM node (shared writes and indirect
  // reads resolve against that node's pool).
  DINOMO_RETURN_IF_ERROR(Quiesce({primary}));
  dpm::DpmNode* home = pool_->node(pool_->PlacementOf(key_hash).primary);
  auto slot = RetryTransient([&] {
    return home->InstallIndirect(
        static_cast<int>(primary % net::Fabric::kMaxNodes), key_hash);
  });
  if (!slot.ok()) {
    rt_->Resume({primary});
    return slot.status();
  }
  rt_->RunOnWorkers(primary, [key_hash](kn::KnWorker* w) {
    w->cache()->Invalidate(key_hash);
    if (w->icache() != nullptr) w->icache()->Invalidate(key_hash);
  });
  routing_->SetReplication(key_hash, owners);
  rt_->Charge({0, 0.0, kOwnershipPropagationUs});
  PushRouting();
  rt_->Resume({primary});
  return Status::Ok();
}

Status Protocol::DereplicateKey(uint64_t key_hash) {
  const std::vector<uint64_t> owners =
      routing_->Snapshot()->OwnersOf(key_hash);
  if (owners.size() <= 1) return Status::Ok();

  // Stop all owners from racing the write-back, drop their cached
  // shortcuts, collapse the slot, then publish the single-owner mapping.
  DINOMO_RETURN_IF_ERROR(Quiesce(owners));
  for (uint64_t id : owners) {
    rt_->RunOnWorkers(id, [key_hash](kn::KnWorker* w) {
      w->cache()->Invalidate(key_hash);
      if (w->icache() != nullptr) w->icache()->Invalidate(key_hash);
    });
  }
  const Status st = Collapse(key_hash);
  if (st.ok()) PushRouting();
  rt_->Resume(owners);
  return st;
}

Status Protocol::Collapse(uint64_t key_hash) {
  // The slot lives on the key's primary DPM node; NotFound means it died
  // with a failed node.
  dpm::DpmNode* home = pool_->node(pool_->PlacementOf(key_hash).primary);
  const Status st =
      RetryTransient([&] { return home->RemoveIndirect(0, key_hash); });
  if (!st.ok() && !st.IsNotFound()) return st;
  routing_->ClearReplication(key_hash);
  return Status::Ok();
}

mnode::ClusterMetrics Protocol::CollectMetrics(
    double epoch_us, const std::function<double(uint64_t, double)>& busy_us) {
  const double core_us = epoch_us * workers_per_kn_;
  mnode::ClusterMetrics metrics;
  std::unordered_map<uint64_t, uint64_t> key_counts;
  int workers = 0;
  for (uint64_t id : rt_->ActiveKns()) {
    double stats_busy_us = 0.0;
    Mutex mu;  // the threaded runtime runs the workers concurrently
    rt_->RunOnWorkers(id, [&](kn::KnWorker* w) {
      const kn::WorkerStats stats = w->SnapshotStats(/*reset=*/true);
      MutexLock lock(mu);
      for (const auto& [key, count] : stats.hot_keys) key_counts[key] += count;
      metrics.key_freq_mean += stats.key_freq_mean;
      metrics.key_freq_stddev += stats.key_freq_stddev;
      stats_busy_us += stats.busy_us;
      workers++;
    });
    metrics.occupancy[id] =
        core_us > 0 ? std::min(1.0, busy_us(id, stats_busy_us) / core_us)
                    : 0.0;
  }
  if (workers > 0) {
    metrics.key_freq_mean /= workers;
    metrics.key_freq_stddev /= workers;
  }
  for (const auto& [key, count] : key_counts) {
    metrics.hot_keys.emplace_back(key, count);
  }
  std::sort(metrics.hot_keys.begin(), metrics.hot_keys.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (metrics.hot_keys.size() > 32) metrics.hot_keys.resize(32);
  const auto table = routing_->Snapshot();
  for (const auto& [key, owners] : table->replicated) {
    metrics.replicated_keys[key] = static_cast<int>(owners.size());
  }
  return metrics;
}

mnode::PolicyAction Protocol::RunPolicy(const mnode::ClusterMetrics& metrics,
                                        double now_s) {
  const mnode::PolicyAction action = policy_->Evaluate(metrics, now_s);
  Status st;
  switch (action.kind) {
    case mnode::PolicyAction::Kind::kAddKn:
      st = AddKn().status();
      if (st.ok()) policy_->NoteMembershipChange(now_s);
      break;
    case mnode::PolicyAction::Kind::kRemoveKn:
      st = RemoveKn(action.kn_id);
      if (st.ok()) policy_->NoteMembershipChange(now_s);
      break;
    case mnode::PolicyAction::Kind::kReplicateKey:
      st = ReplicateKey(action.key_hash, action.replication_factor);
      break;
    case mnode::PolicyAction::Kind::kDereplicateKey:
      st = DereplicateKey(action.key_hash);
      break;
    case mnode::PolicyAction::Kind::kNone:
      break;
  }
  if (!st.ok() && !st.IsNotSupported()) {
    DINOMO_LOG_STREAM(Warn) << "policy action failed: " << st.ToString();
  }
  return action;
}

// ----- DINOMO-N reorganization -----

// Every entry in a source KN's private index whose primary owner is now a
// different KN is written again through that owner's own write path and,
// once merged there, removed from the source: the data copying that
// shared-data DINOMO avoids (§3.4/§5.3). Runs after the new mapping is
// pushed, so the (paused) gaining workers accept the writes. DINOMO-N
// clamps the pool to one node.
Status Protocol::Migrate(const std::vector<uint64_t>& from_kns) {
  const auto table = routing_->Snapshot();
  dpm::DpmNode* dpm = pool_->node(0);
  uint64_t keys = 0;
  uint64_t bytes = 0;
  for (uint64_t from : from_kns) {
    index::Clht* from_index = dpm->IndexFor(from);
    std::map<uint64_t, std::vector<std::pair<uint64_t, pm::PmPtr>>> by_dest;
    from_index->ForEach([&](uint64_t key_hash, pm::PmPtr value) {
      const uint64_t owner = table->PrimaryOwner(key_hash);
      if (owner != from && !dpm::ValuePtr(value).indirect()) {
        by_dest[owner].emplace_back(key_hash, value);
      }
    });
    for (const auto& [dest, moved] : by_dest) {
      Mutex mu;  // the threaded runtime runs the workers concurrently
      Status failed;
      rt_->RunOnWorkers(dest, [&](kn::KnWorker* w) {
        // Busy: this worker's unmerged backlog hit the threshold.
        auto settle_if_busy = [&](const Status& st) {
          if (st.IsBusy()) (void)dpm->DrainOwner(w->log_owner());
          return st;
        };
        Status st;
        for (const auto& [key_hash, value] : moved) {
          if (table->ThreadFor(key_hash, dest) != w->worker_idx()) continue;
          const dpm::ValuePtr vp(value);
          dpm::LogRecord rec;
          size_t consumed = 0;
          st = dpm::DecodeEntry(dpm->pool()->Translate(vp.offset()),
                                vp.entry_size(), &rec, &consumed);
          if (!st.ok()) break;
          st = RetryTransient(
              [&] { return settle_if_busy(w->Put(rec.key, rec.value).status); });
          if (!st.ok()) break;
        }
        if (st.ok()) {
          st = RetryTransient(
              [&] { return settle_if_busy(w->FlushWrites().status); });
        }
        MutexLock lock(mu);
        if (!st.ok()) failed = st;
      });
      DINOMO_RETURN_IF_ERROR(failed);
      for (uint64_t owner : LogOwners({dest})) {
        DINOMO_RETURN_IF_ERROR(dpm->DrainOwner(owner));
      }
      for (const auto& [key_hash, value] : moved) {
        DINOMO_RETURN_IF_ERROR(from_index->Remove(key_hash).status());
        bytes += dpm::ValuePtr(value).entry_size();
      }
      keys += moved.size();
    }
  }
  rt_->Charge({bytes, keys * kMigratePerKeyUs, bytes * kMigrateUsPerByte});
  return Status::Ok();
}

}  // namespace reconfig
}  // namespace dinomo
