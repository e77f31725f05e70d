// The §3.5 reconfiguration protocol (core/reconfig) under both runtimes:
// the hang regressions of the virtual-time drive (a DPM kill or a log
// drain that meets a merge batch still in flight), one reconfiguration
// script run through the threaded Cluster and the virtual-time DinomoSim,
// and the routing push's postcondition: after every push no worker caches
// a key its KN does not own.
//
// The ReconfigHangTest cases run under a ctest TIMEOUT (tests/CMakeLists.txt)
// so that a regression fails instead of stalling the suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "dpm/log.h"
#include "load/arrival.h"
#include "load/traffic.h"
#include "obs/metrics.h"
#include "sim/dinomo_sim.h"
#include "workload/ycsb.h"

namespace dinomo {
namespace {

constexpr size_t kMiB = 1024 * 1024;
constexpr double kSecond = 1e6;

sim::DinomoSimOptions SimOptions(obs::MetricsRegistry* reg) {
  sim::DinomoSimOptions opt;
  opt.num_kns = 3;
  opt.dpm_nodes = 4;
  opt.replication_factor = 2;
  opt.dpm.pool_size = 256 * kMiB;
  opt.dpm.index_log2_buckets = 8;
  opt.dpm.segment_size = 512 * 1024;
  opt.kn.num_workers = 2;
  opt.kn.cache_bytes = 2 * kMiB;
  opt.dpm_threads = 2;
  opt.client_threads = 8;
  opt.spec = workload::WorkloadSpec::WriteHeavyUpdate(2000, 0.99);
  opt.spec.value_size = 256;
  opt.metrics = reg;
  return opt;
}

uint64_t PendingMerges(dpm::DpmPool* pool) {
  uint64_t pending = 0;
  for (int n = 0; n < pool->num_nodes(); ++n) {
    pending += pool->node(n)->merge()->TotalPendingBatches();
  }
  return pending;
}

TEST(ReconfigHangTest, SimDpmKillWithMergeInFlight) {
  obs::MetricsRegistry reg;
  sim::DinomoSim sim(SimOptions(&reg));
  sim.Preload();
  // Poll until a merge batch PumpMerges dequeued is waiting for its finish
  // event, then kill a DPM node at that instant.
  uint64_t in_flight_at_kill = 0;
  std::function<void()> probe = [&] {
    in_flight_at_kill = PendingMerges(sim.pool());
    if (in_flight_at_kill > 0) {
      sim.ScheduleDpmKill(sim.engine()->now_us(), /*node=*/1);
    } else {
      sim.engine()->ScheduleAfter(10.0, probe);
    }
  };
  sim.engine()->ScheduleAt(0.01 * kSecond, probe);
  sim.Run(0.05 * kSecond);
  EXPECT_GT(in_flight_at_kill, 0u);
  EXPECT_FALSE(sim.pool()->alive(1));
  EXPECT_EQ(reg.CounterValue("dpm.pool.promotions"), 1u);
  EXPECT_GT(reg.GaugeValue("dpm.pool.recovery_window_us"), 0.0);
  EXPECT_GT(sim.clients().ThroughputMops(), 0.0);
}

TEST(ReconfigHangTest, SimDrainLogsAfterOpenLoopWithMergeInFlight) {
  obs::MetricsRegistry reg;
  sim::DinomoSimOptions opt = SimOptions(&reg);
  opt.client_threads = 0;  // open loop only
  sim::DinomoSim sim(opt);
  sim.Preload();
  load::OpenLoopSpec spec;
  spec.seed = 7;
  load::TenantSpec tenant;
  tenant.spec = workload::WorkloadSpec::WriteHeavyUpdate(2000, 0.9);
  tenant.spec.value_size = 256;
  spec.tenants = {tenant};
  spec.horizon_us = 0.02 * kSecond;
  load::OpenLoopSource source(
      std::make_unique<load::PoissonProcess>(200e3, 7), spec);
  sim::DinomoSim::OpenLoopOptions run;
  run.source = &source;
  run.value_size = 256;
  sim.RunOpenLoop(run, 0.02 * kSecond);
  ASSERT_GT(PendingMerges(sim.pool()), 0u);

  sim.DrainLogs();
  for (int n = 0; n < sim.pool()->num_nodes(); ++n) {
    ASSERT_TRUE(sim.pool()->node(n)->merge()->DrainAll().ok());
  }
  EXPECT_EQ(PendingMerges(sim.pool()), 0u);
}

// ----- One script, both runtimes -----

std::string ValueFor(uint64_t rec) { return std::string(64, 'a' + rec % 26); }

// The value a key's current primary DPM node resolves it to.
Result<std::string> ReadFromDpm(dpm::DpmPool* pool, const std::string& key) {
  const uint64_t kh = kn::KeyHash(Slice(key));
  dpm::DpmNode* node = pool->node(pool->PlacementOf(kh).primary);
  const dpm::ValuePtr vp(node->index()->Lookup(kh));
  if (vp.null() || vp.indirect()) return Status::NotFound(key);
  dpm::LogRecord rec;
  size_t consumed = 0;
  DINOMO_RETURN_IF_ERROR(dpm::DecodeEntry(node->pool()->Translate(vp.offset()),
                                          vp.entry_size(), &rec, &consumed));
  return std::string(rec.value.data(), rec.value.size());
}

// What the two runtimes must agree on after each step.
struct RoutingView {
  std::vector<uint64_t> kns;
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> replicated;
  std::vector<uint64_t> primaries;  // primary owner of every record

  bool operator==(const RoutingView& o) const {
    return kns == o.kns && replicated == o.replicated &&
           primaries == o.primaries;
  }
};

constexpr uint64_t kRecords = 600;

RoutingView ViewOf(const cluster::RoutingTable& table,
                   std::vector<uint64_t> kns) {
  RoutingView v;
  v.kns = std::move(kns);
  for (const auto& [key_hash, owners] : table.replicated) {
    v.replicated.emplace_back(key_hash, owners);
  }
  std::sort(v.replicated.begin(), v.replicated.end());
  for (uint64_t rec = 0; rec < kRecords; ++rec) {
    v.primaries.push_back(table.PrimaryOwner(
        kn::KeyHash(Slice(workload::KeyForRecord(rec)))));
  }
  return v;
}

TEST(ReconfigProtocolTest, SameScriptSameRoutingInBothRuntimes) {
  const uint64_t hot = kn::KeyHash(Slice(workload::KeyForRecord(7)));
  constexpr int kDpmVictim = 2;

  // Threaded runtime.
  ClusterOptions copt;
  copt.dpm.pool_size = 256 * kMiB;
  copt.dpm.index_log2_buckets = 8;
  copt.dpm.segment_size = 256 * 1024;
  copt.kn.num_workers = 2;
  copt.kn.cache_bytes = 1 * kMiB;
  copt.initial_kns = 3;
  copt.dpm_nodes = 4;
  copt.replication_factor = 2;
  copt.dpm_merge_threads = 1;
  Cluster cluster(copt);
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient();
  for (uint64_t rec = 0; rec < kRecords; ++rec) {
    ASSERT_TRUE(client->Put(workload::KeyForRecord(rec), ValueFor(rec)).ok());
  }

  // Virtual-time runtime, same membership; its preload writes the same
  // keys. No client streams: only the script moves the clock.
  obs::MetricsRegistry reg;
  sim::DinomoSimOptions sopt = SimOptions(&reg);
  sopt.client_threads = 0;
  sopt.spec.record_count = kRecords;
  sopt.spec.value_size = 64;
  sim::DinomoSim sim(sopt);
  sim.Preload();
  const std::string sim_value(64, 'p');

  std::vector<RoutingView> cluster_views;
  std::vector<RoutingView> sim_views;
  auto snapshot = [&] {
    cluster_views.push_back(
        ViewOf(*cluster.routing()->Snapshot(), cluster.ActiveKns()));
    sim_views.push_back(ViewOf(*sim.routing()->Snapshot(), sim.ActiveKns()));
  };
  auto settle_sim = [&] { sim.Run(0.02 * kSecond); };

  // 1. Scale out.
  auto added = cluster.AddKn();
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  auto sim_added = sim.reconfig()->AddKn();
  ASSERT_TRUE(sim_added.ok()) << sim_added.status().ToString();
  EXPECT_EQ(added.value(), sim_added.value());
  snapshot();
  // 2. Replicate a hot key, 3. collapse it again.
  ASSERT_TRUE(cluster.ReplicateKeyHash(hot, 2).ok());
  ASSERT_TRUE(sim.reconfig()->ReplicateKey(hot, 2).ok());
  snapshot();
  ASSERT_TRUE(cluster.DereplicateKeyHash(hot).ok());
  ASSERT_TRUE(sim.reconfig()->DereplicateKey(hot).ok());
  snapshot();
  // 4. Scale in.
  const uint64_t leaving = cluster.ActiveKns()[1];
  ASSERT_TRUE(cluster.RemoveKn(leaving).ok());
  ASSERT_TRUE(sim.reconfig()->RemoveKn(leaving).ok());
  snapshot();
  // 5. Fail-stop a KN. Acked writes are durable once flushed; flush first
  // so the kill tests recovery, not the loss of un-flushed batches.
  for (uint64_t id : cluster.ActiveKns()) {
    cluster.kn(id)->RunOnAllWorkers(
        [](kn::KnWorker* w) { (void)w->FlushWrites(); });
  }
  sim.DrainLogs();
  const uint64_t victim = cluster.ActiveKns()[0];
  ASSERT_TRUE(cluster.KillKn(victim).ok());
  sim.ScheduleKill(sim.engine()->now_us(), /*kn_index=*/0);
  settle_sim();
  snapshot();
  // 6. Fail-stop a DPM node.
  ASSERT_TRUE(cluster.KillDpm(kDpmVictim).ok());
  sim.ScheduleDpmKill(sim.engine()->now_us(), kDpmVictim);
  settle_sim();
  snapshot();

  ASSERT_EQ(cluster_views.size(), sim_views.size());
  for (size_t step = 0; step < cluster_views.size(); ++step) {
    EXPECT_TRUE(cluster_views[step] == sim_views[step]) << "step " << step;
  }
  EXPECT_EQ(cluster_views[1].replicated.size(), 1u);
  EXPECT_TRUE(cluster_views.back().replicated.empty());
  EXPECT_EQ(cluster_views.back().kns.size(), 2u);

  // Every acked write reads back: through a client, and from the DPM in
  // both runtimes once the logs are flushed and merged.
  for (uint64_t rec = 0; rec < kRecords; ++rec) {
    auto got = client->Get(workload::KeyForRecord(rec));
    ASSERT_TRUE(got.ok()) << rec << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), ValueFor(rec));
  }
  for (uint64_t id : cluster.ActiveKns()) {
    cluster.kn(id)->RunOnAllWorkers(
        [](kn::KnWorker* w) { (void)w->FlushWrites(); });
  }
  sim.DrainLogs();
  for (dpm::DpmPool* pool : {cluster.dpm_pool(), sim.pool()}) {
    for (int n = 0; n < pool->num_nodes(); ++n) {
      if (!pool->alive(n)) continue;
      ASSERT_TRUE(pool->node(n)->merge()->DrainAll().ok());
    }
  }
  for (uint64_t rec = 0; rec < kRecords; ++rec) {
    const std::string key = workload::KeyForRecord(rec);
    auto in_cluster = ReadFromDpm(cluster.dpm_pool(), key);
    ASSERT_TRUE(in_cluster.ok()) << rec << ": " << in_cluster.status().ToString();
    EXPECT_EQ(in_cluster.value(), ValueFor(rec));
    auto in_sim = ReadFromDpm(sim.pool(), key);
    ASSERT_TRUE(in_sim.ok()) << rec << ": " << in_sim.status().ToString();
    EXPECT_EQ(in_sim.value(), sim_value);
  }
  cluster.Stop();
}

// ----- Routing-push postcondition, both runtimes -----

// One runtime, as the push script drives it.
struct PushHarness {
  std::function<std::vector<uint64_t>()> active_kns;
  std::function<void(uint64_t, const std::function<void(kn::KnWorker*)>&)>
      run_on_workers;
  std::function<std::shared_ptr<const cluster::RoutingTable>()> table;
  std::function<Status()> add_kn;
  std::function<Status(uint64_t, int)> replicate;
  std::function<Status(uint64_t)> dereplicate;
  std::function<Status(uint64_t)> remove_kn;
  std::function<Status(uint64_t)> kill_kn;  // the KN with this id
  // Fail-stops a DPM node. `mid_recovery` runs between the kill and the
  // recovery round where the runtime leaves a gap (the virtual-time
  // failure-detection delay, when workers already serve again).
  std::function<Status(int, const std::function<void()>& mid_recovery)>
      kill_dpm;
  std::function<int(uint64_t)> dpm_home;  // a key's primary DPM node
};

// Reads every record through a worker of each KN that owns it, so each
// worker's DAC and index cache hold the keys it serves (replicated keys
// included, on every owner).
void WarmCaches(PushHarness& d) {
  const auto table = d.table();
  for (uint64_t id : d.active_kns()) {
    d.run_on_workers(id, [&](kn::KnWorker* w) {
      for (uint64_t rec = 0; rec < kRecords; ++rec) {
        const std::string key = workload::KeyForRecord(rec);
        const uint64_t kh = kn::KeyHash(Slice(key));
        if (table->IsOwner(kh, id) &&
            table->ThreadFor(kh, id) == w->worker_idx()) {
          (void)w->Get(Slice(key));
        }
      }
    });
  }
}

// Cached keys of KN `id`'s workers for which `pred` holds; scans through
// InvalidateIf with a predicate that records and keeps every entry. The
// threaded runtime runs the workers concurrently.
size_t CountCached(PushHarness& d, uint64_t id,
                   const std::function<bool(uint64_t)>& pred) {
  std::atomic<size_t> n{0};
  auto count = [&](uint64_t key_hash) {
    if (pred(key_hash)) n.fetch_add(1, std::memory_order_relaxed);
    return false;
  };
  d.run_on_workers(id, [&](kn::KnWorker* w) {
    w->cache()->InvalidateIf(count);
    if (w->icache() != nullptr) w->icache()->InvalidateIf(count);
  });
  return n;
}

size_t CountAllCached(PushHarness& d) {
  size_t n = 0;
  for (uint64_t id : d.active_kns()) {
    n += CountCached(d, id, [](uint64_t) { return true; });
  }
  return n;
}

// The push postcondition (§3.4): no worker holds a key its KN lost.
void ExpectCachesHoldOnlyOwnedKeys(PushHarness& d, const std::string& step) {
  const auto table = d.table();
  for (uint64_t id : d.active_kns()) {
    EXPECT_EQ(CountCached(d, id,
                          [&](uint64_t kh) { return !table->IsOwner(kh, id); }),
              0u)
        << step << ": KN " << id << " caches keys it does not own";
  }
}

// Add KN, replicate, dereplicate, remove KN, kill KN, kill a DPM node,
// with warm caches before every step.
void RunPushScript(PushHarness& d) {
  const uint64_t hot_a = kn::KeyHash(Slice(workload::KeyForRecord(7)));
  const uint64_t hot_b = kn::KeyHash(Slice(workload::KeyForRecord(11)));
  auto step = [&](const std::string& name, const std::function<Status()>& fn) {
    WarmCaches(d);
    ASSERT_GT(CountAllCached(d), 0u) << name;
    const Status st = fn();
    ASSERT_TRUE(st.ok()) << name << ": " << st.ToString();
    ExpectCachesHoldOnlyOwnedKeys(d, name);
  };
  ASSERT_NO_FATAL_FAILURE(step("add KN", d.add_kn));
  ASSERT_NO_FATAL_FAILURE(step("replicate", [&] {
    DINOMO_RETURN_IF_ERROR(d.replicate(hot_a, 3));
    return d.replicate(hot_b, 3);
  }));
  ASSERT_NO_FATAL_FAILURE(
      step("dereplicate", [&] { return d.dereplicate(hot_a); }));
  ASSERT_NO_FATAL_FAILURE(
      step("remove KN", [&] { return d.remove_kn(d.active_kns()[1]); }));
  ASSERT_NO_FATAL_FAILURE(
      step("kill KN", [&] { return d.kill_kn(d.active_kns()[0]); }));
  // The DPM recovery collapses hot_b without invalidating it anywhere
  // itself: its push must drop it from every owner but the primary. The
  // kill empties every cache (placement failover), so the replica caches
  // hot_b again before the recovery round where the runtime allows it.
  ASSERT_TRUE(d.replicate(hot_b, 2).ok());
  const std::vector<uint64_t> owners = d.table()->OwnersOf(hot_b);
  ASSERT_EQ(owners.size(), 2u);
  auto replica_caches_hot_b = [&] {
    return CountCached(d, owners[1],
                       [&](uint64_t kh) { return kh == hot_b; }) > 0;
  };
  WarmCaches(d);
  ASSERT_TRUE(replica_caches_hot_b());
  const int victim = d.dpm_home(hot_b) == 2 ? 1 : 2;  // keep hot_b's slot
  ASSERT_NO_FATAL_FAILURE(step("kill DPM node", [&] {
    return d.kill_dpm(victim, [&] {
      WarmCaches(d);
      EXPECT_TRUE(replica_caches_hot_b());
    });
  }));
  EXPECT_TRUE(d.table()->replicated.empty());
}

TEST(ReconfigPushTest, ClusterCachesHoldOnlyOwnedKeysAfterEveryPush) {
  ClusterOptions copt;
  copt.dpm.pool_size = 256 * kMiB;
  copt.dpm.index_log2_buckets = 8;
  copt.dpm.segment_size = 256 * 1024;
  copt.kn.num_workers = 2;
  copt.kn.cache_bytes = 1 * kMiB;
  copt.initial_kns = 3;
  copt.dpm_nodes = 4;
  copt.replication_factor = 2;
  copt.dpm_merge_threads = 1;
  Cluster cluster(copt);
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient();
  for (uint64_t rec = 0; rec < kRecords; ++rec) {
    ASSERT_TRUE(client->Put(workload::KeyForRecord(rec), ValueFor(rec)).ok());
  }
  PushHarness d;
  d.active_kns = [&] { return cluster.ActiveKns(); };
  d.run_on_workers = [&](uint64_t id, const auto& fn) {
    cluster.kn(id)->RunOnAllWorkers(fn);
  };
  d.table = [&] { return cluster.routing()->Snapshot(); };
  d.add_kn = [&] { return cluster.AddKn().status(); };
  d.replicate = [&](uint64_t kh, int r) {
    return cluster.ReplicateKeyHash(kh, r);
  };
  d.dereplicate = [&](uint64_t kh) { return cluster.DereplicateKeyHash(kh); };
  d.remove_kn = [&](uint64_t id) { return cluster.RemoveKn(id); };
  d.kill_kn = [&](uint64_t id) { return cluster.KillKn(id); };
  d.kill_dpm = [&](int node, const std::function<void()>&) {
    return cluster.KillDpm(node);  // recovery runs inside the call
  };
  d.dpm_home = [&](uint64_t kh) {
    return cluster.dpm_pool()->PlacementOf(kh).primary;
  };
  RunPushScript(d);
  cluster.Stop();
}

TEST(ReconfigPushTest, FirstKnJoinsAfterAPushWithNoKns) {
  // A push can happen before any KN exists: in the threaded cluster the
  // fault enactor may run a DPM recovery round before Start adds the
  // KNs. The next push then compares against an empty ring.
  obs::MetricsRegistry reg;
  sim::DinomoSimOptions opt = SimOptions(&reg);
  opt.num_kns = 0;
  opt.client_threads = 0;
  sim::DinomoSim sim(opt);
  ASSERT_TRUE(sim.reconfig()->AddKn().ok());
  ASSERT_TRUE(sim.reconfig()->AddKn().ok());
  EXPECT_EQ(sim.NumActiveKns(), 2);
}

TEST(ReconfigPushTest, SimCachesHoldOnlyOwnedKeysAfterEveryPush) {
  obs::MetricsRegistry reg;
  sim::DinomoSimOptions sopt = SimOptions(&reg);
  sopt.client_threads = 0;
  sopt.spec.record_count = kRecords;
  sopt.spec.value_size = 64;
  sim::DinomoSim sim(sopt);
  sim.Preload();
  auto settle = [&] { sim.Run(0.02 * kSecond); };
  PushHarness d;
  d.active_kns = [&] { return sim.ActiveKns(); };
  d.run_on_workers = [&](uint64_t id, const auto& fn) {
    sim.RunOnWorkers(id, fn);
  };
  d.table = [&] { return sim.routing()->Snapshot(); };
  d.add_kn = [&] { return sim.reconfig()->AddKn().status(); };
  d.replicate = [&](uint64_t kh, int r) {
    return sim.reconfig()->ReplicateKey(kh, r);
  };
  d.dereplicate = [&](uint64_t kh) {
    return sim.reconfig()->DereplicateKey(kh);
  };
  d.remove_kn = [&](uint64_t id) { return sim.reconfig()->RemoveKn(id); };
  d.kill_kn = [&](uint64_t id) {
    const std::vector<uint64_t> kns = sim.ActiveKns();
    const auto at = std::find(kns.begin(), kns.end(), id);
    sim.ScheduleKill(sim.engine()->now_us(),
                     static_cast<int>(at - kns.begin()));
    settle();
    return sim.routing()->Snapshot()->global_ring.HasNode(id)
               ? Status::TimedOut("KN still in the ring")
               : Status::Ok();
  };
  d.kill_dpm = [&](int node, const std::function<void()>& mid_recovery) {
    sim.ScheduleDpmKill(sim.engine()->now_us(), node);
    sim.Run(1000.0);  // the kill; recovery follows the detection delay
    mid_recovery();
    settle();
    return sim.pool()->alive(node) ? Status::TimedOut("DPM node alive")
                                   : Status::Ok();
  };
  d.dpm_home = [&](uint64_t kh) {
    return sim.pool()->PlacementOf(kh).primary;
  };
  RunPushScript(d);
}

}  // namespace
}  // namespace dinomo
