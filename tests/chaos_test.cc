// Chaos tests for the fault-injection fabric (net/fault.h) and the
// hardened request path.
//
// Three layers:
//  * unit tests of the injector itself — determinism (a (schedule, seed)
//    pair replays the identical decision sequence), event filtering,
//    fail-stop claiming — and of the client backoff policy;
//  * targeted cluster tests: the request deadline actually bounds a
//    request whose RPCs are always rejected, and failing a KN with
//    requests in flight never leaves a client future hanging (the
//    regression that motivated the KvsNode drain guarantee);
//  * the soak: ≥20 seeded random fault schedules, each run against a live
//    cluster with concurrent writers/readers, checked for per-key version
//    monotonicity (the observable consequence of linearizability under a
//    single writer), eventual recovery of every acknowledged write, and
//    zero hung or leaked requests.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "core/cluster.h"
#include "dpm/log.h"
#include "kn/kn_worker.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "sim/dinomo_sim.h"
#include "workload/ycsb.h"

namespace dinomo {
namespace {

constexpr size_t kMiB = 1024 * 1024;

// CI runs the soaks at reduced depth per PR (DINOMO_SOAK_SEEDS=4) and at
// the full default in the nightly job.
int SoakSeeds() {
  if (const char* env = std::getenv("DINOMO_SOAK_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 20;
}

// ---------------------------------------------------------------------
// FaultInjector unit tests
// ---------------------------------------------------------------------

// Encodes one decision step so whole sequences compare with ==.
std::vector<int> DecisionTrace(net::FaultInjector* inj, int ops) {
  std::vector<int> trace;
  trace.reserve(ops * 3);
  for (int i = 0; i < ops; ++i) {
    const net::FaultDecision d = inj->OnOneSided(i % 4);
    trace.push_back(static_cast<int>(d.action));
    trace.push_back(static_cast<int>(d.delay_us));
    const Status s = inj->OnRpc(i % 4);
    trace.push_back(s.ok() ? 0 : (s.IsUnavailable() ? 1 : 2));
  }
  return trace;
}

net::FaultSchedule MixedSchedule(uint64_t seed) {
  net::FaultSchedule sched;
  sched.seed = seed;
  sched.Delay(-1, 0.3, /*delay_us=*/7.0)
      .Drop(-1, 0.1)
      .Duplicate(-1, 0.2)
      .RpcUnavailable(-1, 0.15)
      .RpcBusy(-1, 0.15);
  return sched;
}

TEST(FaultInjectorTest, SameSeedReplaysIdenticalSequence) {
  net::FaultInjector a(MixedSchedule(99));
  net::FaultInjector b(MixedSchedule(99));
  const auto ta = DecisionTrace(&a, 500);
  const auto tb = DecisionTrace(&b, 500);
  EXPECT_EQ(ta, tb);
  // ... and the sequence is not degenerate: several distinct outcomes.
  bool saw_fault = false;
  for (int v : ta) saw_fault |= (v != 0);
  EXPECT_TRUE(saw_fault);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  net::FaultInjector a(MixedSchedule(1));
  net::FaultInjector b(MixedSchedule(2));
  EXPECT_NE(DecisionTrace(&a, 500), DecisionTrace(&b, 500));
}

TEST(FaultInjectorTest, ZeroProbabilityEventDoesNotPerturbSequence) {
  net::FaultSchedule with_inert = MixedSchedule(7);
  with_inert.Drop(-1, /*probability=*/0.0);
  net::FaultInjector a(MixedSchedule(7));
  net::FaultInjector b(with_inert);
  EXPECT_EQ(DecisionTrace(&a, 500), DecisionTrace(&b, 500));
}

TEST(FaultInjectorTest, NodeAndWindowFiltering) {
  double now = 0.0;
  net::FaultSchedule sched;
  sched.Delay(/*node=*/2, /*probability=*/1.0, /*delay_us=*/5.0,
              /*start_us=*/100.0, /*end_us=*/200.0);
  net::FaultInjector inj(sched);
  inj.SetClock([&now] { return now; });

  // Outside the window: nothing fires even for the targeted node.
  EXPECT_EQ(inj.OnOneSided(2).action, net::FaultDecision::Action::kNone);
  now = 150.0;
  // Inside the window, wrong node: nothing.
  EXPECT_EQ(inj.OnOneSided(3).action, net::FaultDecision::Action::kNone);
  // Inside the window, right node: fires with p=1.
  const net::FaultDecision d = inj.OnOneSided(2);
  EXPECT_EQ(d.action, net::FaultDecision::Action::kDelay);
  EXPECT_EQ(d.delay_us, 5.0);
  now = 250.0;
  EXPECT_EQ(inj.OnOneSided(2).action, net::FaultDecision::Action::kNone);
}

TEST(FaultInjectorTest, MaxCountCapsInjections) {
  net::FaultSchedule sched;
  sched.Drop(-1, 1.0);
  sched.events.back().max_count = 3;
  net::FaultInjector inj(sched);
  int drops = 0;
  for (int i = 0; i < 100; ++i) {
    if (inj.OnOneSided(0).action == net::FaultDecision::Action::kDrop) {
      drops++;
    }
  }
  EXPECT_EQ(drops, 3);
}

TEST(FaultInjectorTest, DropSkippedWhereNotAllowed) {
  net::FaultSchedule sched;
  sched.Drop(-1, 1.0);
  net::FaultInjector inj(sched);
  // The RPC-charge path cannot model a drop as a clean rejection.
  EXPECT_EQ(inj.OnOneSided(0, /*allow_drop=*/false).action,
            net::FaultDecision::Action::kNone);
  EXPECT_EQ(inj.OnOneSided(0, /*allow_drop=*/true).action,
            net::FaultDecision::Action::kDrop);
}

TEST(FaultInjectorTest, FailStopClaimedExactlyOnce) {
  double now = 0.0;
  net::FaultSchedule sched;
  sched.FailStop(/*node=*/5, /*at_us=*/1000.0);
  net::FaultInjector inj(sched);
  inj.SetClock([&now] { return now; });

  EXPECT_EQ(inj.NextFailStopAtUs(), 1000.0);
  EXPECT_EQ(inj.ClaimFailStop(), -1);  // not due yet
  now = 1500.0;
  EXPECT_EQ(inj.ClaimFailStop(), 5);   // due: claimed by this caller
  EXPECT_EQ(inj.ClaimFailStop(), -1);  // one-shot
  EXPECT_TRUE(std::isinf(inj.NextFailStopAtUs()));
}

TEST(FaultInjectorTest, ChaosSchedulesAreDeterministicAndFailStopFree) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const auto a = net::FaultSchedule::Chaos(seed, 4, 100e3);
    const auto b = net::FaultSchedule::Chaos(seed, 4, 100e3);
    ASSERT_EQ(a.events.size(), b.events.size());
    ASSERT_FALSE(a.empty());
    for (size_t i = 0; i < a.events.size(); ++i) {
      EXPECT_EQ(static_cast<int>(a.events[i].kind),
                static_cast<int>(b.events[i].kind));
      EXPECT_EQ(a.events[i].probability, b.events[i].probability);
      EXPECT_EQ(a.events[i].start_us, b.events[i].start_us);
      EXPECT_NE(a.events[i].kind, net::FaultEvent::Kind::kFailStop);
    }
  }
}

// ---------------------------------------------------------------------
// Backoff / status unit tests
// ---------------------------------------------------------------------

TEST(BackoffTest, GrowsGeometricallyToCapWithoutJitter) {
  Backoff b(BackoffOptions{100.0, 1000.0, 2.0, /*jitter=*/0.0}, 1);
  EXPECT_EQ(b.NextDelayUs(), 100.0);
  EXPECT_EQ(b.NextDelayUs(), 200.0);
  EXPECT_EQ(b.NextDelayUs(), 400.0);
  EXPECT_EQ(b.NextDelayUs(), 800.0);
  EXPECT_EQ(b.NextDelayUs(), 1000.0);
  EXPECT_EQ(b.NextDelayUs(), 1000.0);
  b.Reset();
  EXPECT_EQ(b.NextDelayUs(), 100.0);
}

TEST(BackoffTest, JitterIsSeededAndBounded) {
  Backoff a(BackoffOptions{100.0, 10'000.0, 2.0, 0.5}, 42);
  Backoff b(BackoffOptions{100.0, 10'000.0, 2.0, 0.5}, 42);
  double base = 100.0;
  for (int i = 0; i < 8; ++i) {
    const double da = a.NextDelayUs();
    EXPECT_EQ(da, b.NextDelayUs());  // same seed, same jitter
    EXPECT_GE(da, base * 0.5 - 1e-9);
    EXPECT_LE(da, base + 1e-9);
    base = std::min(base * 2.0, 10'000.0);
  }
}

TEST(BackoffTest, TransientClassification) {
  EXPECT_TRUE(IsTransient(Status::Unavailable("x")));
  EXPECT_TRUE(IsTransient(Status::Busy("x")));
  EXPECT_TRUE(IsTransient(Status::TimedOut("x")));
  // DeadlineExceeded is terminal: the budget is spent.
  EXPECT_FALSE(IsTransient(Status::DeadlineExceeded("x")));
  EXPECT_FALSE(IsTransient(Status::NotFound("x")));
  EXPECT_FALSE(IsTransient(Status::Ok()));
}

TEST(StatusTest, DeadlineExceededBasics) {
  const Status s = Status::DeadlineExceeded("budget spent");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsDeadlineExceeded());
  EXPECT_FALSE(s.IsTimedOut());
  EXPECT_NE(s.ToString().find("DeadlineExceeded"), std::string::npos);
}

// ---------------------------------------------------------------------
// Cluster-level fault tests
// ---------------------------------------------------------------------

ClusterOptions SmallCluster(int kns, obs::MetricsRegistry* reg) {
  ClusterOptions opt;
  opt.dpm.pool_size = 256 * kMiB;
  opt.dpm.index_log2_buckets = 6;
  opt.dpm.segment_size = 256 * 1024;
  opt.dpm.metrics = reg;
  opt.kn.num_workers = 2;
  opt.kn.cache_bytes = 1 * kMiB;
  opt.kn.batch_max_ops = 4;
  opt.kn.metrics = reg;
  opt.initial_kns = kns;
  opt.dpm_merge_threads = 1;
  return opt;
}

TEST(ClusterFaultTest, DeadlineBoundsRequestWhoseRpcsAllFail) {
  obs::MetricsRegistry reg;
  ClusterOptions opt = SmallCluster(1, &reg);
  opt.request_deadline_us = 30'000.0;  // 30 ms budget
  opt.faults.RpcUnavailable(-1, /*probability=*/1.0);
  Cluster cluster(opt);
  ASSERT_TRUE(cluster.Start().ok());

  auto client = cluster.NewClient();
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = client->Put("k", "v");  // needs a segment RPC: rejected
  const double elapsed_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  // The deadline is honored: the whole retry loop fits the budget with
  // generous scheduling slack, instead of the old 200-attempt spin.
  EXPECT_GE(elapsed_us, opt.request_deadline_us * 0.5);
  EXPECT_LE(elapsed_us, opt.request_deadline_us + 2e6);
  cluster.Stop();

  EXPECT_GE(reg.CounterValue("fault.deadline_exceeded"), 1u);
  EXPECT_GT(reg.CounterValue("fault.injected.rpc_unavailable"), 0u);
  EXPECT_EQ(reg.CounterValue("fault.hung_requests"), 0u);
}

// Regression: KvsNode::Fail() used to close the worker queues without
// draining them, so a request whose `done` callback was queued but never
// run left its client future hanging forever. Every submitted request
// must now complete — with Unavailable at worst — and the client either
// succeeds on another KN or sees DeadlineExceeded.
TEST(ClusterFaultTest, FailingKnWithRequestsInFlightHangsNoClient) {
  obs::MetricsRegistry reg;
  ClusterOptions opt = SmallCluster(2, &reg);
  opt.request_deadline_us = 50'000.0;
  Cluster cluster(opt);
  ASSERT_TRUE(cluster.Start().ok());

  constexpr int kKeys = 32;
  {
    auto client = cluster.NewClient();
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(client->Put("k" + std::to_string(i), "0").ok());
    }
  }
  for (uint64_t id : cluster.ActiveKns()) {
    cluster.kn(id)->RunOnAllWorkers(
        [](kn::KnWorker* w) { (void)w->FlushWrites(); });
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> bad_status{false};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 4; ++t) {
    traffic.emplace_back([&, t] {
      auto client = cluster.NewClient();
      uint64_t v = 1;
      while (!stop.load(std::memory_order_acquire)) {
        const std::string key = "k" + std::to_string((t * 7 + v) % kKeys);
        const Status put = client->Put(key, std::to_string(v));
        if (!put.ok() && !put.IsDeadlineExceeded()) bad_status = true;
        const auto got = client->Get(key);
        if (!got.ok() && !got.status().IsDeadlineExceeded() &&
            !got.status().IsNotFound()) {
          bad_status = true;
        }
        v++;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(cluster.KillKn(cluster.ActiveKns()[0]).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop = true;
  // The join itself is the regression check: with the pre-drain code a
  // traffic thread wedges inside future.get() and this never returns.
  for (auto& t : traffic) t.join();
  EXPECT_FALSE(bad_status.load());

  for (uint64_t id : cluster.ActiveKns()) {
    EXPECT_EQ(cluster.kn(id)->in_flight(), 0) << "kn " << id;
  }
  cluster.Stop();
}

// ---------------------------------------------------------------------
// The soak: ≥20 random schedules, linearizability + recovery + no leaks
// ---------------------------------------------------------------------

TEST(ChaosTest, RandomFaultSchedulesPreserveLinearizability) {
  const int kSeeds = SoakSeeds();
  constexpr int kKeys = 8;
  constexpr auto kTraffic = std::chrono::milliseconds(60);

  for (uint64_t seed = 1; seed <= static_cast<uint64_t>(kSeeds); ++seed) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    obs::MetricsRegistry reg;  // private: fault.* gates are per-iteration
    ClusterOptions opt = SmallCluster(3, &reg);
    opt.request_deadline_us = 50'000.0;
    opt.faults = net::FaultSchedule::Chaos(seed, /*num_nodes=*/4,
                                           /*horizon_us=*/150e3);
    Cluster cluster(opt);
    ASSERT_TRUE(cluster.Start().ok());

    // One writer bumps every key once per round and only advances after
    // an acknowledged Put; a DeadlineExceeded outcome is unknown, so the
    // same (key, version) is re-put — idempotent, monotonicity-safe.
    std::array<std::atomic<uint64_t>, kKeys> acked{};
    std::atomic<bool> stop{false};
    std::atomic<bool> violation{false};

    std::thread writer([&] {
      auto client = cluster.NewClient();
      uint64_t v = 1;
      while (!stop.load(std::memory_order_acquire)) {
        for (int k = 0; k < kKeys; ++k) {
          for (;;) {
            if (stop.load(std::memory_order_acquire)) return;
            const Status st =
                client->Put("key" + std::to_string(k), std::to_string(v));
            if (st.ok()) {
              acked[k].store(v, std::memory_order_release);
              break;
            }
            if (!st.IsDeadlineExceeded() && !IsTransient(st)) {
              violation = true;
              return;
            }
          }
        }
        v++;
      }
    });

    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&] {
        auto client = cluster.NewClient();
        std::array<uint64_t, kKeys> last_seen{};
        while (!stop.load(std::memory_order_acquire)) {
          for (int k = 0; k < kKeys; ++k) {
            const auto got = client->Get("key" + std::to_string(k));
            if (!got.ok()) {
              // Not written yet, or a transient/deadline failure: fine.
              if (!got.status().IsNotFound() &&
                  !got.status().IsDeadlineExceeded() &&
                  !IsTransient(got.status())) {
                violation = true;
                return;
              }
              continue;
            }
            const uint64_t seen = std::stoull(got.value());
            if (seen < last_seen[k]) {  // travelled back in time
              violation = true;
              return;
            }
            last_seen[k] = seen;
          }
        }
      });
    }

    std::this_thread::sleep_for(kTraffic);
    stop = true;
    writer.join();
    for (auto& t : readers) t.join();
    ASSERT_FALSE(violation.load());

    // Half the seeds also fail-stop a KN. Group commit means acked but
    // unflushed writes may die with the node (by design), so flush every
    // worker first — after that, every acknowledged write must survive.
    if (seed % 2 == 0) {
      for (uint64_t id : cluster.ActiveKns()) {
        cluster.kn(id)->RunOnAllWorkers([](kn::KnWorker* w) {
          for (int i = 0; i < 100; ++i) {
            if (w->FlushWrites().status.ok()) break;
          }
        });
      }
      ASSERT_TRUE(cluster.KillKn(cluster.ActiveKns()[0]).ok());
    }

    // Eventual recovery: every key converges to its acknowledged version
    // (or one past it — a final un-acked attempt may have committed).
    auto client = cluster.NewClient();
    for (int k = 0; k < kKeys; ++k) {
      const uint64_t want = acked[k].load(std::memory_order_acquire);
      if (want == 0) continue;
      Result<std::string> got = Status::Unavailable("not yet read");
      for (int tries = 0; tries < 200 && !got.ok(); ++tries) {
        got = client->Get("key" + std::to_string(k));
        if (!got.ok()) {
          ASSERT_TRUE(got.status().IsDeadlineExceeded() ||
                      IsTransient(got.status()))
              << got.status().ToString();
        }
      }
      ASSERT_TRUE(got.ok()) << "key" << k << " never recovered";
      const uint64_t final_v = std::stoull(got.value());
      EXPECT_GE(final_v, want) << "key" << k;
      EXPECT_LE(final_v, want + 1) << "key" << k;
    }

    // No hung futures: nothing in flight on any surviving node, and the
    // injector's leak accounting (run by Stop) stays zero.
    for (uint64_t id : cluster.ActiveKns()) {
      EXPECT_EQ(cluster.kn(id)->in_flight(), 0) << "kn " << id;
    }
    cluster.Stop();
    EXPECT_EQ(reg.CounterValue("fault.hung_requests"), 0u);
  }
}

// ---------------------------------------------------------------------
// The replication soak: random schedules PLUS a DPM fail-stop mid-traffic
// ---------------------------------------------------------------------

// Same harness as the KN soak, but the cluster runs a replicated DPM pool
// (4 nodes, rf=2) and every seed fail-stops one DPM node while writers and
// readers are live. The enactor kills the node, routing promotes its
// mirrors, KNs retry through the generation bump, and re-replication
// restores the mirror count — all mid-traffic. Checked: per-key version
// monotonicity throughout, every acknowledged write readable afterwards
// (zero lost acked writes), the fail-stop actually fired, promotions
// happened, a recovery window was measured, and no request leaked.
TEST(ChaosReplicationTest, DpmKillSoakPreservesAckedWrites) {
  const int kSeeds = SoakSeeds();
  constexpr int kKeys = 8;
  constexpr auto kTraffic = std::chrono::milliseconds(60);

  for (uint64_t seed = 1; seed <= static_cast<uint64_t>(kSeeds); ++seed) {
    SCOPED_TRACE("dpm-kill seed " + std::to_string(seed));
    obs::MetricsRegistry reg;
    ClusterOptions opt = SmallCluster(2, &reg);
    opt.dpm.pool_size = 128 * kMiB;  // x4 nodes
    opt.dpm_nodes = 4;
    opt.replication_factor = 2;
    opt.request_deadline_us = 50'000.0;
    opt.faults = net::FaultSchedule::Chaos(seed, /*num_nodes=*/4,
                                           /*horizon_us=*/150e3);
    opt.faults.DpmFailStop(static_cast<int>(seed % 4), /*at_us=*/30e3);
    Cluster cluster(opt);
    ASSERT_TRUE(cluster.Start().ok());

    std::array<std::atomic<uint64_t>, kKeys> acked{};
    std::atomic<bool> stop{false};
    std::atomic<bool> violation{false};

    std::thread writer([&] {
      auto client = cluster.NewClient();
      uint64_t v = 1;
      while (!stop.load(std::memory_order_acquire)) {
        for (int k = 0; k < kKeys; ++k) {
          for (;;) {
            if (stop.load(std::memory_order_acquire)) return;
            const Status st =
                client->Put("key" + std::to_string(k), std::to_string(v));
            if (st.ok()) {
              acked[k].store(v, std::memory_order_release);
              break;
            }
            if (!st.IsDeadlineExceeded() && !IsTransient(st)) {
              violation = true;
              return;
            }
          }
        }
        v++;
      }
    });

    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&] {
        auto client = cluster.NewClient();
        std::array<uint64_t, kKeys> last_seen{};
        while (!stop.load(std::memory_order_acquire)) {
          for (int k = 0; k < kKeys; ++k) {
            const auto got = client->Get("key" + std::to_string(k));
            if (!got.ok()) {
              if (!got.status().IsNotFound() &&
                  !got.status().IsDeadlineExceeded() &&
                  !IsTransient(got.status())) {
                violation = true;
                return;
              }
              continue;
            }
            const uint64_t seen = std::stoull(got.value());
            if (seen < last_seen[k]) {
              violation = true;
              return;
            }
            last_seen[k] = seen;
          }
        }
      });
    }

    std::this_thread::sleep_for(kTraffic);
    stop = true;
    writer.join();
    for (auto& t : readers) t.join();
    ASSERT_FALSE(violation.load());

    // Zero lost acked writes: the KNs survived the DPM kill, so even
    // still-buffered acknowledged writes must converge — no flush pass is
    // granted before checking, unlike the KN-kill soak.
    auto client = cluster.NewClient();
    for (int k = 0; k < kKeys; ++k) {
      const uint64_t want = acked[k].load(std::memory_order_acquire);
      if (want == 0) continue;
      Result<std::string> got = Status::Unavailable("not yet read");
      for (int tries = 0; tries < 200 && !got.ok(); ++tries) {
        got = client->Get("key" + std::to_string(k));
        if (!got.ok()) {
          ASSERT_TRUE(got.status().IsDeadlineExceeded() ||
                      IsTransient(got.status()))
              << got.status().ToString();
        }
      }
      ASSERT_TRUE(got.ok()) << "key" << k << " never recovered";
      const uint64_t final_v = std::stoull(got.value());
      EXPECT_GE(final_v, want) << "key" << k;
      EXPECT_LE(final_v, want + 1) << "key" << k;
    }

    for (uint64_t id : cluster.ActiveKns()) {
      EXPECT_EQ(cluster.kn(id)->in_flight(), 0) << "kn " << id;
    }
    cluster.Stop();

    EXPECT_EQ(reg.CounterValue("fault.dpm_failstops"), 1u);
    EXPECT_GE(reg.CounterValue("dpm.pool.promotions"), 1u);
    EXPECT_GT(reg.GaugeValue("dpm.pool.recovery_window_us"), 0.0);
    EXPECT_EQ(reg.CounterValue("fault.hung_requests"), 0u);
  }
}

// True iff the key resolves to a decodable committed entry on `node`
// (merges drained first by the caller).
bool KeyResolves(dpm::DpmNode* node, uint64_t key_hash) {
  const pm::PmPtr raw = node->index()->Lookup(key_hash);
  if (raw == pm::kNullPmPtr) return false;
  const dpm::ValuePtr vp(raw);
  std::string buf(vp.entry_size(), '\0');
  node->fabric()->Read(0, vp.offset(), buf.data(), buf.size());
  dpm::LogRecord rec;
  size_t consumed = 0;
  return dpm::DecodeEntry(buf.data(), buf.size(), &rec, &consumed).ok();
}

// The DPM kill in virtual time: a small DinomoSim on a replicated pool
// (4 nodes, rf=2) fail-stops one DPM node at a seed-dependent instant
// while the closed loop runs. The audit is fig8's DINOMO+dpmkill pass:
// after the KN log buffers are flushed and every merge is drained, each
// preloaded record (all acked; later updates only overwrite) resolves on
// its current primary and on its mirror.
TEST(ChaosReplicationTest, SimDpmKillSoakPreservesAckedWrites) {
  const int kSeeds = SoakSeeds();
  constexpr uint64_t kRecords = 1000;
  constexpr double kRunUs = 60e3;

  for (uint64_t seed = 1; seed <= static_cast<uint64_t>(kSeeds); ++seed) {
    SCOPED_TRACE("sim dpm-kill seed " + std::to_string(seed));
    obs::MetricsRegistry reg;
    sim::DinomoSimOptions opt;
    opt.num_kns = 2;
    opt.dpm.pool_size = 16 * kMiB;  // x4 nodes
    opt.dpm.index_log2_buckets = 8;
    opt.dpm.segment_size = 256 * 1024;
    opt.dpm_nodes = 4;
    opt.replication_factor = 2;
    opt.kn.num_workers = 2;
    opt.kn.cache_bytes = 1 * kMiB;
    opt.dpm_threads = 2;
    opt.client_threads = 8;
    opt.spec = workload::WorkloadSpec::WriteHeavyUpdate(kRecords, 0.99);
    opt.spec.value_size = 128;
    opt.request_timeout_us = 10e3;
    opt.seed = seed;
    opt.metrics = &reg;
    const int victim = static_cast<int>(seed % 4);
    opt.faults.seed = seed;
    // Killed 10-40 ms in, so detection (5 ms) and recovery land in the run.
    opt.faults.DpmFailStop(victim, /*at_us=*/10e3 + (seed * 7919) % 30'000);
    sim::DinomoSim sim(opt);
    sim.Preload();
    sim.Run(kRunUs);

    dpm::DpmPool* pool = sim.pool();
    ASSERT_FALSE(pool->alive(victim));
    EXPECT_EQ(reg.CounterValue("fault.dpm_failstops"), 1u);
    EXPECT_EQ(reg.CounterValue("dpm.pool.promotions"), 1u);
    EXPECT_GT(reg.GaugeValue("dpm.pool.recovery_window_us"), 0.0);
    EXPECT_GT(sim.clients().ThroughputMops(), 0.0);

    pool->SetFaultInjector(nullptr);
    sim.DrainLogs();
    for (int n = 0; n < pool->num_nodes(); ++n) {
      if (!pool->alive(n)) continue;
      ASSERT_TRUE(pool->node(n)->merge()->DrainAll().ok()) << "node " << n;
    }
    uint64_t lost = 0;
    uint64_t unmirrored = 0;
    for (uint64_t rec = 0; rec < kRecords; ++rec) {
      const uint64_t kh = kn::KeyHash(workload::KeyForRecord(rec));
      const dpm::DpmPlacement pl = pool->PlacementOf(kh);
      if (!pool->alive(pl.primary) ||
          !KeyResolves(pool->node(pl.primary), kh)) {
        lost++;
      } else if (pl.mirror < 0 || !KeyResolves(pool->node(pl.mirror), kh)) {
        unmirrored++;
      }
    }
    EXPECT_EQ(lost, 0u);
    EXPECT_EQ(unmirrored, 0u);
  }
}

}  // namespace
}  // namespace dinomo
