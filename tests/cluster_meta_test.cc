#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/routing.h"
#include "common/hash.h"
#include "common/random.h"
#include "mnode/policy.h"

namespace dinomo {
namespace cluster {

// Places a node at chosen ring positions, so a test can force collisions.
class HashRingTestPeer {
 public:
  static void Place(HashRing* ring, uint64_t node,
                    const std::vector<uint64_t>& candidates) {
    ring->Place(node, candidates);
  }
};

}  // namespace cluster

namespace {

using cluster::HashRing;
using cluster::RoutingService;
using cluster::RoutingTable;

// ----- HashRing -----

TEST(HashRingTest, SingleNodeOwnsEverything) {
  HashRing ring;
  ring.AddNode(1);
  Random rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(ring.OwnerOf(rng.Next()), 1u);
  }
}

TEST(HashRingTest, OwnershipIsAPartition) {
  HashRing ring;
  for (uint64_t n = 1; n <= 8; ++n) ring.AddNode(n);
  Random rng(2);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t owner = ring.OwnerOf(rng.Next());
    EXPECT_GE(owner, 1u);
    EXPECT_LE(owner, 8u);
  }
}

TEST(HashRingTest, SharesAreRoughlyBalanced) {
  HashRing ring(/*virtual_nodes=*/128);
  for (uint64_t n = 1; n <= 8; ++n) ring.AddNode(n);
  auto shares = ring.OwnershipShares();
  ASSERT_EQ(shares.size(), 8u);
  double total = 0.0;
  for (const auto& [node, share] : shares) {
    EXPECT_GT(share, 0.04);  // ideal 0.125; allow wide variance
    EXPECT_LT(share, 0.30);
    total += share;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(HashRingTest, AddingNodeMovesBoundedFraction) {
  HashRing ring(128);
  for (uint64_t n = 1; n <= 8; ++n) ring.AddNode(n);
  Random rng(3);
  std::vector<uint64_t> keys;
  std::vector<uint64_t> owners_before;
  for (int i = 0; i < 5000; ++i) {
    keys.push_back(rng.Next());
    owners_before.push_back(ring.OwnerOf(keys.back()));
  }
  ring.AddNode(9);
  int moved = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t owner = ring.OwnerOf(keys[i]);
    if (owner != owners_before[i]) {
      // Consistent hashing: keys only ever move TO the new node.
      EXPECT_EQ(owner, 9u);
      moved++;
    }
  }
  // Ideal share for the 9th node is 1/9 ~ 11%; allow generous slack.
  EXPECT_GT(moved, 100);
  EXPECT_LT(moved, static_cast<int>(keys.size()) / 4);
}

TEST(HashRingTest, RemoveRestoresPriorOwnership) {
  HashRing ring(64);
  for (uint64_t n = 1; n <= 4; ++n) ring.AddNode(n);
  Random rng(4);
  std::vector<uint64_t> keys;
  std::vector<uint64_t> before;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back(rng.Next());
    before.push_back(ring.OwnerOf(keys.back()));
  }
  ring.AddNode(5);
  ring.RemoveNode(5);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(ring.OwnerOf(keys[i]), before[i]);
  }
}

TEST(HashRingTest, DuplicateAddIsNoop) {
  HashRing ring;
  ring.AddNode(1);
  ring.AddNode(1);
  ring.AddNode(2);
  EXPECT_EQ(ring.NumNodes(), 2u);
  ring.RemoveNode(1);
  EXPECT_FALSE(ring.HasNode(1));
  EXPECT_TRUE(ring.HasNode(2));
}

// ----- HashRing layout, against a reference std::map ring -----

constexpr uint64_t kMaxHash = std::numeric_limits<uint64_t>::max();

std::vector<uint64_t> Candidates(uint64_t node, int virtual_nodes) {
  std::vector<uint64_t> out;
  for (int v = 0; v < virtual_nodes; ++v) {
    out.push_back(HashSeeded(&node, sizeof(node), static_cast<uint64_t>(v)));
  }
  return out;
}

// The ring as an ordered map from point to node: the textbook layout.
struct ReferenceRing {
  std::map<uint64_t, uint64_t> points;
  std::set<uint64_t> nodes;

  void Place(uint64_t node, const std::vector<uint64_t>& candidates) {
    if (!nodes.insert(node).second) return;
    for (uint64_t p : candidates) {
      while (points.count(p) != 0) p = Mix64(p + 1);
      points[p] = node;
    }
  }
  void Remove(uint64_t node) {
    if (nodes.erase(node) == 0) return;
    for (auto it = points.begin(); it != points.end();) {
      it = it->second == node ? points.erase(it) : std::next(it);
    }
  }
  std::map<uint64_t, uint64_t>::const_iterator Slot(uint64_t key) const {
    auto it = points.lower_bound(key);
    return it == points.end() ? points.begin() : it;
  }
  uint64_t OwnerOf(uint64_t key) const { return Slot(key)->second; }
  std::vector<uint64_t> OwnersOf(uint64_t key, size_t n) const {
    std::vector<uint64_t> out;
    if (points.empty()) return out;
    auto it = Slot(key);
    for (size_t steps = 0; steps < points.size() && out.size() < n;
         ++steps) {
      if (std::find(out.begin(), out.end(), it->second) == out.end()) {
        out.push_back(it->second);
      }
      if (++it == points.end()) it = points.begin();
    }
    return out;
  }
};

// The hashes worth probing: random ones, every point and its neighbours,
// and both ends of the hash space.
std::vector<uint64_t> Probes(const ReferenceRing& ref, uint64_t seed) {
  std::vector<uint64_t> keys{0, 1, kMaxHash - 1, kMaxHash};
  for (const auto& [point, node] : ref.points) {
    keys.insert(keys.end(), {point - 1, point, point + 1});
  }
  Random rng(seed);
  for (int i = 0; i < 500; ++i) keys.push_back(rng.Next());
  return keys;
}

void ExpectSameLayout(const HashRing& ring, const ReferenceRing& ref,
                      uint64_t seed) {
  ASSERT_EQ(ring.NumNodes(), ref.nodes.size());
  EXPECT_EQ(ring.Nodes(),
            std::vector<uint64_t>(ref.nodes.begin(), ref.nodes.end()));
  for (uint64_t node : ref.nodes) EXPECT_TRUE(ring.HasNode(node));
  if (ref.points.empty()) {
    EXPECT_TRUE(ring.empty());
    EXPECT_TRUE(ring.OwnersOf(42, 3).empty());
    return;
  }
  for (uint64_t key : Probes(ref, seed)) {
    ASSERT_EQ(ring.OwnerOf(key), ref.OwnerOf(key)) << "key " << key;
    for (size_t n = 1; n <= ref.nodes.size() + 1; ++n) {
      ASSERT_EQ(ring.OwnersOf(key, n), ref.OwnersOf(key, n))
          << "key " << key << " n " << n;
    }
  }
  // Shares: the same arcs summed in the same (ascending) order.
  std::map<uint64_t, double> shares;
  uint64_t prev = ref.points.rbegin()->first;
  bool first = true;
  for (const auto& [point, node] : ref.points) {
    const uint64_t span = first ? point + (~prev) + 1 : point - prev;
    shares[node] += span / 18446744073709551615.0;
    prev = point;
    first = false;
  }
  EXPECT_EQ(ring.OwnershipShares(), shares);
}

TEST(HashRingLayoutTest, MatchesReferenceUnderChurn) {
  constexpr int kVnodes = 16;
  HashRing ring(kVnodes);
  ReferenceRing ref;
  Random rng(7);
  for (int step = 0; step < 60; ++step) {
    const uint64_t node = 1 + rng.Uniform(12);
    if (rng.Uniform(3) == 0) {
      ring.RemoveNode(node);
      ref.Remove(node);
    } else {
      ring.AddNode(node);
      ref.Place(node, Candidates(node, kVnodes));
    }
    ExpectSameLayout(ring, ref, step);
    if (HasFatalFailure()) return;
  }
}

TEST(HashRingLayoutTest, ForcedCollisionsSkewLikeTheReference) {
  HashRing ring(8);
  ReferenceRing ref;
  for (uint64_t node = 1; node <= 3; ++node) {
    ring.AddNode(node);
    ref.Place(node, Candidates(node, 8));
  }
  // Node 9 lands on points nodes 1 and 2 hold, on itself twice, and on
  // both ends of the hash space.
  const uint64_t taken1 = ref.points.begin()->first;
  const uint64_t taken2 = ref.points.rbegin()->first;
  const std::vector<uint64_t> spots{taken1, taken2, 77, 77, 0, kMaxHash};
  cluster::HashRingTestPeer::Place(&ring, 9, spots);
  ref.Place(9, spots);
  ExpectSameLayout(ring, ref, 1);
  EXPECT_EQ(ring.OwnerOf(0), 9u);
  EXPECT_EQ(ring.OwnerOf(kMaxHash), 9u);

  // The skewed points stay put when a node they dodged leaves and comes
  // back.
  const uint64_t dodged = ref.points.at(taken1);
  ring.RemoveNode(dodged);
  ref.Remove(dodged);
  ExpectSameLayout(ring, ref, 2);
  ring.AddNode(dodged);
  ref.Place(dodged, Candidates(dodged, 8));
  ExpectSameLayout(ring, ref, 3);
  ring.RemoveNode(9);
  ref.Remove(9);
  ExpectSameLayout(ring, ref, 4);
}

TEST(HashRingLayoutTest, EqualityFollowsTheLayout) {
  HashRing a(16);
  HashRing b(16);
  EXPECT_TRUE(a == b);
  for (uint64_t n = 1; n <= 6; ++n) a.AddNode(n);
  for (uint64_t n = 6; n >= 1; --n) b.AddNode(n);
  EXPECT_TRUE(a == b);  // no collisions: insertion order does not matter
  a.RemoveNode(3);
  EXPECT_FALSE(a == b);
  b.RemoveNode(3);
  EXPECT_TRUE(a == b);
  // Same members, different points.
  HashRing c(16);
  for (uint64_t n = 1; n <= 5; ++n) {
    if (n != 3) c.AddNode(n);
  }
  cluster::HashRingTestPeer::Place(&c, 6, Candidates(7, 16));
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.Nodes(), c.Nodes());
}

TEST(HashRingLayoutTest, HandoffsAreExactlyTheOwnerChanges) {
  constexpr int kVnodes = 16;
  HashRing ring(kVnodes);
  ReferenceRing ref;
  for (uint64_t n = 1; n <= 4; ++n) {
    ring.AddNode(n);
    ref.Place(n, Candidates(n, kVnodes));
  }
  Random rng(11);
  for (int step = 0; step < 30; ++step) {
    const HashRing before = ring;
    const ReferenceRing ref_before = ref;
    // One to three membership changes between the two rings.
    const uint64_t changes = 1 + rng.Uniform(3);
    for (uint64_t change = 0; change < changes; ++change) {
      const uint64_t node = 1 + rng.Uniform(10);
      if (rng.Uniform(2) == 0 && ring.NumNodes() > 1) {
        ring.RemoveNode(node);
        ref.Remove(node);
      } else {
        ring.AddNode(node);
        ref.Place(node, Candidates(node, kVnodes));
      }
    }
    const auto handoffs = ring.HandoffsFrom(before);
    for (size_t i = 1; i < handoffs.size(); ++i) {
      ASSERT_LT(handoffs[i - 1].last, handoffs[i].first);
    }
    std::vector<uint64_t> keys = Probes(ref, step);
    const std::vector<uint64_t> old_keys = Probes(ref_before, step);
    keys.insert(keys.end(), old_keys.begin(), old_keys.end());
    for (uint64_t key : keys) {
      const uint64_t from = ref_before.OwnerOf(key);
      const uint64_t to = ref.OwnerOf(key);
      auto it = std::upper_bound(
          handoffs.begin(), handoffs.end(), key,
          [](uint64_t k, const HashRing::Handoff& h) { return k < h.first; });
      const bool listed = it != handoffs.begin() && key <= std::prev(it)->last;
      ASSERT_EQ(listed, from != to) << "step " << step << " key " << key;
      if (listed) {
        EXPECT_EQ(std::prev(it)->from, from);
      }
    }
  }
}

// ----- RoutingService / RoutingTable -----

TEST(RoutingTest, VersionAdvancesOnEveryChange) {
  RoutingService svc(/*threads_per_kn=*/2);
  EXPECT_EQ(svc.version(), 0u);
  svc.AddKn(1);
  EXPECT_EQ(svc.version(), 1u);
  svc.AddKn(2);
  svc.SetReplication(42, {1, 2});
  EXPECT_EQ(svc.version(), 3u);
}

TEST(RoutingTest, SnapshotsAreImmutable) {
  RoutingService svc(1);
  svc.AddKn(1);
  auto snap = svc.Snapshot();
  svc.AddKn(2);
  EXPECT_EQ(snap->global_ring.NumNodes(), 1u);
  EXPECT_EQ(svc.Snapshot()->global_ring.NumNodes(), 2u);
}

TEST(RoutingTest, ReplicatedKeysRouteAcrossOwners) {
  RoutingService svc(1);
  svc.AddKn(1);
  svc.AddKn(2);
  svc.AddKn(3);
  svc.SetReplication(99, {1, 3});
  auto snap = svc.Snapshot();
  std::set<uint64_t> seen;
  for (uint64_t salt = 0; salt < 10; ++salt) {
    seen.insert(snap->RouteFor(99, salt));
  }
  EXPECT_EQ(seen, (std::set<uint64_t>{1, 3}));
  EXPECT_TRUE(snap->IsOwner(99, 1));
  EXPECT_TRUE(snap->IsOwner(99, 3));
  EXPECT_FALSE(snap->IsOwner(99, 2));
  EXPECT_EQ(snap->ReplicationFactor(99), 2);
}

TEST(RoutingTest, ClearReplicationRestoresSingleOwner) {
  RoutingService svc(1);
  svc.AddKn(1);
  svc.AddKn(2);
  svc.SetReplication(7, {1, 2});
  svc.ClearReplication(7);
  auto snap = svc.Snapshot();
  EXPECT_EQ(snap->ReplicationFactor(7), 1);
  EXPECT_EQ(snap->OwnersOf(7).size(), 1u);
}

TEST(RoutingTest, RemoveKnDropsItFromReplicaSets) {
  RoutingService svc(1);
  svc.AddKn(1);
  svc.AddKn(2);
  svc.AddKn(3);
  svc.SetReplication(7, {2, 3});
  svc.RemoveKn(3);
  auto snap = svc.Snapshot();
  auto owners = snap->OwnersOf(7);
  ASSERT_EQ(owners.size(), 1u);
  EXPECT_EQ(owners[0], 2u);
}

TEST(RoutingTest, ThreadMappingIsStablePerKey) {
  RoutingService svc(/*threads_per_kn=*/4);
  svc.AddKn(1);
  auto snap = svc.Snapshot();
  for (uint64_t key = 1; key < 100; ++key) {
    const int t1 = snap->ThreadFor(key, 1);
    const int t2 = snap->ThreadFor(key, 1);
    EXPECT_EQ(t1, t2);
    EXPECT_GE(t1, 0);
    EXPECT_LT(t1, 4);
  }
}

// ----- Policy engine (Table 4) -----

class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest() : engine_(Params()) {}

  static mnode::PolicyParams Params() {
    mnode::PolicyParams p;
    p.avg_latency_slo_us = 1000;
    p.tail_latency_slo_us = 10000;
    p.grace_period_s = 10.0;
    p.max_kns = 4;
    return p;
  }

  static mnode::ClusterMetrics BaseMetrics(double occ) {
    mnode::ClusterMetrics m;
    m.avg_latency_us = 500;
    m.p99_latency_us = 5000;
    m.occupancy = {{1, occ}, {2, occ}};
    m.key_freq_mean = 10;
    m.key_freq_stddev = 2;
    return m;
  }

  mnode::PolicyEngine engine_;
};

TEST_F(PolicyTest, NoActionWhenHealthy) {
  auto m = BaseMetrics(0.5);
  auto a = engine_.Evaluate(m, 100.0);
  EXPECT_EQ(a.kind, mnode::PolicyAction::Kind::kNone);
}

TEST_F(PolicyTest, AddsKnWhenSloViolatedAndAllBusy) {
  auto m = BaseMetrics(0.5);
  m.avg_latency_us = 2000;  // SLO violated
  auto a = engine_.Evaluate(m, 100.0);
  EXPECT_EQ(a.kind, mnode::PolicyAction::Kind::kAddKn);
}

TEST_F(PolicyTest, TailSloAloneTriggersScaling) {
  auto m = BaseMetrics(0.6);
  m.p99_latency_us = 50000;
  auto a = engine_.Evaluate(m, 100.0);
  EXPECT_EQ(a.kind, mnode::PolicyAction::Kind::kAddKn);
}

TEST_F(PolicyTest, RespectsMaxKns) {
  auto m = BaseMetrics(0.9);
  m.avg_latency_us = 9999;
  m.occupancy = {{1, 0.9}, {2, 0.9}, {3, 0.9}, {4, 0.9}};
  auto a = engine_.Evaluate(m, 100.0);
  EXPECT_EQ(a.kind, mnode::PolicyAction::Kind::kNone);
}

TEST_F(PolicyTest, GracePeriodSuppressesMembershipChanges) {
  engine_.NoteMembershipChange(95.0);
  auto m = BaseMetrics(0.9);
  m.avg_latency_us = 9999;
  auto a = engine_.Evaluate(m, 100.0);  // 5s into a 10s grace window
  EXPECT_EQ(a.kind, mnode::PolicyAction::Kind::kNone);
  a = engine_.Evaluate(m, 106.0);  // grace elapsed
  EXPECT_EQ(a.kind, mnode::PolicyAction::Kind::kAddKn);
}

TEST_F(PolicyTest, RemovesUnderUtilizedKnWhenSloMet) {
  auto m = BaseMetrics(0.5);
  m.occupancy[2] = 0.02;
  auto a = engine_.Evaluate(m, 100.0);
  EXPECT_EQ(a.kind, mnode::PolicyAction::Kind::kRemoveKn);
  EXPECT_EQ(a.kn_id, 2u);
}

TEST_F(PolicyTest, NeverRemovesLastKn) {
  auto m = BaseMetrics(0.02);
  m.occupancy = {{1, 0.02}};
  auto a = engine_.Evaluate(m, 100.0);
  EXPECT_EQ(a.kind, mnode::PolicyAction::Kind::kNone);
}

TEST_F(PolicyTest, ReplicatesHotKeyWhenNotAllBusy) {
  auto m = BaseMetrics(0.5);
  m.avg_latency_us = 3000;      // SLO violated
  m.occupancy[2] = 0.05;        // not all over-utilized -> imbalance
  m.hot_keys = {{777, 100}};    // way above mean 10 + 3*2
  auto a = engine_.Evaluate(m, 100.0);
  EXPECT_EQ(a.kind, mnode::PolicyAction::Kind::kReplicateKey);
  EXPECT_EQ(a.key_hash, 777u);
  EXPECT_GT(a.replication_factor, 1);
  EXPECT_LE(a.replication_factor, 2);  // bounded by cluster size
}

TEST_F(PolicyTest, ReplicationFactorScalesWithLatencyRatio) {
  auto m = BaseMetrics(0.5);
  m.occupancy = {{1, 0.5}, {2, 0.05}, {3, 0.5}, {4, 0.5}};
  m.avg_latency_us = 3500;  // 3.5x the SLO
  m.hot_keys = {{777, 100}};
  auto a = engine_.Evaluate(m, 100.0);
  ASSERT_EQ(a.kind, mnode::PolicyAction::Kind::kReplicateKey);
  EXPECT_GE(a.replication_factor, 4);
}

TEST_F(PolicyTest, DereplicatesColdKeys) {
  auto m = BaseMetrics(0.5);
  m.key_freq_mean = 100;
  m.key_freq_stddev = 10;
  m.replicated_keys = {{777, 4}};
  m.hot_keys = {{777, 5}};  // now far below mean - 1 sigma
  auto a = engine_.Evaluate(m, 100.0);
  EXPECT_EQ(a.kind, mnode::PolicyAction::Kind::kDereplicateKey);
  EXPECT_EQ(a.key_hash, 777u);
}

TEST_F(PolicyTest, HotKeyBelowThresholdNotReplicated) {
  auto m = BaseMetrics(0.5);
  m.avg_latency_us = 3000;
  m.occupancy[2] = 0.05;
  m.hot_keys = {{777, 12}};  // mean 10, sigma 2 -> bound 16
  auto a = engine_.Evaluate(m, 100.0);
  EXPECT_EQ(a.kind, mnode::PolicyAction::Kind::kNone);
}

}  // namespace
}  // namespace dinomo
