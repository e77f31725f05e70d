#ifndef DINOMO_CLUSTER_HASH_RING_H_
#define DINOMO_CLUSTER_HASH_RING_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace dinomo {
namespace cluster {

class HashRingTestPeer;

/// Consistent-hash ring assigning key hashes to node ids (paper §3.4:
/// "DINOMO uses consistent hashing to assign the primary owners for key
/// ranges"). Each node projects `virtual_nodes` points onto the ring so
/// ownership spreads evenly and membership changes move only ~1/n of the
/// key space.
///
/// The same structure is used twice: the *global* ring maps keys to KNs,
/// and each KN's *local* ring maps its keys onto worker threads.
///
/// Layout: two parallel arrays sorted by ring point, so a lookup is one
/// binary search over contiguous memory and copying a ring (every routing
/// table version does) is two flat copies.
class HashRing {
 public:
  /// The hashes [first, last] (inclusive), owned by `from` under an
  /// earlier ring and by another node now.
  struct Handoff {
    uint64_t first = 0;
    uint64_t last = 0;
    uint64_t from = 0;
  };

  explicit HashRing(int virtual_nodes = 64);

  /// Adds a node; no-op if present.
  void AddNode(uint64_t node_id);
  /// Removes a node; no-op if absent.
  void RemoveNode(uint64_t node_id);
  bool HasNode(uint64_t node_id) const;

  /// The node owning this key hash. Ring must be non-empty.
  uint64_t OwnerOf(uint64_t key_hash) const;

  /// The first `n` *distinct* nodes met walking clockwise from key_hash:
  /// element 0 is OwnerOf (the primary), element 1 the next distinct node
  /// (the replica placement AsymNVM-style mirroring uses), and so on.
  /// Returns fewer than n entries if the ring has fewer than n nodes.
  std::vector<uint64_t> OwnersOf(uint64_t key_hash, size_t n) const;

  size_t NumNodes() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  std::vector<uint64_t> Nodes() const;

  /// Fraction of the hash space owned by each node (diagnostics/tests).
  std::map<uint64_t, double> OwnershipShares() const;

  /// Every hash range whose owner under `before` differs from its owner
  /// under this ring, ascending and disjoint, adjacent ranges with the
  /// same old owner merged. Both rings must be non-empty. Adding nodes
  /// hands ranges from old owners to the new ones; removing nodes hands
  /// only the removed nodes' ranges away.
  std::vector<Handoff> HandoffsFrom(const HashRing& before) const;

  bool operator==(const HashRing& other) const {
    return points_ == other.points_ && owners_ == other.owners_;
  }

 private:
  friend class HashRingTestPeer;

  /// Adds `node_id` with one point per candidate position; no-op if
  /// present.
  void Place(uint64_t node_id, const std::vector<uint64_t>& candidates);
  /// Index of the point owning `key_hash`: the first point >= it, wrapping.
  size_t SlotOf(uint64_t key_hash) const;

  int virtual_nodes_;
  std::vector<uint64_t> points_;  // ring points, ascending
  std::vector<uint64_t> owners_;  // owners_[i] is the node of points_[i]
  std::vector<uint64_t> nodes_;   // member node ids, ascending
};

}  // namespace cluster
}  // namespace dinomo

#endif  // DINOMO_CLUSTER_HASH_RING_H_
