#include "cluster/hash_ring.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "common/hash.h"
#include "common/logging.h"

namespace dinomo {
namespace cluster {

HashRing::HashRing(int virtual_nodes) : virtual_nodes_(virtual_nodes) {
  DINOMO_CHECK(virtual_nodes > 0);
}

void HashRing::AddNode(uint64_t node_id) {
  std::vector<uint64_t> candidates(virtual_nodes_);
  for (int v = 0; v < virtual_nodes_; ++v) {
    candidates[v] =
        HashSeeded(&node_id, sizeof(node_id), static_cast<uint64_t>(v));
  }
  Place(node_id, candidates);
}

void HashRing::Place(uint64_t node_id,
                     const std::vector<uint64_t>& candidates) {
  auto at = std::lower_bound(nodes_.begin(), nodes_.end(), node_id);
  if (at != nodes_.end() && *at == node_id) return;
  nodes_.insert(at, node_id);
  points_.reserve(points_.size() + candidates.size());
  owners_.reserve(owners_.size() + candidates.size());
  for (uint64_t p : candidates) {
    // Collisions across nodes are possible in principle; skew the point
    // deterministically until free so both sides agree on the layout.
    auto it = std::lower_bound(points_.begin(), points_.end(), p);
    while (it != points_.end() && *it == p) {
      p = Mix64(p + 1);
      it = std::lower_bound(points_.begin(), points_.end(), p);
    }
    owners_.insert(owners_.begin() + (it - points_.begin()), node_id);
    points_.insert(it, p);
  }
}

void HashRing::RemoveNode(uint64_t node_id) {
  auto at = std::lower_bound(nodes_.begin(), nodes_.end(), node_id);
  if (at == nodes_.end() || *at != node_id) return;
  nodes_.erase(at);
  size_t kept = 0;
  for (size_t i = 0; i < points_.size(); ++i) {
    if (owners_[i] == node_id) continue;
    points_[kept] = points_[i];
    owners_[kept] = owners_[i];
    kept++;
  }
  points_.resize(kept);
  owners_.resize(kept);
}

bool HashRing::HasNode(uint64_t node_id) const {
  return std::binary_search(nodes_.begin(), nodes_.end(), node_id);
}

size_t HashRing::SlotOf(uint64_t key_hash) const {
  const size_t i = static_cast<size_t>(
      std::lower_bound(points_.begin(), points_.end(), key_hash) -
      points_.begin());
  return i == points_.size() ? 0 : i;  // wrap around
}

uint64_t HashRing::OwnerOf(uint64_t key_hash) const {
  DINOMO_CHECK(!points_.empty());
  return owners_[SlotOf(key_hash)];
}

std::vector<uint64_t> HashRing::OwnersOf(uint64_t key_hash, size_t n) const {
  std::vector<uint64_t> out;
  if (points_.empty() || n == 0) return out;
  const size_t want = std::min(n, nodes_.size());
  size_t i = SlotOf(key_hash);
  // Bounded walk: after one full loop every node has been seen.
  for (size_t steps = 0; steps < points_.size() && out.size() < want;
       ++steps) {
    const uint64_t node = owners_[i];
    if (std::find(out.begin(), out.end(), node) == out.end()) {
      out.push_back(node);
    }
    if (++i == points_.size()) i = 0;
  }
  // The successor relation is what makes promotion consistent: when the
  // primary leaves the ring, OwnerOf of every affected range becomes the
  // range's old second owner — its mirror.
  return out;
}

std::vector<uint64_t> HashRing::Nodes() const { return nodes_; }

std::map<uint64_t, double> HashRing::OwnershipShares() const {
  std::map<uint64_t, double> shares;
  if (points_.empty()) return shares;
  const double total = 18446744073709551615.0;  // 2^64 - 1
  uint64_t prev = points_.back();               // wrap segment start
  for (size_t i = 0; i < points_.size(); ++i) {
    // The first segment wraps from the highest point through 0.
    const uint64_t span = i == 0 ? points_[0] + (~prev) + 1
                                 : points_[i] - prev;
    shares[owners_[i]] += span / total;
    prev = points_[i];
  }
  return shares;
}

std::vector<HashRing::Handoff> HashRing::HandoffsFrom(
    const HashRing& before) const {
  DINOMO_CHECK(!points_.empty() && !before.points_.empty());
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  std::vector<Handoff> out;
  auto emit = [&](uint64_t first, uint64_t last) {
    // No point of either ring lies inside [first, last): every hash in it
    // has the owners of `last`.
    const uint64_t from = before.OwnerOf(last);
    if (from == OwnerOf(last)) return;
    if (!out.empty() && out.back().last + 1 == first &&
        out.back().from == from) {
      out.back().last = last;
    } else {
      out.push_back({first, last, from});
    }
  };
  std::vector<uint64_t> bounds;
  bounds.reserve(before.points_.size() + points_.size());
  std::merge(before.points_.begin(), before.points_.end(), points_.begin(),
             points_.end(), std::back_inserter(bounds));
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  uint64_t first = 0;
  for (uint64_t last : bounds) {
    emit(first, last);
    if (last == kMax) return out;
    first = last + 1;
  }
  emit(first, kMax);  // past both rings' highest points: both wrap
  return out;
}

}  // namespace cluster
}  // namespace dinomo
