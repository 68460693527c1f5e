#include "p2p/kademlia.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>
#include <span>
#include <unordered_set>

namespace ethsim::p2p {

namespace {

// Bit `bit` of `id`, numbered as LogDistance numbers buckets (255 is the
// most significant bit of bytes[0]).
int BitAt(const NodeId& id, int bit) {
  const auto b = static_cast<std::size_t>(bit);
  return (id.bytes[31 - b / 8] >> (b % 8)) & 1;
}

struct BucketView {
  int distance;  // log distance from the table's owner
  std::span<const NodeId> ids;
};

// The `count` entries nearest `target` of a table around `self` whose
// non-empty buckets are `buckets`, in descending distance. Each bucket
// covers one contiguous range of XOR distances from the target, so sorting
// bucket by bucket, in the order of those ranges, equals sorting the whole
// table. With j the target's bucket and D = self ^ target: bucket j lies
// below 2^j. A bucket i < j lies in [2^j, 2^(j+1)) and differs from D at
// bit i, so it is nearer than every lower bucket when D has bit i set and
// farther when not. A bucket i > j lies in [2^i, 2^(i+1)).
std::vector<NodeId> ClosestInBuckets(const NodeId& self, const NodeId& target,
                                     std::size_t count,
                                     std::span<const BucketView> buckets) {
  std::vector<NodeId> out;
  const auto take = [&](const BucketView& bucket) {
    if (out.size() >= count) return;
    const std::size_t start = out.size();
    out.insert(out.end(), bucket.ids.begin(), bucket.ids.end());
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(start), out.end(),
              [&](const NodeId& a, const NodeId& b) {
                return CloserTo(target, a, b);
              });
    if (out.size() > count) out.resize(count);
  };
  const int j = LogDistance(self, target);
  const NodeId d = XorDistance(self, target);
  // buckets[0, above) lie above j and buckets[below, size) below it.
  std::size_t above = 0;
  while (above < buckets.size() && buckets[above].distance > j) ++above;
  std::size_t below = above;
  if (below < buckets.size() && buckets[below].distance == j)
    take(buckets[below++]);
  for (std::size_t b = below; b < buckets.size(); ++b)
    if (BitAt(d, buckets[b].distance) == 1) take(buckets[b]);
  for (std::size_t b = buckets.size(); b-- > below;)
    if (BitAt(d, buckets[b].distance) == 0) take(buckets[b]);
  for (std::size_t b = above; b-- > 0;) take(buckets[b]);
  return out;
}

}  // namespace

bool RoutingTable::Add(const NodeId& node) {
  const int dist = LogDistance(self_, node);
  if (dist < 0) return false;  // self
  auto& bucket = buckets_[static_cast<std::size_t>(dist)];
  if (std::find(bucket.begin(), bucket.end(), node) != bucket.end()) return false;
  if (bucket.size() >= kBucketSize) return false;
  bucket.push_back(node);
  ++size_;
  return true;
}

bool RoutingTable::Contains(const NodeId& node) const {
  const int dist = LogDistance(self_, node);
  if (dist < 0) return false;
  const auto& bucket = buckets_[static_cast<std::size_t>(dist)];
  return std::find(bucket.begin(), bucket.end(), node) != bucket.end();
}

std::vector<NodeId> RoutingTable::Closest(const NodeId& target,
                                          std::size_t count) const {
  std::vector<BucketView> buckets;
  for (std::size_t i = kBucketCount; i-- > 0;)
    if (!buckets_[i].empty())
      buckets.push_back({static_cast<int>(i), buckets_[i]});
  return ClosestInBuckets(self_, target, count, buckets);
}

std::vector<NodeId> RoutingTable::Entries() const {
  std::vector<NodeId> out;
  out.reserve(size_);
  for (const auto& bucket : buckets_)
    out.insert(out.end(), bucket.begin(), bucket.end());
  return out;
}

Registry::Registry(const std::vector<NodeId>& ids) : ids_(ids) {
  assert(ids.size() < UINT32_MAX);
  std::vector<std::uint32_t> sorted(ids.size());
  std::iota(sorted.begin(), sorted.end(), 0u);
  std::sort(sorted.begin(), sorted.end(), [&](std::uint32_t a, std::uint32_t b) {
    return ids[a] != ids[b] ? ids[a] < ids[b] : a < b;
  });
  // A repeated id counts once, at its first position, as Add keeps it.
  sorted.erase(std::unique(sorted.begin(), sorted.end(),
                           [&](std::uint32_t a, std::uint32_t b) {
                             return ids[a] == ids[b];
                           }),
               sorted.end());
  if (sorted.empty()) return;
  nodes_.reserve(2 * sorted.size() - 1);
  std::vector<std::uint32_t> kept;  // positions; entries_ holds their ids
  Build(sorted, 0, sorted.size(), kept);
  entries_.reserve(kept.size());
  for (const std::uint32_t position : kept) entries_.push_back(ids_[position]);
}

// Builds the subtree over sorted[lo, hi) (distinct ids sharing a prefix)
// and returns its node index.
std::uint32_t Registry::Build(const std::vector<std::uint32_t>& sorted,
                              std::size_t lo, std::size_t hi,
                              std::vector<std::uint32_t>& kept) {
  Node node;
  if (hi - lo == 1) {
    node.first = static_cast<std::uint32_t>(kept.size());
    kept.push_back(sorted[lo]);
  } else {
    // In sorted order the first and last ids differ at the highest bit
    // any two of the range differ at.
    node.bit = LogDistance(ids_[sorted[lo]], ids_[sorted[hi - 1]]);
    const auto split = static_cast<std::size_t>(
        std::partition_point(sorted.begin() + static_cast<std::ptrdiff_t>(lo),
                             sorted.begin() + static_cast<std::ptrdiff_t>(hi),
                             [&](std::uint32_t p) {
                               return BitAt(ids_[p], node.bit) == 0;
                             }) -
        sorted.begin());
    node.child[0] = Build(sorted, lo, split, kept);
    node.child[1] = Build(sorted, split, hi, kept);
    // Merge the children's first positions, keeping the first kBucketSize.
    const Node a = nodes_[node.child[0]];
    const Node b = nodes_[node.child[1]];
    node.first = static_cast<std::uint32_t>(kept.size());
    std::size_t i = a.first, k = b.first;
    const std::size_t i_end = a.first + a.count, k_end = b.first + b.count;
    while (kept.size() - node.first < kBucketSize && (i < i_end || k < k_end)) {
      const std::uint32_t next =
          k == k_end || (i < i_end && kept[i] < kept[k]) ? kept[i++]
                                                         : kept[k++];
      kept.push_back(next);
    }
  }
  node.count = static_cast<std::uint32_t>(kept.size()) - node.first;
  nodes_.push_back(node);
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

std::vector<NodeId> Registry::Closest(std::size_t self, const NodeId& target,
                                      std::size_t count) const {
  assert(self < ids_.size());
  const NodeId& id = ids_[self];
  // Walk ids[self]'s path from the root: the far side of each branch is the
  // bucket at that bit, and branches come in descending bit order.
  std::vector<BucketView> buckets;
  if (!nodes_.empty()) {
    for (const Node* node = &nodes_.back(); node->bit >= 0;) {
      const int side = BitAt(id, node->bit);
      const Node& far = nodes_[node->child[1 - side]];
      buckets.push_back(
          {node->bit, std::span<const NodeId>(entries_).subspan(far.first,
                                                                far.count)});
      node = &nodes_[node->child[side]];
    }
  }
  return ClosestInBuckets(id, target, count, buckets);
}

std::size_t Registry::bytes() const {
  return ids_.capacity() * sizeof(NodeId) + nodes_.capacity() * sizeof(Node) +
         entries_.capacity() * sizeof(NodeId);
}

std::vector<NodeId> IterativeFindNode(
    const RoutingTable& local, const NodeId& target, std::size_t k,
    const std::function<std::vector<NodeId>(const NodeId&, const NodeId&)>& query,
    int max_rounds) {
  auto closer = [&](const NodeId& a, const NodeId& b) {
    return CloserTo(target, a, b);
  };

  std::vector<NodeId> shortlist = local.Closest(target, k);
  std::unordered_set<NodeId> seen(shortlist.begin(), shortlist.end());
  std::unordered_set<NodeId> queried;

  for (int round = 0; round < max_rounds; ++round) {
    // Query the alpha(=3) closest not-yet-queried nodes.
    std::vector<NodeId> pending;
    for (const NodeId& n : shortlist) {
      if (!queried.contains(n)) pending.push_back(n);
      if (pending.size() == 3) break;
    }
    if (pending.empty()) break;

    bool improved = false;
    for (const NodeId& n : pending) {
      queried.insert(n);
      for (const NodeId& found : query(n, target)) {
        if (found == local.self()) continue;
        if (seen.insert(found).second) {
          shortlist.push_back(found);
          improved = true;
        }
      }
    }
    std::sort(shortlist.begin(), shortlist.end(), closer);
    if (shortlist.size() > k) shortlist.resize(k);
    if (!improved) break;
  }
  return shortlist;
}

}  // namespace ethsim::p2p
