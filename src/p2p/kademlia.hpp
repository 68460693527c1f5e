// Kademlia routing table (discv4 flavor): 256 k-buckets of capacity 16,
// bucket i holding peers at XOR log-distance i from the local id. Used to
// build the overlay topology the way real Geth does — iterative FindNode
// lookups against bootstrap nodes — which yields geography-blind, close-to-
// random neighbor sets.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "p2p/node_id.hpp"

namespace ethsim::p2p {

inline constexpr std::size_t kBucketSize = 16;  // discv4's k
inline constexpr std::size_t kBucketCount = 256;

class RoutingTable {
 public:
  explicit RoutingTable(NodeId self) : self_(self) {}

  const NodeId& self() const { return self_; }

  // Adds a node. Returns false when it is the local id, already present, or
  // its bucket is full (discv4 would ping-evict; we keep the incumbent).
  bool Add(const NodeId& node);

  bool Contains(const NodeId& node) const;
  std::size_t size() const { return size_; }

  // The `count` table entries closest to `target` by XOR distance, closest
  // first.
  std::vector<NodeId> Closest(const NodeId& target, std::size_t count) const;

  // All entries (bucket order). Mostly for tests/inspection.
  std::vector<NodeId> Entries() const;

 private:
  NodeId self_;
  std::vector<NodeId> buckets_[kBucketCount];
  std::size_t size_ = 0;
};

// Every member's full routing table at once: the steady-state view of a
// discovery daemon that has seen every id. `RoutingTable{ids[s]}` after
// `Add`ing all of `ids` in order holds, in bucket i, the first kBucketSize
// ids (by position in `ids`) that agree with ids[s] above bit i and differ
// at bit i: one side of the branch at bit i on ids[s]'s path through the
// binary trie of the ids. So one trie whose every subtree keeps its first
// kBucketSize ids answers for all n tables, built in O(n log n) instead of
// n² `Add`s.
class Registry {
 public:
  explicit Registry(const std::vector<NodeId>& ids);

  std::size_t size() const { return ids_.size(); }

  // Exactly `RoutingTable{ids[self]}` filled with every id in order, then
  // `Closest(target, count)`. `self` indexes the constructor's `ids`.
  std::vector<NodeId> Closest(std::size_t self, const NodeId& target,
                              std::size_t count) const;

  // Heap bytes held (ids, trie nodes, kept entries).
  std::size_t bytes() const;

 private:
  struct Node {
    int bit = -1;  // the bit this subtree branches on; -1 at a leaf
    std::uint32_t child[2] = {0, 0};  // by an id's value at `bit`
    // This subtree's first kBucketSize ids by position: entries_[first, +count).
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  std::uint32_t Build(const std::vector<std::uint32_t>& sorted,
                      std::size_t lo, std::size_t hi,
                      std::vector<std::uint32_t>& kept);

  std::vector<NodeId> ids_;
  std::vector<Node> nodes_;  // post-order: the root is last
  std::vector<NodeId> entries_;
};

// Iterative lookup driver used at topology-build time. `query` plays the
// role of a FindNode RPC: given (node, target) it returns that node's
// closest entries to the target. Returns the closest `k` ids found.
std::vector<NodeId> IterativeFindNode(
    const RoutingTable& local, const NodeId& target, std::size_t k,
    const std::function<std::vector<NodeId>(const NodeId&, const NodeId&)>& query,
    int max_rounds = 8);

}  // namespace ethsim::p2p
