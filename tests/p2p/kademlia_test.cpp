#include "p2p/kademlia.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <vector>

namespace ethsim::p2p {
namespace {

TEST(RoutingTable, AddAndContains) {
  Rng rng{1};
  RoutingTable table{RandomNodeId(rng)};
  const NodeId peer = RandomNodeId(rng);
  EXPECT_TRUE(table.Add(peer));
  EXPECT_TRUE(table.Contains(peer));
  EXPECT_EQ(table.size(), 1u);
}

TEST(RoutingTable, RejectsSelfAndDuplicates) {
  Rng rng{2};
  const NodeId self = RandomNodeId(rng);
  RoutingTable table{self};
  EXPECT_FALSE(table.Add(self));
  const NodeId peer = RandomNodeId(rng);
  EXPECT_TRUE(table.Add(peer));
  EXPECT_FALSE(table.Add(peer));
  EXPECT_EQ(table.size(), 1u);
}

TEST(RoutingTable, BucketCapacityIsSixteen) {
  // Fill one specific bucket: ids differing from self only in low bytes all
  // share the same log distance when we pin the same leading bit pattern.
  NodeId self{};
  RoutingTable table{self};
  // All ids with only byte 31 set have log distance 0..7; ids with byte 31 =
  // 0x80|x land in bucket 7. Generate > 16 of them.
  int added = 0;
  for (int x = 0; x < 0x80; ++x) {
    NodeId id{};
    id.bytes[31] = static_cast<std::uint8_t>(0x80 | x);
    added += table.Add(id) ? 1 : 0;
  }
  EXPECT_EQ(added, static_cast<int>(kBucketSize));
}

TEST(RoutingTable, ClosestReturnsSortedByXorDistance) {
  NodeId self{};
  RoutingTable table{self};
  Rng rng{3};
  std::vector<NodeId> peers;
  for (int i = 0; i < 100; ++i) {
    const NodeId id = RandomNodeId(rng);
    if (table.Add(id)) peers.push_back(id);
  }
  const NodeId target = RandomNodeId(rng);
  const auto closest = table.Closest(target, 10);
  ASSERT_EQ(closest.size(), 10u);
  for (std::size_t i = 1; i < closest.size(); ++i)
    EXPECT_FALSE(CloserTo(target, closest[i], closest[i - 1]));
  // The first result must be the global argmin over table entries.
  NodeId best = peers.front();
  for (const auto& p : peers)
    if (CloserTo(target, p, best)) best = p;
  EXPECT_EQ(closest.front(), best);
}

TEST(RoutingTable, ClosestWithFewEntriesReturnsAll) {
  Rng rng{4};
  RoutingTable table{RandomNodeId(rng)};
  table.Add(RandomNodeId(rng));
  table.Add(RandomNodeId(rng));
  EXPECT_EQ(table.Closest(RandomNodeId(rng), 10).size(), 2u);
}

// The copy-everything-and-sort answer the bucket-ordered Closest replaces.
std::vector<NodeId> SortedClosest(const RoutingTable& table,
                                  const NodeId& target, std::size_t count) {
  std::vector<NodeId> all = table.Entries();
  std::sort(all.begin(), all.end(), [&](const NodeId& a, const NodeId& b) {
    return CloserTo(target, a, b);
  });
  if (all.size() > count) all.resize(count);
  return all;
}

std::vector<std::size_t> CountsFor(const RoutingTable& table) {
  return {0, 1, kBucketSize, kBucketSize + 1, table.size() + 5};
}

TEST(RoutingTable, ClosestEqualsFullSort) {
  // Partly filled tables, as the per-node dial table grows, and full ones.
  Rng rng{11};
  for (const int adds : {0, 1, 5, 40, 300, 3000}) {
    RoutingTable table{RandomNodeId(rng)};
    for (int i = 0; i < adds; ++i) table.Add(RandomNodeId(rng));
    std::vector<NodeId> targets = table.Entries();
    targets.push_back(table.self());
    for (int i = 0; i < 20; ++i) targets.push_back(RandomNodeId(rng));
    for (const NodeId& target : targets)
      for (const std::size_t count : CountsFor(table))
        ASSERT_EQ(table.Closest(target, count),
                  SortedClosest(table, target, count))
            << "adds=" << adds << " count=" << count;
  }
}

// Every Registry answer against the n tables that `Add` every id in order.
void ExpectRegistryMatchesTables(const std::vector<NodeId>& ids,
                                 std::uint64_t seed) {
  const Registry registry{ids};
  ASSERT_EQ(registry.size(), ids.size());
  Rng rng{seed};
  for (std::size_t s = 0; s < ids.size(); ++s) {
    RoutingTable table{ids[s]};
    for (const NodeId& id : ids) table.Add(id);
    std::vector<NodeId> targets = table.Entries();
    targets.push_back(ids[s]);
    for (int i = 0; i < 3; ++i) targets.push_back(RandomNodeId(rng));
    for (const NodeId& target : targets)
      for (const std::size_t count : CountsFor(table))
        ASSERT_EQ(registry.Closest(s, target, count),
                  table.Closest(target, count))
            << "n=" << ids.size() << " self=" << s << " count=" << count;
  }
}

TEST(Registry, MatchesFilledTablesOnRandomIds) {
  for (const std::size_t n : {1, 2, 3, 17, 200, 1000}) {
    Rng rng{100 + n};
    std::vector<NodeId> ids;
    for (std::size_t i = 0; i < n; ++i) ids.push_back(RandomNodeId(rng));
    ExpectRegistryMatchesTables(ids, n);
  }
}

TEST(Registry, MatchesFilledTablesOnAdversarialIds) {
  Rng rng{21};
  // 40 ids sharing a 250-bit prefix: a deep trie over the low 6 bits.
  std::vector<NodeId> shared_prefix;
  const NodeId prefix = RandomNodeId(rng);
  std::vector<std::uint8_t> low(64);
  std::iota(low.begin(), low.end(), 0);
  for (std::size_t i = 0; i < 40; ++i) {
    std::swap(low[i], low[i + rng.NextBounded(64 - i)]);
    NodeId id = prefix;
    id.bytes[31] = static_cast<std::uint8_t>((id.bytes[31] & 0xC0) | low[i]);
    shared_prefix.push_back(id);
  }
  ExpectRegistryMatchesTables(shared_prefix, 1);

  // 40 ids in one bucket of `center` (they differ from it first at bit
  // 100), so that bucket keeps only its first 16, plus random others.
  std::vector<NodeId> crowded;
  const NodeId center = RandomNodeId(rng);
  crowded.push_back(center);
  for (int i = 0; i < 40; ++i) {
    NodeId id = RandomNodeId(rng);
    std::copy(center.bytes.begin(), center.bytes.begin() + 19,
              id.bytes.begin());
    id.bytes[19] = static_cast<std::uint8_t>((center.bytes[19] & 0xE0) |
                                             (~center.bytes[19] & 0x10) |
                                             (id.bytes[19] & 0x0F));
    crowded.push_back(id);
    if (i % 4 == 0) crowded.push_back(RandomNodeId(rng));
  }
  ASSERT_EQ(LogDistance(center, crowded[1]), 100);
  ExpectRegistryMatchesTables(crowded, 2);

  // Pairs that differ only in bit 0.
  std::vector<NodeId> pairs;
  for (int i = 0; i < 20; ++i) {
    NodeId id = RandomNodeId(rng);
    pairs.push_back(id);
    id.bytes[31] ^= 1;
    pairs.push_back(id);
  }
  ExpectRegistryMatchesTables(pairs, 3);

  // One id listed twice: it counts once, at its first position.
  std::vector<NodeId> repeated;
  for (int i = 0; i < 60; ++i) repeated.push_back(RandomNodeId(rng));
  const NodeId first_again = repeated[7], second_again = repeated[45];
  repeated.push_back(first_again);
  repeated.insert(repeated.begin() + 30, second_again);
  ExpectRegistryMatchesTables(repeated, 4);
}

TEST(Registry, CostsUnder300BytesPerId) {
  // DESIGN.md §5 quotes ≈271 B per id: the id, two trie nodes and ≈6.2
  // kept ids, independent of n.
  for (const std::size_t n : {1000, 5000}) {
    Rng rng{n};
    std::vector<NodeId> ids;
    for (std::size_t i = 0; i < n; ++i) ids.push_back(RandomNodeId(rng));
    const Registry registry{ids};
    EXPECT_GT(registry.bytes(), 250 * n);
    EXPECT_LT(registry.bytes(), 300 * n);
  }
}

// A small in-memory universe where every node has a fully-populated table,
// driving IterativeFindNode like a discv4 crawl, either over per-node
// tables or over the one Registry that stands in for them.
struct Universe {
  explicit Universe(std::size_t n, std::uint64_t seed) {
    Rng rng{seed};
    for (std::size_t i = 0; i < n; ++i) ids.push_back(RandomNodeId(rng));
    for (std::size_t i = 0; i < n; ++i) {
      RoutingTable t{ids[i]};
      for (const auto& other : ids) t.Add(other);
      tables.emplace(ids[i], std::move(t));
      index_of.emplace(ids[i], i);
    }
    registry = std::make_unique<Registry>(ids);
  }
  std::vector<NodeId> ids;
  std::unordered_map<NodeId, RoutingTable> tables;
  std::unordered_map<NodeId, std::size_t> index_of;
  std::unique_ptr<Registry> registry;

  // FindNode over the per-node tables, or over the registry.
  std::function<std::vector<NodeId>(const NodeId&, const NodeId&)> Query(
      bool use_registry) const {
    if (use_registry)
      return [this](const NodeId& node, const NodeId& target) {
        return registry->Closest(index_of.at(node), target, kBucketSize);
      };
    return [this](const NodeId& node, const NodeId& target) {
      return tables.at(node).Closest(target, kBucketSize);
    };
  }
};

TEST(IterativeFindNode, ConvergesToGlobalClosest) {
  Universe universe{200, 42};
  // A sparsely-seeded local table: three bootstrap nodes.
  Rng rng{7};
  RoutingTable local{RandomNodeId(rng)};
  for (int i = 0; i < 3; ++i) local.Add(universe.ids[static_cast<std::size_t>(i)]);

  const NodeId target = RandomNodeId(rng);
  const auto found =
      IterativeFindNode(local, target, 16, universe.Query(false));
  EXPECT_EQ(IterativeFindNode(local, target, 16, universe.Query(true)), found);

  // Global ground truth.
  std::vector<NodeId> all = universe.ids;
  std::sort(all.begin(), all.end(), [&](const NodeId& a, const NodeId& b) {
    return CloserTo(target, a, b);
  });
  ASSERT_GE(found.size(), 16u);
  // The lookup must find the true closest node.
  EXPECT_EQ(found.front(), all.front());
  // And most of the true top-16 (iterative lookups can miss a straggler).
  int hits = 0;
  for (std::size_t i = 0; i < 16; ++i)
    if (std::find(found.begin(), found.end(), all[i]) != found.end()) ++hits;
  EXPECT_GE(hits, 14);
}

TEST(IterativeFindNode, RegistryAndTablesGiveEqualLookups) {
  Universe universe{500, 12};
  Rng rng{13};
  for (int i = 0; i < 50; ++i) {
    RoutingTable local{universe.ids[rng.NextBounded(universe.ids.size())]};
    for (int b = 0; b < 3; ++b)
      local.Add(universe.ids[rng.NextBounded(universe.ids.size())]);
    const NodeId target = RandomNodeId(rng);
    EXPECT_EQ(IterativeFindNode(local, target, 16, universe.Query(true)),
              IterativeFindNode(local, target, 16, universe.Query(false)));
  }
}

TEST(IterativeFindNode, EmptyLocalTableReturnsEmpty) {
  Rng rng{8};
  RoutingTable local{RandomNodeId(rng)};
  const auto found = IterativeFindNode(
      local, RandomNodeId(rng), 16,
      [](const NodeId&, const NodeId&) { return std::vector<NodeId>{}; });
  EXPECT_TRUE(found.empty());
}

TEST(IterativeFindNode, NeverReturnsSelf) {
  Universe universe{50, 9};
  const NodeId self = universe.ids[0];
  RoutingTable local{self};
  for (int i = 1; i < 4; ++i) local.Add(universe.ids[static_cast<std::size_t>(i)]);
  for (const bool use_registry : {false, true}) {
    const auto found =
        IterativeFindNode(local, self, 16, universe.Query(use_registry));
    EXPECT_EQ(std::find(found.begin(), found.end(), self), found.end());
  }
}

}  // namespace
}  // namespace ethsim::p2p
