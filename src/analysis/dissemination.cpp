#include "analysis/dissemination.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>

#include "net/geo.hpp"

namespace ethsim::analysis {

namespace {

using obs::EdgeKind;

bool IsBlockMessage(std::uint8_t kind) {
  const auto k = static_cast<EdgeKind>(kind);
  return k == EdgeKind::kNewBlock || k == EdgeKind::kAnnouncement ||
         k == EdgeKind::kBlockResponse;
}

bool IsOrigin(std::uint8_t kind) {
  return static_cast<EdgeKind>(kind) == EdgeKind::kOrigin;
}

RedundancyStats StatsFrom(SampleSet& samples) {
  RedundancyStats stats;
  if (samples.empty()) return stats;
  stats.mean = samples.mean();
  stats.median = samples.Median();
  stats.top10 = samples.Quantile(0.90);
  stats.top1 = samples.Quantile(0.99);
  return stats;
}

// First-delivery record per host while scanning one object's edges.
struct FirstDelivery {
  std::int64_t arrival_us = 0;
  std::uint32_t from = 0;
  std::uint16_t hop = 0;
  EdgeKind via = EdgeKind::kOrigin;
  bool is_origin = false;
};

// Scans the log and returns the first delivered block-message edge (or mint
// record) per host for `object`. Rows are in send order; "first" means
// minimum arrival time, ties resolved by row order (deterministic).
std::unordered_map<std::uint32_t, FirstDelivery> FirstDeliveries(
    const obs::ProvenanceLog& log, std::uint64_t object) {
  std::unordered_map<std::uint32_t, FirstDelivery> first;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log.object[i] != object) continue;
    if (IsOrigin(log.kind[i])) {
      FirstDelivery fd;
      fd.arrival_us = log.arrival_us[i];
      fd.from = log.from[i];
      fd.hop = 0;
      fd.via = EdgeKind::kOrigin;
      fd.is_origin = true;
      auto [it, inserted] = first.try_emplace(log.from[i], fd);
      if (!inserted && fd.arrival_us < it->second.arrival_us) it->second = fd;
      continue;
    }
    if (!IsBlockMessage(log.kind[i]) || !log.delivered(i)) continue;
    FirstDelivery fd;
    fd.arrival_us = log.arrival_us[i];
    fd.from = log.from[i];
    fd.hop = log.hop[i];
    fd.via = static_cast<EdgeKind>(log.kind[i]);
    auto [it, inserted] = first.try_emplace(log.to[i], fd);
    if (!inserted && fd.arrival_us < it->second.arrival_us) it->second = fd;
  }
  return first;
}

}  // namespace

std::vector<std::uint64_t> BlockObjects(const obs::ProvenanceLog& log) {
  std::vector<std::uint64_t> objects;
  std::unordered_map<std::uint64_t, bool> seen;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const std::uint64_t object = log.object[i];
    if (object == 0) continue;  // tx batches / fetch-only rows
    if (seen.try_emplace(object, true).second) objects.push_back(object);
  }
  return objects;
}

DisseminationTree BuildDisseminationTree(const obs::ProvenanceLog& log,
                                         std::uint64_t object) {
  DisseminationTree tree;
  tree.object = object;

  const auto first = FirstDeliveries(log, object);

  // Second pass: redundancy/waste attribution + block number. The first
  // delivery per host is the earliest row in log order at the minimum
  // arrival — the same tie-break FirstDeliveries applies — so one claim
  // flag per host identifies exactly that edge.
  std::unordered_map<std::uint32_t, bool> claimed;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log.object[i] != object) continue;
    if (IsOrigin(log.kind[i])) {
      tree.number = log.number[i];
      continue;
    }
    if (!IsBlockMessage(log.kind[i])) continue;
    if (tree.number == 0 && log.number[i] != 0) tree.number = log.number[i];
    if (!log.delivered(i)) {
      if (log.drop[i] != 0) ++tree.dropped_edges;
      continue;
    }
    tree.total_bytes += log.bytes[i];
    auto it = first.find(log.to[i]);
    bool is_first = false;
    if (it != first.end() && !it->second.is_origin &&
        it->second.arrival_us == log.arrival_us[i] &&
        claimed.try_emplace(log.to[i], true).second) {
      is_first = true;
    }
    if (!is_first) {
      ++tree.redundant_edges;
      tree.wasted_bytes += log.bytes[i];
    }
  }

  tree.nodes.reserve(first.size());
  for (const auto& [host, fd] : first) {
    TreeNode node;
    node.host = host;
    node.parent_host = fd.from;
    node.first_arrival_us = fd.arrival_us;
    node.hop = fd.hop;
    node.via = fd.via;
    tree.nodes.push_back(node);
  }
  // Deterministic order regardless of hash-map iteration.
  std::sort(tree.nodes.begin(), tree.nodes.end(),
            [](const TreeNode& a, const TreeNode& b) {
              if (a.first_arrival_us != b.first_arrival_us)
                return a.first_arrival_us < b.first_arrival_us;
              return a.host < b.host;
            });
  return tree;
}

std::uint16_t HopDepthDistribution::Quantile(double q) const {
  if (depths.empty()) return 0;
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(depths.size())));
  return depths[rank == 0 ? 0 : rank - 1];
}

HopDepthDistribution HopDepths(const obs::ProvenanceLog& log) {
  HopDepthDistribution dist;
  // (object, host) -> first delivery (min arrival), origin hosts at depth 0.
  struct Entry {
    std::int64_t arrival_us;
    std::uint16_t hop;
  };
  std::unordered_map<std::uint64_t, std::unordered_map<std::uint32_t, Entry>>
      firsts;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log.object[i] == 0) continue;
    std::uint32_t host;
    Entry entry;
    if (IsOrigin(log.kind[i])) {
      host = log.from[i];
      entry = Entry{log.arrival_us[i], 0};
    } else if (IsBlockMessage(log.kind[i]) && log.delivered(i)) {
      host = log.to[i];
      entry = Entry{log.arrival_us[i], log.hop[i]};
    } else {
      continue;
    }
    auto& per_host = firsts[log.object[i]];
    auto [it, inserted] = per_host.try_emplace(host, entry);
    if (!inserted && entry.arrival_us < it->second.arrival_us)
      it->second = entry;
  }
  double sum = 0;
  for (const auto& [object, per_host] : firsts) {
    for (const auto& [host, entry] : per_host) {
      dist.depths.push_back(entry.hop);
      sum += entry.hop;
      if (entry.hop > dist.max) dist.max = entry.hop;
    }
  }
  std::sort(dist.depths.begin(), dist.depths.end());
  if (!dist.depths.empty())
    dist.mean = sum / static_cast<double>(dist.depths.size());
  return dist;
}

FirstDeliveryShares FirstDeliveryBreakdown(const obs::ProvenanceLog& log) {
  FirstDeliveryShares shares;
  for (const std::uint64_t object : BlockObjects(log)) {
    for (const auto& [host, fd] : FirstDeliveries(log, object)) {
      if (fd.is_origin) continue;  // the miner did not "receive" its block
      switch (fd.via) {
        case EdgeKind::kNewBlock: ++shares.push; break;
        case EdgeKind::kAnnouncement: ++shares.announce; break;
        case EdgeKind::kBlockResponse: ++shares.fetched; break;
        default: break;
      }
    }
  }
  return shares;
}

RedundancyResult RedundancyFromProvenance(const obs::ProvenanceLog& log,
                                          std::uint32_t host,
                                          Duration settle) {
  RedundancyResult result;

  // Mirror of BlockReceptionRedundancy over the provenance stream: count
  // every delivered block message at `host`, track per-block first arrival
  // and the global last arrival, exclude blocks still settling at cutoff.
  // Sim-clock vs observer-local-clock: the vantage's constant offset shifts
  // first and last equally, so the exclusion predicate — and therefore every
  // count — matches the observer-log computation exactly.
  struct Counts {
    std::uint32_t announcements = 0;
    std::uint32_t whole = 0;
    std::int64_t first = 0;
  };
  std::unordered_map<std::uint64_t, Counts> per_block;
  std::int64_t last = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log.to[i] != host || IsOrigin(log.kind[i])) continue;
    if (!IsBlockMessage(log.kind[i]) || !log.delivered(i)) continue;
    const std::int64_t arrival = log.arrival_us[i];
    auto [it, inserted] = per_block.try_emplace(log.object[i]);
    if (inserted || arrival < it->second.first) it->second.first = arrival;
    if (static_cast<EdgeKind>(log.kind[i]) == EdgeKind::kAnnouncement) {
      ++it->second.announcements;
    } else {
      ++it->second.whole;
    }
    if (arrival > last) last = arrival;
  }

  SampleSet ann, whole, both;
  for (const auto& [object, counts] : per_block) {
    if (counts.first + settle.micros() > last) continue;  // still settling
    ++result.blocks;
    ann.Add(counts.announcements);
    whole.Add(counts.whole);
    both.Add(counts.announcements + counts.whole);
  }
  result.announcements = StatsFrom(ann);
  result.whole_blocks = StatsFrom(whole);
  result.combined = StatsFrom(both);
  return result;
}

std::vector<HostWaste> WasteByHost(const obs::ProvenanceLog& log) {
  struct State {
    HostWaste waste;
    std::unordered_map<std::uint64_t, std::int64_t> first_arrival;
  };
  std::unordered_map<std::uint32_t, State> hosts;

  // Pass 1: per-(host, object) earliest delivered arrival.
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (IsOrigin(log.kind[i])) continue;
    if (!IsBlockMessage(log.kind[i]) || !log.delivered(i)) continue;
    State& state = hosts[log.to[i]];
    auto [it, inserted] =
        state.first_arrival.try_emplace(log.object[i], log.arrival_us[i]);
    if (!inserted && log.arrival_us[i] < it->second)
      it->second = log.arrival_us[i];
  }
  // Pass 2: everything after (or tying past the claimed slot of) the first
  // arrival is redundant. Exactly one edge per (host, object) — the earliest
  // row in log order at the minimum arrival — counts as the first.
  std::unordered_map<std::uint32_t, std::unordered_map<std::uint64_t, bool>>
      claimed;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (IsOrigin(log.kind[i])) continue;
    if (!IsBlockMessage(log.kind[i]) || !log.delivered(i)) continue;
    State& state = hosts[log.to[i]];
    HostWaste& waste = state.waste;
    waste.host = log.to[i];
    ++waste.receptions;
    const std::int64_t first = state.first_arrival.at(log.object[i]);
    bool redundant = true;
    if (log.arrival_us[i] == first &&
        claimed[log.to[i]].try_emplace(log.object[i], true).second) {
      redundant = false;
    }
    if (redundant) {
      ++waste.redundant_receptions;
      waste.wasted_bytes += log.bytes[i];
    }
  }

  std::vector<HostWaste> result;
  result.reserve(hosts.size());
  for (const auto& [host, state] : hosts) result.push_back(state.waste);
  std::sort(result.begin(), result.end(),
            [](const HostWaste& a, const HostWaste& b) {
              if (a.wasted_bytes != b.wasted_bytes)
                return a.wasted_bytes > b.wasted_bytes;
              return a.host < b.host;
            });
  return result;
}

std::vector<DegreeEstimate> InferDegrees(const obs::ProvenanceLog& log,
                                         Duration settle) {
  // Ethna's observation: with one announce-or-push per neighbor per block,
  // a node's reception count per settled block estimates its degree.
  // Global first appearance per object (origin or earliest delivery).
  std::unordered_map<std::uint64_t, std::int64_t> block_first;
  std::int64_t last = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log.object[i] == 0) continue;
    std::int64_t t;
    if (IsOrigin(log.kind[i])) {
      t = log.arrival_us[i];
    } else if (IsBlockMessage(log.kind[i]) && log.delivered(i)) {
      t = log.arrival_us[i];
    } else {
      continue;
    }
    auto [it, inserted] = block_first.try_emplace(log.object[i], t);
    if (!inserted && t < it->second) it->second = t;
    if (t > last) last = t;
  }

  struct Tally {
    std::unordered_map<std::uint64_t, std::uint64_t> per_block;
  };
  std::unordered_map<std::uint32_t, Tally> hosts;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (IsOrigin(log.kind[i])) continue;
    if (!IsBlockMessage(log.kind[i]) || !log.delivered(i)) continue;
    const auto first = block_first.find(log.object[i]);
    if (first == block_first.end() ||
        first->second + settle.micros() > last)
      continue;  // still settling: copies may be in flight
    ++hosts[log.to[i]].per_block[log.object[i]];
  }

  std::vector<DegreeEstimate> estimates;
  estimates.reserve(hosts.size());
  for (const auto& [host, tally] : hosts) {
    DegreeEstimate estimate;
    estimate.host = host;
    estimate.blocks = tally.per_block.size();
    std::uint64_t receptions = 0;
    for (const auto& [object, count] : tally.per_block) receptions += count;
    if (estimate.blocks > 0)
      estimate.estimated_degree = static_cast<double>(receptions) /
                                  static_cast<double>(estimate.blocks);
    estimates.push_back(estimate);
  }
  std::sort(estimates.begin(), estimates.end(),
            [](const DegreeEstimate& a, const DegreeEstimate& b) {
              return a.host < b.host;
            });
  return estimates;
}

namespace {

// Region tag for JSON rows; "?" when the host has no recorded region.
std::string HostRegion(const obs::ProvenanceLog& log, std::uint32_t host) {
  if (host < log.host_region.size() &&
      log.host_region[host] != obs::kUnknownRegion)
    return std::string(net::RegionShortName(
        static_cast<net::Region>(log.host_region[host])));
  return "?";
}

void AppendF(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

}  // namespace

std::string RenderRedundancyJson(const obs::ProvenanceLog& log,
                                 std::size_t top) {
  const std::vector<HostWaste> waste = WasteByHost(log);
  std::uint64_t total_recv = 0, total_wasted = 0;
  for (const HostWaste& entry : waste) {
    total_recv += entry.receptions;
    total_wasted += entry.wasted_bytes;
  }
  std::string out;
  AppendF(out,
          "{\"hosts\": %zu, \"receptions\": %" PRIu64
          ", \"wasted_bytes\": %" PRIu64 ", \"per_host\": [",
          waste.size(), total_recv, total_wasted);
  std::size_t shown = 0;
  for (const HostWaste& entry : waste) {
    if (shown >= top) break;
    AppendF(out,
            "%s{\"host\": %u, \"region\": \"%s\", \"receptions\": %" PRIu64
            ", \"redundant\": %" PRIu64 ", \"wasted_bytes\": %" PRIu64 "}",
            shown == 0 ? "" : ", ", entry.host,
            HostRegion(log, entry.host).c_str(), entry.receptions,
            entry.redundant_receptions, entry.wasted_bytes);
    ++shown;
  }
  out += "]}\n";
  return out;
}

std::string RenderHopsJson(const obs::ProvenanceLog& log) {
  const HopDepthDistribution dist = HopDepths(log);
  const FirstDeliveryShares shares = FirstDeliveryBreakdown(log);
  std::string out;
  AppendF(out,
          "{\"pairs\": %zu, \"mean\": %.6g, \"p50\": %u, \"p90\": %u, "
          "\"p99\": %u, \"max\": %u, \"first_delivery\": {\"push\": %" PRIu64
          ", \"announce\": %" PRIu64 ", \"fetched\": %" PRIu64 "}}\n",
          dist.depths.size(), dist.mean, dist.Quantile(0.50),
          dist.Quantile(0.90), dist.Quantile(0.99), dist.max, shares.push,
          shares.announce, shares.fetched);
  return out;
}

}  // namespace ethsim::analysis
