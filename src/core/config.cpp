#include "core/config.hpp"

#include <span>

#include "common/fifo_id_set.hpp"

namespace ethsim::core {

namespace {

// Each weight >= 0 (NaN fails) and a positive total: what AliasSampler
// needs.
bool UsableWeights(std::span<const double> weights) {
  double total = 0;
  for (const double w : weights) {
    if (!(w >= 0)) return false;
    total += w;
  }
  return total > 0;
}

}  // namespace

std::string ExperimentConfig::Validate() const {
  // Probabilities feed Rng::NextBool unchecked: a negative value silently
  // never fires, > 1 always fires — both are config bugs, not models.
  if (workload.burst_prob < 0 || workload.burst_prob > 1)
    return "workload.burst_prob must be in [0, 1]";
  if (workload.inversion_prob < 0 || workload.inversion_prob > 1)
    return "workload.inversion_prob must be in [0, 1]";
  if (workload.inversion_delay_mean_s < 0)
    return "workload.inversion_delay_mean_s must be >= 0";
  if (workload.payload_mean_bytes < 0)
    return "workload.payload_mean_bytes must be >= 0";
  if (workload_plan.empty() && workload.accounts == 0)
    return "workload.accounts must be >= 1";
  if (net_params.drop_prob < 0 || net_params.drop_prob > 1)
    return "net.drop_prob must be in [0, 1]";
  if (net_params.slow_path_prob < 0 || net_params.slow_path_prob > 1)
    return "net.slow_path_prob must be in [0, 1]";
  // A FifoIdSet (known and seen caches) holds at most 65,535 ids.
  for (const auto& [name, config] :
       {std::pair{"node_config", &node_config},
        std::pair{"observer_config", &observer_config},
        std::pair{"gateway_config", &gateway_config}}) {
    for (const auto& [field, cap] :
         {std::pair{"known_txs_cap", config->known_txs_cap},
          std::pair{"known_blocks_cap", config->known_blocks_cap},
          std::pair{"seen_txs_cap", config->seen_txs_cap}}) {
      if (cap > FifoIdSet::kMaxCapacity)
        return std::string(name) + "." + field + " must be <= " +
               std::to_string(FifoIdSet::kMaxCapacity);
    }
  }
  // Alias tables (block winner, release gateway, node region) sample from
  // NaN unless their weights pass UsableWeights.
  if (pools.empty()) return "pools must not be empty";
  std::vector<double> shares;
  std::size_t nodes = peer_nodes + vantages.size();
  for (const miner::PoolSpec& pool : pools) {
    if (pool.gateways.empty())
      return "pool " + pool.name + " needs at least one gateway";
    std::vector<double> weights;
    for (const miner::GatewaySpec& gw : pool.gateways)
      weights.push_back(gw.weight);
    if (!UsableWeights(weights))
      return "pool " + pool.name +
             ": gateway weights must be >= 0 and not all zero";
    shares.push_back(pool.hashrate_share);
    nodes += pool.gateways.size();
  }
  if (!UsableWeights(shares))
    return "pools: hashrate_share must be >= 0 and not all zero";
  if (!UsableWeights(node_region_weights))
    return "node_region_weights must be >= 0 and not all zero";
  if (nodes < 2) return "the overlay needs at least 2 nodes";
  if (!workload_plan.empty()) {
    if (std::string problem = workload_plan.Validate(); !problem.empty())
      return "workload_plan: " + problem;
  }
  if (!fault_plan.empty()) {
    if (std::string problem = fault_plan.Validate(); !problem.empty())
      return "fault_plan: " + problem;
  }
  return {};
}

}  // namespace ethsim::core

namespace ethsim::core::presets {

namespace {

ExperimentConfig Base() {
  ExperimentConfig cfg;
  cfg.pools = miner::PaperPools();
  cfg.observer_config.max_peers = 1'000'000;  // §II: "unlimited"
  cfg.gateway_config.max_peers = 100;
  // Main-study observers connect broadly, gateways included. In a 15k-node
  // network they would mostly NOT peer with gateways, but they would sit in
  // a dense regional fabric; in a hundreds-sized world, gateway adjacency is
  // the faithful substitute for that density (see DESIGN.md scale notes).
  cfg.vantages = {
      {"NA", net::Region::NorthAmerica, 100},
      {"EA", net::Region::EasternAsia, 100},
      {"WE", net::Region::WesternEurope, 100},
      {"CE", net::Region::CentralEurope, 100},
  };
  return cfg;
}

}  // namespace

ExperimentConfig PaperStudy() {
  ExperimentConfig cfg = Base();
  cfg.peer_nodes = 300;
  cfg.duration = Duration::Hours(2);
  return cfg;
}

ExperimentConfig SmallStudy(std::size_t nodes) {
  ExperimentConfig cfg = Base();
  cfg.peer_nodes = nodes;
  cfg.duration = Duration::Minutes(30);
  const std::size_t peers = std::max<std::size_t>(8, nodes / 2);
  for (auto& v : cfg.vantages) v.connect_peers = peers;
  cfg.workload.accounts = std::max<std::size_t>(20, nodes);
  return cfg;
}

ExperimentConfig DefaultPeersStudy() {
  ExperimentConfig cfg = Base();
  // A larger overlay lengthens the multi-hop wave relative to one link
  // latency, which is what the redundancy statistics are sensitive to.
  cfg.peer_nodes = 320;
  cfg.duration = Duration::Hours(1);
  cfg.vantages = {{"WE-default", net::Region::WesternEurope, 25}};
  // The subsidiary node runs an unmodified-default config: 25 peers, and at
  // mainnet scale those peers are essentially never pool gateways.
  cfg.observer_config.max_peers = 25;
  cfg.observers_avoid_gateways = true;
  return cfg;
}

}  // namespace ethsim::core::presets
