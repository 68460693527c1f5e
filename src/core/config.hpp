// Experiment configuration: everything §II describes — the overlay
// population, the four vantage points, the pool roster, the transaction
// workload — in one value type. A run is a pure function of (config, seed).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "eth/node.hpp"
#include "fault/plan.hpp"
#include "miner/mining.hpp"
#include "miner/pool.hpp"
#include "net/geo.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "workload/plan.hpp"

namespace ethsim::core {

struct VantageSpec {
  std::string name;       // "NA", "EA", ...
  net::Region region = net::Region::WesternEurope;
  // How many peers the measurement node dials. The paper's main vantages ran
  // "unlimited" (>100 connected at all times); the Table II subsidiary run
  // used Geth's default 25.
  std::size_t connect_peers = 100;
};

// The legacy workload parameters now live beside the WorkloadPlan in
// src/workload/plan.hpp; the alias keeps every existing
// `core::TxWorkloadParams` reference working.
using TxWorkloadParams = workload::TxWorkloadParams;

struct ExperimentConfig {
  std::uint64_t seed = 42;
  Duration duration = Duration::Hours(1);

  // Plain (non-gateway, non-observer) overlay nodes and their placement.
  std::size_t peer_nodes = 200;
  std::array<double, net::kRegionCount> node_region_weights{
      0.20, 0.02, 0.19, 0.14, 0.08, 0.27, 0.06, 0.04};
  // Out-dials per plain node (Geth dials ~max_peers/3 and accepts the rest).
  std::size_t dials_per_node = 8;
  // Plain nodes get a lognormal validation-speed factor exp(N(mu, sigma)):
  // commodity hardware imports blocks several times slower than the
  // provisioned gateways/vantages. Median = e^mu.
  double plain_validation_mu = 1.4;
  double plain_validation_sigma = 1.0;

  eth::NodeConfig node_config;      // plain nodes (Geth default: 25 peers)
  eth::NodeConfig observer_config;  // vantage nodes (effectively unlimited)
  // Pool gateways run deliberately well-connected nodes (high maxpeers,
  // aggressive dialing) — that density is what lets a pool's region dominate
  // first observations (Figs 2-3).
  eth::NodeConfig gateway_config;
  std::size_t gateway_dials = 25;

  net::NetworkParams net_params;

  std::vector<VantageSpec> vantages;
  // Scale correction: in a 15k-node network a 25-peer client almost never
  // peers directly with a pool gateway (~0.3% of nodes); in our hundreds-
  // sized world gateways are ~10% of nodes. When set, observers dial only
  // plain nodes, restoring the realistic peer mix (used by the Table II
  // redundancy study, where peer identity drives the statistic).
  bool observers_avoid_gateways = false;

  miner::MiningParams mining;
  std::vector<miner::PoolSpec> pools;

  TxWorkloadParams workload;

  // Declarative traffic plan (empty by default). An empty plan is bit-for-bit
  // inert: the generator runs the legacy Poisson+burst+inversion process with
  // the historical draw order, so every pre-plan golden (datasets, head hash,
  // determinism digest) matches. A non-empty plan replaces the legacy process
  // entirely, IS part of the experiment identity, and enters the config
  // digest (the legacy `workload` fields are then ignored).
  workload::WorkloadPlan workload_plan;

  // Fault-injection timeline (empty by default). An empty plan is bit-for-bit
  // inert: no controller event is scheduled, no RNG stream shifts, and every
  // golden/digest matches a build without the fault layer. A non-empty plan
  // IS part of the experiment identity and enters the config digest.
  fault::FaultPlan fault_plan;

  // Observability gates (all off by default: hot paths then cost one
  // predicted branch). Enabling any stream cannot change results — telemetry
  // records only and is excluded from the config digest for that reason.
  // Entry points typically seed this from obs::TelemetryConfig::FromEnv().
  obs::TelemetryConfig telemetry;

  // First simulated block gets this number + 1 (the paper's range starts at
  // 7,479,573).
  std::uint64_t genesis_number = 7'479'573;

  // Structural validation of everything a run would otherwise only trip over
  // mid-simulation: probabilities outside [0, 1] (they flow straight into
  // Rng::NextBool), negative rates/means, malformed workload/fault plans,
  // no pools, a pool without gateways, share/weight vectors with a negative
  // entry or no positive one, and fewer than 2 nodes. Returns an empty
  // string when well-formed, else a description of the first violation.
  // Experiment::Build() rejects invalid configs.
  std::string Validate() const;
};

namespace presets {

// The §II deployment: four vantages (NA, EA, WE, CE) with >100 peers each,
// the Fig 3 pool roster, Geth-default plain nodes.
ExperimentConfig PaperStudy();

// A scaled-down variant for tests and fast benches: `nodes` plain nodes,
// same four vantages with proportionate peer counts.
ExperimentConfig SmallStudy(std::size_t nodes);

// The Table II subsidiary measurement: one WE vantage at Geth's default 25
// peers (May 2–9 in the paper).
ExperimentConfig DefaultPeersStudy();

}  // namespace presets

}  // namespace ethsim::core
