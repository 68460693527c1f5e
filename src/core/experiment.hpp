// The experiment runner: builds the overlay (gateways, plain nodes, vantage
// observers), wires the topology through Kademlia lookups, starts the PoW
// race and the transaction workload, runs the clock, and hands the observer
// logs + mint catalog to the analysis pipeline.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "chain/block_arena.hpp"
#include "chain/block_dag.hpp"
#include "chain/tx_store.hpp"
#include "core/config.hpp"
#include "eth/node.hpp"
#include "fault/controller.hpp"
#include "measure/observer.hpp"
#include "miner/mining.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace ethsim::core {

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  // Builds and runs the full study once. Subsequent calls are no-ops.
  void Run();

  const ExperimentConfig& config() const { return config_; }
  sim::Simulator& simulator() { return sim_; }
  const sim::Simulator& simulator() const { return sim_; }

  const std::vector<std::unique_ptr<measure::Observer>>& observers() const {
    return observers_;
  }
  const miner::MiningCoordinator& coordinator() const { return *coordinator_; }
  const std::vector<miner::MintRecord>& minted() const {
    return coordinator_->minted();
  }
  const workload::WorkloadGenerator& workload() const { return *workload_; }
  // A converged full node's view of the chain at the end of the run.
  const chain::BlockTree& reference_tree() const {
    return coordinator_->reference_tree();
  }
  const std::vector<std::unique_ptr<eth::EthNode>>& nodes() const {
    return nodes_;
  }
  chain::BlockPtr genesis() const { return genesis_; }
  // Every tx submitted in this world, by the id the nodes carry.
  const chain::TxStore& tx_store() const { return txs_; }
  const net::Network& network() const { return *net_; }

  // The run's telemetry facade; null when config().telemetry has every
  // stream disabled (the normal fast path).
  obs::Telemetry* telemetry() { return telemetry_.get(); }
  const obs::Telemetry* telemetry() const { return telemetry_.get(); }

  // The fault controller; null when config().fault_plan is empty (the
  // fault-free fast path — nothing is constructed, nothing scheduled).
  const fault::FaultController* fault() const { return fault_.get(); }

 private:
  void Build();
  void BuildTopology(Rng rng);
  // State-sampling flight recorder glue (ETHSIM_SAMPLE). The sampler itself
  // lives in obs and cannot schedule events (obs never includes sim), so the
  // experiment registers the probes and drives the cadence with a
  // self-rescheduling sim event. Neither runs when the gate is off.
  void RegisterSamplerProbes();
  void ScheduleSamplerTick(obs::StateSampler* sampler, TimePoint end);

  ExperimentConfig config_;
  sim::Simulator sim_;
  // Constructed before any component so attach calls can hand out stable
  // instrument pointers; destroyed after them (declaration order).
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<net::Network> net_;
  // Owns every block body of the run (genesis + everything minted). Declared
  // before the node/miner/observer layers so the handles they hold stay
  // valid throughout teardown.
  chain::BlockArena arena_;
  // Every tx submitted in this world, once, under the dense id that the
  // nodes' pools, broadcast queues, Transactions messages and known-tx caches
  // carry (one body and one hash-index entry per tx; never shrinks). Per
  // world, never process-global: SeedSweepRunner runs worlds on parallel
  // threads. Declared before nodes_ like arena_, so it outlives them.
  chain::TxStore txs_;
  chain::BlockPtr genesis_ = nullptr;
  // The world block DAG every node's chain view reads: each block's parent,
  // height and total difficulty, once per world. Its ids also key the
  // known-block caches. Built with genesis_ in Build(), after arena_ (whose
  // blocks it points to) and before nodes_.
  std::optional<chain::BlockDag> dag_;
  // All full nodes: [gateways..., plain..., observers...]. Gateways first so
  // pool p's gateways are contiguous and discoverable by index.
  std::vector<std::unique_ptr<eth::EthNode>> nodes_;
  std::vector<std::unique_ptr<measure::Observer>> observers_;
  std::unique_ptr<miner::MiningCoordinator> coordinator_;
  std::unique_ptr<workload::WorkloadGenerator> workload_;
  std::unique_ptr<fault::FaultController> fault_;
  bool ran_ = false;
  bool built_ = false;
};

}  // namespace ethsim::core
