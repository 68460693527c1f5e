// Shared input bundle for the analysis pipeline: the multi-vantage observer
// logs, the mint catalog (ground truth, standing in for Etherscan), the pool
// roster, and a converged node's final block tree. Every figure/table module
// consumes a subset of this.
#pragma once

#include <unordered_map>
#include <vector>

#include "chain/blocktree.hpp"
#include "measure/observer.hpp"
#include "miner/mining.hpp"
#include "miner/pool.hpp"

namespace ethsim::analysis {

using ObserverSet = std::vector<const measure::Observer*>;

struct StudyInputs {
  ObserverSet observers;
  const std::vector<miner::MintRecord>* minted = nullptr;
  const std::vector<miner::PoolSpec>* pools = nullptr;
  const chain::BlockTree* reference = nullptr;
};

// Convenience: pool lookup by coinbase address.
std::unordered_map<Address, std::size_t> CoinbaseIndex(
    const std::vector<miner::PoolSpec>& pools);

}  // namespace ethsim::analysis
