#include "analysis/inputs.hpp"

namespace ethsim::analysis {

std::unordered_map<Address, std::size_t> CoinbaseIndex(
    const std::vector<miner::PoolSpec>& pools) {
  std::unordered_map<Address, std::size_t> index;
  for (std::size_t i = 0; i < pools.size(); ++i)
    index.emplace(pools[i].coinbase, i);
  return index;
}

}  // namespace ethsim::analysis
