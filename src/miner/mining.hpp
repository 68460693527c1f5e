// The PoW race. A single exponential clock (rate = total_hashrate /
// current_difficulty) decides when the *network* finds a block; an alias
// sampler over hashrate shares decides *which pool* found it. The winner
// assembles on its own — possibly stale — mining context: pools learn about
// new heads only after their gateway imports the block plus a stratum-style
// job-update delay. That staleness window is what generates forks and
// uncles at the observed rate.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chain/block.hpp"
#include "chain/block_arena.hpp"
#include "chain/blocktree.hpp"
#include "chain/difficulty.hpp"
#include "common/random.hpp"
#include "common/time.hpp"
#include "eth/node.hpp"
#include "miner/pool.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"

namespace ethsim::miner {

// Ground-truth record of every block created, kept by the coordinator. The
// analysis pipeline joins observer logs against this catalog (the paper used
// Etherscan/Etherchain for the same purpose).
struct MintRecord {
  chain::BlockPtr block = nullptr;
  std::size_t pool_index = 0;
  TimePoint mined_at;
  bool deliberate_empty = false;
  // One-miner-fork bookkeeping: extra sibling blocks reference the primary.
  bool is_fork_sibling = false;
  Hash32 primary_sibling;   // hash of the primary block (zero if primary)
  bool same_txset_as_primary = false;
};

struct MiningParams {
  Duration target_interval = Duration::Seconds(13.3);
  // Network hashrate in the difficulty's own unit/second; the absolute scale
  // is arbitrary, only difficulty/hashrate (= expected interval) matters.
  double total_hashrate = 150e12;
  std::uint64_t gas_limit = 8'000'000;
  std::size_t max_block_txs = 200;
  chain::DifficultyParams difficulty;
  bool adjust_difficulty = true;
  // §V's proposed protocol change: refuse uncle references to blocks whose
  // miner already produced the main-chain block at the same height. Used by
  // the ablation bench to validate the paper's fix.
  bool forbid_one_miner_uncles = false;
  // Delay between the primary release and its one-miner-fork sibling
  // (distinct gateway/server of the same pool).
  Duration sibling_release_delay = Duration::Millis(150);
};

class MiningCoordinator {
 public:
  // Every block the coordinator mints is adopted into `arena`, which must
  // outlive the coordinator and every node holding handles to its blocks.
  MiningCoordinator(sim::Simulator& simulator, chain::BlockArena& arena,
                    Rng rng, MiningParams params, std::vector<PoolSpec> pools);

  // Registers a gateway node for a pool. The first gateway added for a pool
  // becomes its primary (tx source and default release point).
  void AddGateway(std::size_t pool_index, eth::EthNode* node);

  // Begins the PoW race. Every pool must have at least one gateway.
  void Start();

  // Wires mint/release tracing (kMine category; pid = pool index) and
  // per-pool minted/fork counters. Record-only: never touches rng_ and never
  // schedules events, so an attached race is identical to a detached one.
  void AttachTelemetry(obs::Telemetry* telemetry);

  const std::vector<PoolSpec>& pools() const { return pools_; }
  const std::vector<MintRecord>& minted() const { return minted_; }
  std::uint64_t blocks_found() const { return blocks_found_; }

  // --- fault hooks (driven by fault::FaultController) ---------------------
  // Re-releases any blocks a kStall pool held while its gateways were down.
  // Called by the fault layer after it brings a gateway back online.
  void NotifyGatewayRestored(std::size_t pool_index);
  // Releases that found every gateway offline and were parked (kStall, or
  // kFallback with zero survivors). Each parked block counts once even if it
  // is re-released later.
  std::uint64_t releases_stalled() const { return stalled_releases_; }

  // Pool-gateway health for the state sampler: declared gateways whose node
  // is currently online, and freshly mined blocks parked behind a kStall
  // outage (flushed by NotifyGatewayRestored).
  std::size_t online_gateways() const;
  std::size_t parked_releases() const;

  // The coordinator's reference view (primary gateway of pool 0), used for
  // difficulty pacing and end-of-run analysis.
  const chain::BlockTree& reference_tree() const;

 private:
  struct PoolState {
    std::vector<eth::EthNode*> gateways;
    AliasSampler* gateway_sampler = nullptr;  // built in Start()
    std::unique_ptr<AliasSampler> sampler_storage;
    // The head the pool's workers are currently mining on (job latency
    // behind the gateway's actual head).
    chain::BlockPtr mining_head = nullptr;
    // Blocks parked during a gateway outage, flushed in mint order by
    // NotifyGatewayRestored.
    std::vector<chain::BlockPtr> stalled_blocks;
  };

  void ScheduleNextBlock();
  void OnBlockFound();
  chain::BlockPtr AssembleBlock(std::size_t pool_index, bool force_empty,
                                const chain::BlockPtr& parent,
                                std::uint64_t extra_seed);
  void Release(std::size_t pool_index, const chain::BlockPtr& block);
  void OnGatewayHead(std::size_t pool_index, chain::BlockPtr head);
  // Emits a mining instant on the pool's trace lane; `tid` names the gateway
  // a release goes out through. Callers check mine_tracer_ != nullptr first
  // (hot-path single-branch contract).
  void TraceMineInstant(const char* name, std::size_t pool_index,
                        const chain::Block& block, std::uint32_t tid = 0);

  sim::Simulator& sim_;
  chain::BlockArena& arena_;
  Rng rng_;
  MiningParams params_;
  std::vector<PoolSpec> pools_;
  std::vector<PoolState> states_;
  std::unique_ptr<AliasSampler> winner_sampler_;
  std::vector<MintRecord> minted_;
  std::uint64_t blocks_found_ = 0;
  std::uint64_t stalled_releases_ = 0;
  bool started_ = false;

  // Telemetry (null = disabled). Per-pool counters are resolved once at
  // attach time; indices line up with pools_.
  obs::Tracer* mine_tracer_ = nullptr;  // kMine category pre-checked
  // Tx-lifecycle recorder: AssembleBlock stamps a kSelected stage (with the
  // winning pool index) for every transaction drawn into a block.
  obs::TxProvRecorder* txprov_ = nullptr;
  std::vector<obs::Counter*> minted_count_;
  std::vector<obs::Counter*> fork_count_;
  std::vector<obs::Counter*> empty_count_;
};

}  // namespace ethsim::miner
