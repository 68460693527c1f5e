#include "miner/mining.hpp"

#include <algorithm>
#include <cassert>

namespace ethsim::miner {

MiningCoordinator::MiningCoordinator(sim::Simulator& simulator,
                                     chain::BlockArena& arena, Rng rng,
                                     MiningParams params,
                                     std::vector<PoolSpec> pools)
    : sim_(simulator),
      arena_(arena),
      rng_(rng),
      params_(params),
      pools_(std::move(pools)) {
  assert(!pools_.empty());
  states_.resize(pools_.size());
  minted_count_.assign(pools_.size(), nullptr);
  fork_count_.assign(pools_.size(), nullptr);
  empty_count_.assign(pools_.size(), nullptr);
  std::vector<double> shares;
  shares.reserve(pools_.size());
  for (const auto& p : pools_) shares.push_back(p.hashrate_share);
  winner_sampler_ = std::make_unique<AliasSampler>(shares);
}

void MiningCoordinator::AddGateway(std::size_t pool_index, eth::EthNode* node) {
  assert(pool_index < states_.size() && node != nullptr);
  PoolState& state = states_[pool_index];
  state.gateways.push_back(node);
  // Pools retarget after the gateway's import completes plus the stratum
  // job-distribution delay.
  node->set_head_callback([this, pool_index](chain::BlockPtr head) {
    const Duration delay = pools_[pool_index].policy.job_update_delay;
    sim_.Schedule(delay, [this, pool_index, head = std::move(head)]() mutable {
      OnGatewayHead(pool_index, std::move(head));
    });
  });
}

void MiningCoordinator::OnGatewayHead(std::size_t pool_index,
                                      chain::BlockPtr head) {
  PoolState& state = states_[pool_index];
  // Adopt only if strictly better than the current mining target (by the
  // gateway's own total-difficulty view; number is a close deterministic
  // proxy that avoids cross-node tree lookups).
  if (!state.mining_head ||
      head->header.number > state.mining_head->header.number ||
      (head->header.number == state.mining_head->header.number &&
       head->hash != state.mining_head->hash &&
       head->header.difficulty > state.mining_head->header.difficulty)) {
    state.mining_head = std::move(head);
  }
}

void MiningCoordinator::AttachTelemetry(obs::Telemetry* telemetry) {
  mine_tracer_ = nullptr;
  txprov_ = nullptr;
  minted_count_.assign(pools_.size(), nullptr);
  fork_count_.assign(pools_.size(), nullptr);
  empty_count_.assign(pools_.size(), nullptr);
  if (telemetry == nullptr) return;

  txprov_ = telemetry->txprov();

  if (obs::Tracer* tracer = telemetry->tracer();
      tracer != nullptr && tracer->enabled(obs::TraceCategory::kMine)) {
    mine_tracer_ = tracer;
  }
  if (obs::MetricsRegistry* metrics = telemetry->metrics()) {
    for (std::size_t i = 0; i < pools_.size(); ++i) {
      const std::string_view pool_name = pools_[i].name;
      minted_count_[i] = metrics->GetCounter(
          obs::LabeledName("mine.minted", {{"pool", pool_name}}));
      fork_count_[i] = metrics->GetCounter(
          obs::LabeledName("mine.fork_siblings", {{"pool", pool_name}}));
      empty_count_[i] = metrics->GetCounter(
          obs::LabeledName("mine.empty_blocks", {{"pool", pool_name}}));
    }
  }
}

const chain::BlockTree& MiningCoordinator::reference_tree() const {
  assert(!states_[0].gateways.empty());
  return states_[0].gateways.front()->tree();
}

void MiningCoordinator::Start() {
  assert(!started_);
  started_ = true;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    PoolState& state = states_[i];
    assert(!state.gateways.empty() && "every pool needs a gateway");
    // Release weights follow the spec when one node was registered per
    // declared gateway; otherwise fall back to uniform.
    std::vector<double> weights;
    if (pools_[i].gateways.size() == state.gateways.size()) {
      for (const auto& gw : pools_[i].gateways) weights.push_back(gw.weight);
    } else {
      weights.assign(state.gateways.size(), 1.0);
    }
    state.sampler_storage = std::make_unique<AliasSampler>(weights);
    state.gateway_sampler = state.sampler_storage.get();
    state.mining_head = state.gateways.front()->tree().head();
  }
  ScheduleNextBlock();
}

void MiningCoordinator::ScheduleNextBlock() {
  // Expected interval = difficulty / hashrate. With adjustment enabled the
  // pace follows the chain's difficulty; otherwise it stays at the target.
  double mean_seconds = params_.target_interval.seconds();
  if (params_.adjust_difficulty) {
    const chain::BlockPtr ref = states_[0].mining_head;
    if (ref && ref->header.difficulty > 0)
      mean_seconds =
          static_cast<double>(ref->header.difficulty) / params_.total_hashrate;
  }
  const Duration wait = Duration::Seconds(rng_.NextExponential(mean_seconds));
  sim_.Schedule(wait, [this] { OnBlockFound(); });
}

chain::BlockPtr MiningCoordinator::AssembleBlock(std::size_t pool_index,
                                                 bool force_empty,
                                                 const chain::BlockPtr& parent,
                                                 std::uint64_t extra_seed) {
  const PoolSpec& spec = pools_[pool_index];
  PoolState& state = states_[pool_index];
  eth::EthNode* primary = state.gateways.front();

  chain::Block block;
  block.header.parent_hash = parent->hash;
  block.header.number = parent->header.number + 1;
  block.header.miner = spec.coinbase;
  block.header.gas_limit = params_.gas_limit;
  block.header.mix_seed = rng_.Next() ^ extra_seed;

  // Timestamp in whole seconds, strictly increasing along the chain.
  block.header.timestamp =
      std::max<std::uint64_t>(parent->header.timestamp + 1,
                              static_cast<std::uint64_t>(sim_.Now().seconds()));

  if (params_.adjust_difficulty) {
    block.header.difficulty = chain::NextDifficulty(
        parent->header.difficulty, parent->header.timestamp,
        !parent->uncles.empty(), block.header.timestamp, block.header.number,
        params_.difficulty);
  } else {
    block.header.difficulty = parent->header.difficulty;
  }

  if (!force_empty) {
    block.transactions =
        primary->pool().SelectForBlock(params_.gas_limit, params_.max_block_txs);
  }
  // Uncle references come from the primary gateway's tree, which may not yet
  // contain the (stale) mining head — in that case skip uncles.
  if (primary->tree().Contains(parent->hash))
    block.uncles = primary->tree().UncleCandidates(
        parent->hash, 2, params_.forbid_one_miner_uncles);

  block.Seal();
  chain::BlockPtr sealed = arena_.Adopt(std::move(block));
  // Selection is attributed to the primary gateway's host: its pool is where
  // the transactions were drawn from. Fork siblings copy the primary's
  // transaction set and are deliberately not re-recorded as selections.
  if (txprov_ != nullptr) [[unlikely]]
    for (const auto& tx : sealed->transactions)
      txprov_->RecordSelected(primary->host(), tx.hash, sim_.Now().micros(),
                              static_cast<std::uint16_t>(pool_index),
                              sealed->hash, sealed->header.number);
  return sealed;
}

void MiningCoordinator::TraceMineInstant(const char* name,
                                         std::size_t pool_index,
                                         const chain::Block& block,
                                         std::uint32_t tid) {
  obs::TraceEvent event;
  event.name = name;
  event.arg_kind = pools_[pool_index].name.c_str();
  event.ts_us = sim_.Now().micros();
  event.arg_hash = block.hash.prefix_u64();
  event.arg_num = block.header.number;
  event.pid = static_cast<std::uint32_t>(pool_index);
  event.tid = tid;
  event.cat = obs::TraceCategory::kMine;
  event.phase = 'i';
  mine_tracer_->Emit(event);
}

void MiningCoordinator::Release(std::size_t pool_index,
                                const chain::BlockPtr& block) {
  PoolState& state = states_[pool_index];
  // Sample the gateway FIRST, unconditionally: the draw keeps its exact
  // position in the random stream whether or not the sampled gateway is up,
  // so arming a gateway outage can never shift an unrelated stream.
  eth::EthNode* gateway =
      state.gateways[state.gateway_sampler->Sample(rng_)];
  if (!gateway->online()) [[unlikely]] {
    gateway = nullptr;
    if (pools_[pool_index].policy.gateway_outage ==
        GatewayOutagePolicy::kFallback) {
      // Deterministic failover: first online gateway in registration order.
      for (eth::EthNode* candidate : state.gateways) {
        if (candidate->online()) {
          gateway = candidate;
          break;
        }
      }
    }
    if (gateway == nullptr) {
      // Park the block; NotifyGatewayRestored re-releases it. The pool's own
      // workers still switch to it — pool-internal propagation does not go
      // through the public gateway.
      ++stalled_releases_;
      state.stalled_blocks.push_back(block);
      if (mine_tracer_ != nullptr) [[unlikely]]
        TraceMineInstant("mine.release_stalled", pool_index, *block);
      if (!state.mining_head ||
          block->header.number > state.mining_head->header.number)
        state.mining_head = block;
      return;
    }
  }
  if (mine_tracer_ != nullptr) [[unlikely]]
    TraceMineInstant("mine.release", pool_index, *block, gateway->host());
  gateway->InjectMinedBlock(block);
  // Pool-local propagation is immediate: its own workers switch as soon as
  // their own block is out (no job-update delay for self-mined blocks).
  if (!state.mining_head ||
      block->header.number > state.mining_head->header.number)
    state.mining_head = block;
}

void MiningCoordinator::NotifyGatewayRestored(std::size_t pool_index) {
  assert(pool_index < states_.size());
  PoolState& state = states_[pool_index];
  if (state.stalled_blocks.empty()) return;
  // Flush in mint order. Release() may park a block again if the restored
  // gateway crashed in the meantime, so swap the queue out first.
  std::vector<chain::BlockPtr> pending;
  pending.swap(state.stalled_blocks);
  for (const chain::BlockPtr& block : pending) Release(pool_index, block);
}

std::size_t MiningCoordinator::online_gateways() const {
  std::size_t online = 0;
  for (const PoolState& state : states_)
    for (const eth::EthNode* gateway : state.gateways)
      if (gateway->online()) ++online;
  return online;
}

std::size_t MiningCoordinator::parked_releases() const {
  std::size_t parked = 0;
  for (const PoolState& state : states_) parked += state.stalled_blocks.size();
  return parked;
}

void MiningCoordinator::OnBlockFound() {
  ++blocks_found_;
  const std::size_t winner = winner_sampler_->Sample(rng_);
  const PoolSpec& spec = pools_[winner];
  PoolState& state = states_[winner];
  const chain::BlockPtr parent = state.mining_head;
  assert(parent);

  const bool force_empty = rng_.NextBool(spec.policy.empty_block_rate);
  const chain::BlockPtr primary = AssembleBlock(winner, force_empty, parent, 0);

  minted_.push_back(MintRecord{primary, winner, sim_.Now(), force_empty, false,
                               Hash32{}, false});
  if (minted_count_[winner] != nullptr) [[unlikely]] {
    minted_count_[winner]->Add();
    if (force_empty) empty_count_[winner]->Add();
  }
  if (mine_tracer_ != nullptr) [[unlikely]]
    TraceMineInstant("mine.mint", winner, *primary);
  Release(winner, primary);

  // One-miner forks (§III-C5): the pool emits one (or, rarely, two) extra
  // sibling blocks at the same height.
  const double p_same = spec.policy.one_miner_fork_same_txset_rate;
  const double p_distinct = spec.policy.one_miner_fork_distinct_txset_rate;
  const double roll = rng_.NextDouble();
  if (roll < p_same + p_distinct) {
    const bool want_same = roll < p_same;
    const int extra = rng_.NextBool(spec.policy.fork_triple_rate) ? 2 : 1;
    for (int i = 0; i < extra; ++i) {
      chain::BlockPtr sibling = nullptr;
      if (want_same) {
        // Partition/server race: identical content, new PoW identity.
        chain::Block copy{*primary};
        copy.header.mix_seed = rng_.Next();
        copy.Seal();
        sibling = arena_.Adopt(std::move(copy));
      } else {
        // Intentional double-mining with a different transaction set.
        chain::Block copy{*primary};
        copy.header.mix_seed = rng_.Next();
        if (!copy.transactions.empty()) {
          copy.transactions.pop_back();
        } else {
          // Nothing to vary: flip emptiness if the pool has anything queued.
          copy.transactions = state.gateways.front()->pool().SelectForBlock(
              params_.gas_limit, 1);
        }
        copy.Seal();
        sibling = arena_.Adopt(std::move(copy));
      }
      const bool actually_same =
          sibling->header.tx_root == primary->header.tx_root;
      minted_.push_back(MintRecord{sibling, winner, sim_.Now(), force_empty,
                                   true, primary->hash, actually_same});
      if (fork_count_[winner] != nullptr) [[unlikely]] fork_count_[winner]->Add();
      if (mine_tracer_ != nullptr) [[unlikely]]
        TraceMineInstant("mine.fork_sibling", winner, *sibling);
      sim_.Schedule(params_.sibling_release_delay * static_cast<double>(i + 1),
                    [this, winner, sibling] { Release(winner, sibling); });
    }
  }

  ScheduleNextBlock();
}

}  // namespace ethsim::miner
