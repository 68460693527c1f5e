// Microbenchmarks for the hot substrate paths (google-benchmark): hashing,
// RLP, the event queue, winner sampling, tree insertion, and a full
// block-gossip round. These guard the simulator's events/second budget and
// double as the ablation harness for DESIGN.md's engine choices.
//
// Besides the console table, the binary writes a curated machine-readable
// summary to BENCH_engine.json (path overridable via ETHSIM_BENCH_JSON) so
// the engine's events/second trajectory is tracked across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/block_arena.hpp"
#include "chain/blocktree.hpp"
#include "chain/txpool.hpp"
#include "common/keccak.hpp"
#include "common/random.hpp"
#include "common/rlp.hpp"
#include "eth/node.hpp"
#include "miner/pool.hpp"
#include "net/network.hpp"
#include "obs/tx_provenance.hpp"
#include "p2p/kademlia.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace {

using namespace ethsim;

// The genesis block every chain bench and bench world starts from.
chain::BlockPtr SealedGenesis(chain::BlockArena& arena) {
  chain::Block g;
  g.header.difficulty = 1000;
  g.Seal();
  return arena.Adopt(std::move(g));
}

void BM_Keccak256(benchmark::State& state) {
  const std::string input(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Keccak256Of(input));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Keccak256)->Arg(64)->Arg(512)->Arg(4096);

void BM_RlpEncodeHeader(benchmark::State& state) {
  chain::BlockHeader h;
  h.number = 7'500'000;
  h.difficulty = 2'000'000'000'000ULL;
  h.timestamp = 1'554'076'800;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain::EncodeHeader(h));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RlpEncodeHeader);

void BM_RlpDecodeRoundTrip(benchmark::State& state) {
  rlp::Encoder e;
  e.BeginList();
  for (int i = 0; i < 16; ++i) e.WriteUint(static_cast<std::uint64_t>(i) << 20);
  e.EndList();
  const rlp::Bytes encoded = e.Take();
  for (auto _ : state) {
    rlp::Item item;
    benchmark::DoNotOptimize(rlp::Decode(encoded, item));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RlpDecodeRoundTrip);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    std::uint64_t x = 99;
    for (std::size_t i = 0; i < n; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      simulator.Schedule(Duration::Micros(static_cast<std::int64_t>(x % 1'000'000)),
                         [] {});
    }
    simulator.RunAll();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1'000)->Arg(100'000);

void BM_AliasSamplerDraw(benchmark::State& state) {
  std::vector<double> shares;
  for (const auto& pool : miner::PaperPools()) shares.push_back(pool.hashrate_share);
  AliasSampler sampler{shares};
  Rng rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AliasSamplerDraw);

void BM_BlockTreeLinearInsert(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    chain::BlockArena arena;
    const chain::BlockPtr genesis = SealedGenesis(arena);
    std::vector<chain::BlockPtr> blocks;
    chain::BlockPtr tip = genesis;
    for (std::uint64_t i = 0; i < n; ++i) {
      chain::Block body;
      body.header.parent_hash = tip->hash;
      body.header.number = tip->header.number + 1;
      body.header.difficulty = 1000;
      body.Seal();
      tip = arena.Adopt(std::move(body));
      blocks.push_back(tip);
    }
    state.ResumeTiming();

    chain::BlockTree tree{genesis};
    for (std::uint64_t i = 0; i < n; ++i)
      tree.Add(blocks[i], TimePoint::FromMicros(static_cast<std::int64_t>(i)));
    benchmark::DoNotOptimize(tree.head_number());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BlockTreeLinearInsert)->Arg(1'000);

// A fresh world store and pool admit 200 new txs, each registered and then
// added by id as a node does, and select them all.
void BM_TxPoolAddSelect(benchmark::State& state) {
  for (auto _ : state) {
    chain::TxStore store;
    chain::TxPool pool{store};
    for (std::uint8_t s = 1; s <= 50; ++s) {
      Address sender;
      sender.bytes[0] = s;
      for (std::uint64_t n = 0; n < 4; ++n)
        pool.Add(store.Add(chain::MakeTransaction(sender, n, sender, 1,
                                                  1 + (s * 7 + n) % 50)));
    }
    benchmark::DoNotOptimize(pool.SelectForBlock(8'000'000, 200));
  }
  // 200 adds + one full selection per iteration.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 201);
}
BENCHMARK(BM_TxPoolAddSelect);

// Steady-state selection: the pool is populated once (100 senders x 8 txs,
// one queued gap per third sender) and SelectForBlock runs repeatedly. This
// isolates the persistent price-index path from Add-side churn.
void BM_TxPoolSelectForBlock(benchmark::State& state) {
  chain::TxStore store;
  chain::TxPool pool{store};
  for (std::uint8_t s = 1; s <= 100; ++s) {
    Address sender;
    sender.bytes[0] = s;
    for (std::uint64_t n = 0; n < 8; ++n) {
      if (s % 3 == 0 && n == 4) continue;  // nonce gap => queued tail
      pool.Add(store.Add(chain::MakeTransaction(sender, n, sender, 1,
                                                1 + (s * 13 + n * 5) % 97)));
    }
  }
  std::int64_t selected = 0;
  for (auto _ : state) {
    const auto txs = pool.SelectForBlock(8'000'000, 400);
    benchmark::DoNotOptimize(txs.data());
    selected += static_cast<std::int64_t>(txs.size());
  }
  state.SetItemsProcessed(selected);
}
BENCHMARK(BM_TxPoolSelectForBlock);

// Reorg churn: two branches race from genesis, alternately taking the
// total-difficulty lead, so every other insert flips the canonical chain
// with an ever-deeper divergence point. Exercises the arena-linked reorg
// walk (retire + adopt over canonical_ slots).
void BM_BlockTreeReorgChurn(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    chain::BlockArena arena;
    const chain::BlockPtr genesis = SealedGenesis(arena);
    std::vector<chain::BlockPtr> blocks;
    chain::BlockPtr tips[2] = {genesis, genesis};
    // Interleave: extend A by one, then B by two, then A by two, ... so the
    // lead alternates and each pair of inserts triggers one reorg.
    std::size_t branch = 0;
    std::uint64_t mix = 1;
    while (blocks.size() < n) {
      for (int k = 0; k < 2 && blocks.size() < n; ++k) {
        chain::Block body;
        body.header.parent_hash = tips[branch]->hash;
        body.header.number = tips[branch]->header.number + 1;
        body.header.difficulty = 1000;
        body.header.mix_seed = mix++;
        body.Seal();
        tips[branch] = arena.Adopt(std::move(body));
        blocks.push_back(tips[branch]);
      }
      branch ^= 1;
    }
    state.ResumeTiming();

    chain::BlockTree tree{genesis};
    for (std::size_t i = 0; i < blocks.size(); ++i)
      tree.Add(blocks[i], TimePoint::FromMicros(static_cast<std::int64_t>(i)));
    benchmark::DoNotOptimize(tree.head_number());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BlockTreeReorgChurn)->Arg(400);

// A world's chain state: range(0) views over one BlockDag, each importing
// the same forked 200-block set plus 20 repeat deliveries of random blocks in
// its own shuffled order, so every view sees orphans, duplicates and
// equal-difficulty ties. The DAG and the views are rebuilt every iteration.
// items/sec = (view, block) imports/sec; bytes_per_view_block is the views'
// own heap per attached block at the end (the DAG is counted once per world
// and left out).
void BM_BlockTreeViews(benchmark::State& state) {
  const auto views = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBlocks = 200;
  chain::BlockArena arena;
  const chain::BlockPtr genesis = SealedGenesis(arena);
  Rng rng{21};
  std::vector<chain::BlockPtr> blocks;
  for (std::size_t i = 0; i < kBlocks; ++i) {
    // Extend one of the last four blocks; two difficulties make ties.
    const std::size_t window = std::min<std::size_t>(blocks.size(), 4);
    const chain::BlockPtr parent =
        window == 0 ? genesis
                    : blocks[blocks.size() - 1 - rng.NextBounded(window)];
    chain::Block body;
    body.header.parent_hash = parent->hash;
    body.header.number = parent->header.number + 1;
    body.header.difficulty = 1000 + 500 * rng.NextBounded(2);
    body.header.mix_seed = rng.Next();
    body.Seal();
    blocks.push_back(arena.Adopt(std::move(body)));
  }
  std::vector<std::vector<chain::BlockPtr>> orders(views, blocks);
  for (auto& order : orders) {
    for (std::size_t i = 0; i < kBlocks / 10; ++i)
      order.push_back(blocks[rng.NextBounded(kBlocks)]);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }

  double bytes_per_view_block = 0;
  for (auto _ : state) {
    chain::BlockDag dag{genesis};
    std::vector<chain::BlockTree> trees;
    trees.reserve(views);
    for (std::size_t v = 0; v < views; ++v) {
      chain::BlockTree& tree = trees.emplace_back(dag);
      std::int64_t t = 0;
      for (const chain::BlockPtr& block : orders[v])
        tree.Add(block, TimePoint::FromMicros(++t));
    }
    state.PauseTiming();
    std::size_t bytes = 0, attached = 0;
    for (const chain::BlockTree& tree : trees) {
      bytes += tree.allocated_bytes();
      attached += tree.block_count();
    }
    bytes_per_view_block = static_cast<double>(bytes) / attached;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(views) *
                          static_cast<std::int64_t>(orders[0].size()));
  state.counters["bytes_per_view_block"] = bytes_per_view_block;
}
BENCHMARK(BM_BlockTreeViews)->Arg(1'000)->Unit(benchmark::kMillisecond);

// One iterative FindNode lookup from a 3-bootstrap local table, in a world
// of range(0) nodes whose full tables are one Registry built outside the
// timed loop (as Experiment::BuildTopology queries it).
void BM_KademliaLookup(benchmark::State& state) {
  Rng rng{3};
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<p2p::NodeId> ids;
  std::unordered_map<Hash32, std::size_t> index_of;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(p2p::RandomNodeId(rng));
    index_of.emplace(ids.back(), i);
  }
  const p2p::Registry registry{ids};
  p2p::RoutingTable local{p2p::RandomNodeId(rng)};
  for (int i = 0; i < 3; ++i) local.Add(ids[static_cast<std::size_t>(i)]);
  const auto query = [&](const p2p::NodeId& n, const p2p::NodeId& t) {
    return registry.Closest(index_of.at(n), t, p2p::kBucketSize);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        p2p::IterativeFindNode(local, p2p::RandomNodeId(rng), 16, query));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KademliaLookup)->Arg(500)->Arg(5'000);

// Building the Registry (sort, trie, first-16 lists) from range(0) ids;
// items/sec = ids/sec.
void BM_RegistryBuild(benchmark::State& state) {
  Rng rng{5};
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<p2p::NodeId> ids;
  for (std::size_t i = 0; i < n; ++i) ids.push_back(p2p::RandomNodeId(rng));
  for (auto _ : state) {
    const p2p::Registry registry{ids};
    benchmark::DoNotOptimize(registry.bytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RegistryBuild)->Arg(5'000)->Unit(benchmark::kMillisecond);

// Full gossip round: one mined block disseminated through a 64-node mesh.
void BM_GossipBlockBroadcast(benchmark::State& state) {
  std::int64_t total_events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator;
    net::NetworkParams params;
    net::Network network{simulator, Rng{7}, params};
    chain::BlockArena arena;
    const chain::BlockPtr genesis = SealedGenesis(arena);
    chain::BlockDag dag{genesis};
    Rng ids{11};
    chain::TxStore tx_store;
    std::vector<std::unique_ptr<eth::EthNode>> nodes;
    for (int i = 0; i < 64; ++i) {
      const net::HostId host =
          network.AddHost({net::Region::WesternEurope, 1e9});
      nodes.push_back(std::make_unique<eth::EthNode>(
          simulator, network, tx_store, dag, host, p2p::RandomNodeId(ids),
          eth::NodeConfig{}, ids.Fork(static_cast<std::uint64_t>(i))));
    }
    Rng topo{13};
    for (std::size_t i = 0; i < nodes.size(); ++i)
      for (int d = 0; d < 8; ++d)
        eth::EthNode::Connect(*nodes[i], *nodes[topo.NextBounded(nodes.size())]);
    chain::Block body;
    body.header.parent_hash = genesis->hash;
    body.header.number = genesis->header.number + 1;
    body.header.difficulty = 1000;
    body.Seal();
    const chain::BlockPtr block = arena.Adopt(std::move(body));
    state.ResumeTiming();

    nodes[0]->InjectMinedBlock(block);
    simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(30).micros()));
    benchmark::DoNotOptimize(simulator.events_executed());
    total_events += static_cast<std::int64_t>(simulator.events_executed());
  }
  // items/sec == simulated events/sec for the full dissemination round.
  state.SetItemsProcessed(total_events);
}
BENCHMARK(BM_GossipBlockBroadcast)->Unit(benchmark::kMillisecond);

// Tx relay's hottest path: a hub submits a batch every flush interval and
// each flush dedupes every (peer, tx) pair against that peer's known_txs
// cache. The hub has N peers: 25 is Geth's default degree, 150 an observer's.
// Every cache is filled to its cap before the timed region, so each timed
// check evicts the oldest entry. The network drops every message at send
// (drop_prob 1), so no receiver work is timed, and the world is torn down
// untimed. items/sec == (peer, tx) dedupe checks/sec.
struct FlushHub {
  FlushHub(std::size_t peers, const eth::NodeConfig& cfg)
      : network{simulator, Rng{7}, net::NetworkParams{.drop_prob = 1.0}} {
    Rng ids{11};
    for (std::size_t i = 0; i <= peers; ++i) {
      const net::HostId host =
          network.AddHost({net::Region::WesternEurope, 1e9});
      nodes.push_back(std::make_unique<eth::EthNode>(
          simulator, network, tx_store, dag, host, p2p::RandomNodeId(ids),
          cfg, ids.Fork(i)));
    }
    for (std::size_t i = 1; i <= peers; ++i)
      eth::EthNode::Connect(*nodes[0], *nodes[i]);
  }

  // Submits txs[begin, end) at the hub, running one flush per kPerFlush.
  void Submit(const std::vector<chain::Transaction>& txs, std::size_t begin,
              std::size_t end, Duration flush_interval) {
    constexpr std::size_t kPerFlush = 16;
    for (std::size_t i = begin; i < end; ++i) {
      nodes[0]->SubmitTransaction(txs[i]);
      if ((i + 1) % kPerFlush == 0)
        simulator.RunUntil(simulator.Now() + flush_interval);
    }
  }

  sim::Simulator simulator;
  net::Network network;
  chain::BlockArena arena;
  chain::BlockDag dag{SealedGenesis(arena)};
  chain::TxStore tx_store;
  std::vector<std::unique_ptr<eth::EthNode>> nodes;
};

void BM_TxGossipFlush(benchmark::State& state) {
  const auto peers = static_cast<std::size_t>(state.range(0));
  eth::NodeConfig cfg;
  cfg.max_peers = peers;
  const std::size_t fill = cfg.known_txs_cap;
  std::vector<chain::Transaction> txs;
  for (std::size_t i = 0; i < 2 * fill; ++i) {
    Address sender;
    sender.bytes[0] = static_cast<std::uint8_t>(i % 64);
    txs.push_back(chain::MakeTransaction(sender, i / 64, Address{}, 1,
                                         1 + i % 7));
  }
  std::unique_ptr<FlushHub> hub;
  for (auto _ : state) {
    state.PauseTiming();
    hub = std::make_unique<FlushHub>(peers, cfg);
    hub->Submit(txs, 0, fill, cfg.tx_flush_interval);
    state.ResumeTiming();

    hub->Submit(txs, fill, 2 * fill, cfg.tx_flush_interval);

    state.PauseTiming();
    hub.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(peers * fill));
}
BENCHMARK(BM_TxGossipFlush)->Arg(25)->Arg(150)->Unit(benchmark::kMillisecond);

// Plan-mode workload generation end to end: a mixed plan (Poisson with
// replace-by-fee, Zipf hot accounts, flash crowd, closed-loop clients) runs
// 60 sim-seconds against an 8-node fleet with no miners. items/sec ==
// submitted transactions/sec; guards the per-submission cost of account
// selection, gas-price draws, nonce bookkeeping, and inclusion tracking.
void BM_WorkloadSubmit(benchmark::State& state) {
  std::int64_t total_submitted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator;
    net::Network network{simulator, Rng{7}, net::NetworkParams{}};
    chain::BlockArena arena;
    const chain::BlockPtr genesis = SealedGenesis(arena);
    chain::BlockDag dag{genesis};
    Rng ids{11};
    chain::TxStore tx_store;
    std::vector<std::unique_ptr<eth::EthNode>> nodes;
    std::vector<eth::EthNode*> frontends;
    for (int i = 0; i < 8; ++i) {
      const net::HostId host =
          network.AddHost({net::Region::WesternEurope, 1e9});
      nodes.push_back(std::make_unique<eth::EthNode>(
          simulator, network, tx_store, dag, host, p2p::RandomNodeId(ids),
          eth::NodeConfig{}, ids.Fork(static_cast<std::uint64_t>(i))));
      frontends.push_back(nodes.back().get());
    }
    workload::WorkloadPlan plan;
    plan.Poisson("base", 400.0, 500);
    plan.last().zipf_exponent = 1.1;
    plan.last().fee.replacement_deadline = Duration::Seconds(5);
    plan.FlashCrowd("surge", 100.0, 100,
                    TimePoint::FromMicros(Duration::Seconds(20).micros()),
                    Duration::Seconds(20), 4.0);
    plan.last().account_offset = 500;
    plan.ClosedLoop("users", 50, Duration::Seconds(5));
    plan.last().account_offset = 600;
    auto generator = std::make_unique<workload::WorkloadGenerator>(
        simulator, Rng{42}, workload::TxWorkloadParams{}, plan, frontends);
    state.ResumeTiming();

    generator->Start();
    simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(60).micros()));
    benchmark::DoNotOptimize(generator->total_submitted());
    total_submitted += static_cast<std::int64_t>(generator->total_submitted());
  }
  state.SetItemsProcessed(total_submitted);
}
BENCHMARK(BM_WorkloadSubmit)->Unit(benchmark::kMillisecond);

// Tx-lifecycle recorder hot path: full submit -> pool-admit -> select ->
// include cycles with a periodic AdvanceHead commit sweep over two depths.
// items/sec == stage records appended/sec; guards the per-record cost of the
// ETHSIM_TXPROV flight recorder (columnar append + per-tx state + invariant
// facts) that rides every transaction event when recording is on.
void BM_TxProvRecord(benchmark::State& state) {
  constexpr std::size_t kTxs = 512;
  constexpr std::size_t kTxsPerBlock = 8;
  std::vector<Hash32> tx_hashes(kTxs);
  std::vector<Hash32> block_hashes(kTxs / kTxsPerBlock);
  for (std::size_t i = 0; i < kTxs; ++i) {
    tx_hashes[i].bytes[0] = static_cast<std::uint8_t>(i >> 8);
    tx_hashes[i].bytes[1] = static_cast<std::uint8_t>(i);
  }
  for (std::size_t i = 0; i < block_hashes.size(); ++i) {
    block_hashes[i].bytes[0] = 0xb0;
    block_hashes[i].bytes[1] = static_cast<std::uint8_t>(i);
  }
  std::int64_t total_records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    obs::TxProvConfig config;
    config.confirmation_depths = {0, 2};
    auto recorder = std::make_unique<obs::TxProvRecorder>(std::move(config));
    for (std::uint32_t host = 0; host < 4; ++host)
      recorder->RegisterHost(host, static_cast<std::uint8_t>(host));
    recorder->MarkVantage(1);
    recorder->MarkAnchor(0);
    state.ResumeTiming();

    std::int64_t t = 0;
    for (std::size_t i = 0; i < kTxs; ++i) {
      const Hash32& tx = tx_hashes[i];
      const std::uint64_t height = 1 + i / kTxsPerBlock;
      const Hash32& block = block_hashes[i / kTxsPerBlock];
      recorder->RecordSubmitted(tx, t, 2, 0, 50 + (i % 7), 0);
      recorder->RecordFirstSeen(1, tx, t + 1);
      recorder->RecordPoolOutcome(2, tx, t + 2, obs::TxPoolOutcome::kPending,
                                  50 + (i % 7));
      recorder->RecordSelected(0, tx, t + 3,
                               static_cast<std::uint16_t>(i % 6), block,
                               height);
      recorder->RecordIncluded(0, tx, t + 4, block, height);
      t += 5;
      if ((i + 1) % kTxsPerBlock == 0) recorder->AdvanceHead(0, height, t++);
    }
    benchmark::DoNotOptimize(recorder->records_recorded());
    total_records += static_cast<std::int64_t>(recorder->records_recorded());
  }
  state.SetItemsProcessed(total_records);
}
BENCHMARK(BM_TxProvRecord);

// Curated JSON summary. We deliberately avoid --benchmark_format=json (it
// dumps every context field and complexity report); instead we keep a small
// stable schema so BENCH_engine.json diffs stay readable across PRs.
// It piggybacks on ConsoleReporter because RunSpecifiedBenchmarks only feeds
// a separate file_reporter when --benchmark_out is passed.
class EngineJsonReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      Entry e;
      e.real_time_ns = run.GetAdjustedRealTime();  // already in run.time_unit
      switch (run.time_unit) {
        case benchmark::kMillisecond: e.real_time_ns *= 1e6; break;
        case benchmark::kMicrosecond: e.real_time_ns *= 1e3; break;
        case benchmark::kSecond: e.real_time_ns *= 1e9; break;
        default: break;  // kNanosecond
      }
      for (const auto& [name, counter] : run.counters) {
        if (name == "items_per_second") {
          e.items_per_second = counter;
        } else if (name == "bytes_per_second") {
          e.bytes_per_second = counter;
        } else {
          e.counters[name] = counter;  // a bench's own measure, e.g. bytes
        }
      }
      // Counter-less benchmarks used to land in the JSON without an
      // items_per_second field (rendered as null downstream). Derive the
      // natural one-item-per-iteration rate so the field is always present.
      if (e.items_per_second <= 0.0 && e.real_time_ns > 0.0)
        e.items_per_second = 1e9 / e.real_time_ns;
      entries_[run.benchmark_name()] = e;
    }
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    const char* env = std::getenv("ETHSIM_BENCH_JSON");
    const std::string path = (env != nullptr && env[0] != '\0')
                                 ? std::string{env}
                                 : std::string{"BENCH_engine.json"};
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "micro_substrate: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"benchmarks\": {\n");
    std::size_t i = 0;
    for (const auto& [name, e] : entries_) {
      std::fprintf(f, "    \"%s\": {\"real_time_ns\": %.1f", name.c_str(),
                   e.real_time_ns);
      std::fprintf(f, ", \"items_per_second\": %.0f", e.items_per_second);
      if (e.bytes_per_second > 0.0)
        std::fprintf(f, ", \"bytes_per_second\": %.0f", e.bytes_per_second);
      for (const auto& [counter, value] : e.counters)
        std::fprintf(f, ", \"%s\": %.2f", counter.c_str(), value);
      std::fprintf(f, "}%s\n", ++i < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "micro_substrate: wrote %s\n", path.c_str());
  }

 private:
  struct Entry {
    double real_time_ns = 0.0;
    double items_per_second = 0.0;
    double bytes_per_second = 0.0;
    std::map<std::string, double> counters;
  };
  std::map<std::string, Entry> entries_;  // sorted => stable JSON diffs
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  EngineJsonReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return 0;
}
