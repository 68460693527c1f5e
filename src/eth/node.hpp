// The full-node model: a Geth-1.8-like client speaking a simplified eth/63.
//   - NewBlock      — unsolicited full-block push to ~sqrt(peers)
//   - NewBlockHashes— hash announcement to the remaining peers after import
//   - GetBlock      — fetch of an announced-but-unknown block
//   - Transactions  — batched transaction relay to all peers not known to
//                     have a transaction
// Each node owns its own view of the chain (a BlockTree over the world's
// shared chain::BlockDag, holding only the node's first-seen times, canonical
// index and orphan buffers) and a TxPool over the world's chain::TxStore, and
// tracks per-peer known-block/known-tx caches exactly like Geth's
// peer.knownBlocks/knownTxs. The caches hold 32-bit ids shared by every node
// of a world: a block's DAG id, and a tx's store id. A tx is registered in
// the store when it is submitted; its pool entries, broadcast queue entries
// and Transactions messages carry the id from then on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "chain/block_dag.hpp"
#include "chain/blocktree.hpp"
#include "chain/tx_store.hpp"
#include "chain/txpool.hpp"
#include "common/fifo_id_set.hpp"
#include "common/random.hpp"
#include "common/time.hpp"
#include "eth/sink.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "p2p/node_id.hpp"
#include "sim/simulator.hpp"

namespace ethsim::eth {

// A Transactions wire message: the store ids of the txs it carries, in queue
// order. A peer that needs a whole flush shares the flush's own vector; any
// other peer gets its own list.
using TxBatch = std::shared_ptr<const std::vector<chain::TxStore::TxId>>;

// Block relay strategy — Geth's sqrt-push is the default; the alternatives
// exist for the ablation benches (bandwidth/latency/redundancy tradeoff).
enum class RelayMode {
  kSqrtPush,     // full block to ~sqrt(peers), hash announce to the rest
  kPushAll,      // full block to every unaware peer (max speed, max waste)
  kAnnounceOnly, // hash announcements only; everyone fetches (min waste)
};

struct NodeConfig {
  // Geth's default maxpeers is 25; the paper's vantage nodes ran unlimited.
  std::size_t max_peers = 25;
  RelayMode relay_mode = RelayMode::kSqrtPush;
  // Tx broadcast batching window (Geth flushes its per-peer queues promptly;
  // a small window models the syscall/scheduler granularity).
  Duration tx_flush_interval = Duration::Millis(100);
  // PoW/header sanity check before eager push relay.
  Duration header_check_delay = Duration::Millis(3);
  // Full validation before import: base + per-transaction execution
  // (state-root computation dominated real Geth 1.8 imports: ~100-500 ms).
  // This is what stretches the propagation wave far beyond a single link
  // latency — and why announcements rarely flow backwards (Table II) — and
  // the asymmetry that gives empty blocks a relay head start (§III-C3).
  Duration base_validation = Duration::Millis(150);
  Duration per_tx_validation = Duration::Micros(250);
  // Host-speed multiplier on validation (1.0 = provisioned hardware).
  // Commodity peers run slow disks/CPUs and import in seconds; this
  // heterogeneity stretches the propagation wave relative to link latency,
  // which is what keeps redundant back-announcements low (Table II).
  double validation_speed_factor = 1.0;
  // Per-peer known caches only need to span the propagation window (relay
  // dedupe happens within seconds); small caps keep memory flat on
  // day-scale simulations with thousands of peer links. A full cache costs
  // 8 B per entry at these power-of-two caps, and no cap may exceed 65,535
  // (common/fifo_id_set.hpp; ExperimentConfig::Validate rejects more).
  std::size_t known_txs_cap = 1024;
  std::size_t known_blocks_cap = 256;
  // Node-level seen-tx horizon (admission dedupe) can be longer.
  std::size_t seen_txs_cap = 16384;
  // A GetBlock fetch that produced no response within this window is
  // forgotten, so a later announcement can re-trigger it (Geth's fetcher
  // timeout). Without this, one lost fetch poisons the hash forever.
  Duration fetch_retry_timeout = Duration::Seconds(5);
};

class EthNode {
 public:
  // `txs` is the world tx store the node's pool, relay and known-tx caches
  // read by id, and `blocks` is the world DAG the node's chain view reads
  // (its ids also key the known-block caches). Both serve a whole world and
  // must outlive its nodes (the BlockArena contract); worlds on parallel
  // threads each own their own.
  EthNode(sim::Simulator& simulator, net::Network& network,
          chain::TxStore& txs, chain::BlockDag& blocks,
          net::HostId host, p2p::NodeId id, NodeConfig config, Rng rng);

  EthNode(const EthNode&) = delete;
  EthNode& operator=(const EthNode&) = delete;

  // --- identity / wiring -------------------------------------------------
  net::HostId host() const { return host_; }
  const p2p::NodeId& id() const { return id_; }
  net::Region region() const;

  // Establishes a mutual connection. Returns false if either side is full
  // or offline, they are already connected, or it is a self-dial.
  static bool Connect(EthNode& a, EthNode& b);
  // Drops every peer link (both sides); returns how many were severed.
  std::size_t DisconnectAll();
  std::size_t peer_count() const { return peers_.size(); }
  bool ConnectedTo(const EthNode& other) const;
  std::size_t max_peers() const { return config_.max_peers; }

  // --- fault hooks (driven by fault::FaultController) ---------------------
  // A crashed/churned-out node: all peer links are severed, in-flight relay
  // state (importing/requested sets, tx broadcast queue) is lost, and the
  // session epoch advances so callbacks scheduled before the crash become
  // no-ops. The chain tree and txpool survive — they model disk state — so a
  // restart resumes from the pre-crash head and back-fills missed blocks via
  // the orphan parent-fetch path when the next block arrives.
  bool online() const { return online_; }
  void GoOffline();
  void GoOnline();

  void set_sink(MessageSink* sink) { sink_ = sink; }
  // Wires block-lifecycle tracing and per-region import/head counters.
  // `trace_lane` becomes the Perfetto pid for this node's events (the
  // experiment uses the node's build index). Telemetry records only: it never
  // samples rng_ or schedules events, so attaching it cannot change a run.
  void AttachTelemetry(obs::Telemetry* telemetry, std::uint32_t trace_lane);
  // Invoked whenever the canonical head changes (miners re-target here).
  void set_head_callback(std::function<void(chain::BlockPtr)> cb) {
    on_new_head_ = std::move(cb);
  }

  // --- local actions ------------------------------------------------------
  // A user submits a transaction at this node: it is registered in the world
  // store and enters the pool and the gossip.
  void SubmitTransaction(const chain::Transaction& tx);
  // A mining pool releases a freshly mined block through this gateway node.
  void InjectMinedBlock(chain::BlockPtr block);

  // --- chain state --------------------------------------------------------
  const chain::BlockTree& tree() const { return tree_; }
  const chain::TxPool& pool() const { return pool_; }
  // Total entries across the dedup caches (seen_txs_ plus every peer's
  // known_blocks/known_txs) — the node's gossip working-set size, recorded
  // by the state sampler. Bounded by config caps; a plateau at the cap is
  // the expected steady state.
  std::size_t known_cache_entries() const {
    std::size_t total = seen_txs_.size();
    for (const Peer& peer : peers_)
      total += peer.known_blocks.size() + peer.known_txs.size();
    return total;
  }
  // Heap bytes those caches hold (rings plus indexes), for the sampler's
  // byte-accounting probe.
  std::size_t known_cache_bytes() const {
    std::size_t total = seen_txs_.allocated_bytes();
    for (const Peer& peer : peers_)
      total += peer.known_blocks.allocated_bytes() +
               peer.known_txs.allocated_bytes();
    return total;
  }
  // Blocks rejected by consensus validation at import.
  std::uint64_t invalid_blocks() const { return invalid_blocks_; }

  // --- wire ingress (invoked by peers through the Network) ----------------
  void DeliverNewBlock(EthNode* from, chain::BlockPtr block);
  void DeliverAnnouncement(EthNode* from, const Hash32& hash,
                           std::uint64_t number);
  void DeliverGetBlock(EthNode* from, const Hash32& hash);
  void DeliverBlockResponse(EthNode* from, chain::BlockPtr block);
  void DeliverTransactions(EthNode* from, const TxBatch& batch);

 private:
  struct Peer {
    EthNode* node = nullptr;
    FifoIdSet known_blocks;
    FifoIdSet known_txs;
  };
  // peers_ grows and erases by moving Peers; a throwing move would make the
  // vector copy every cache on growth instead.
  static_assert(std::is_nothrow_move_constructible_v<Peer>);

  Peer* FindPeer(const EthNode* node);
  void MarkKnowsBlock(EthNode* from, const Hash32& hash);

  // Single-sided peer-vector maintenance. AddPeer enforces capacity and
  // duplicate checks; RemovePeer erases in place preserving order, so the
  // relay shuffle and announcement iteration stay consistent with the
  // surviving peer set. Both are private: external callers go through
  // Connect/DisconnectAll, which keep the two sides symmetric.
  bool AddPeer(EthNode* node);
  bool RemovePeer(const EthNode* node);
  // The ingress guard every Deliver* opens with: resolves the message's edge
  // in the provenance recorder, then returns true when it must be discarded
  // (node offline), attributing the loss in the Network drop census.
  bool DropIngress(const EthNode* from, obs::MsgKind kind);

  // Relay pipeline.
  void HandleIncomingBlock(chain::BlockPtr block);
  void PushToSqrtPeers(const chain::BlockPtr& block);
  void AnnounceToOtherPeers(const chain::BlockPtr& block);
  void ImportBlock(chain::BlockPtr block);
  // Everything a non-duplicate BlockTree::Add triggers, in order: one replay
  // of the chain edits (pool reorg bookkeeping and the tx recorder's
  // orphan-returned/included records), the recorder's head advance, the
  // sink, the import/head counters and trace, the relay, and the head
  // callback. A `mined` block is pushed to sqrt(peers) before the announce.
  void AfterAdd(const chain::BlockPtr& block,
                const chain::BlockTree::AddResult& result, bool mined);
  // Fetches `hash` (block `number`) from `peer` and arms the retry timer.
  void RequestBlock(EthNode* peer, const Hash32& hash, std::uint64_t number);
  Duration ValidationDelay(const chain::Block& block) const;

  void QueueTxForBroadcast(chain::TxStore::TxId id);
  void FlushTxBroadcast();

  // Callers mark the block known to `peer` first.
  void SendNewBlock(Peer& peer, const chain::BlockPtr& block);
  void SendAnnouncement(Peer& peer, const chain::BlockPtr& block);

  // Emits a block-lifecycle instant on this node's trace lane. Callers check
  // block_tracer_ != nullptr first (hot-path single-branch contract).
  void TraceBlockInstant(const char* name, const char* arg_kind,
                         const Hash32& hash, std::uint64_t number);

  sim::Simulator& sim_;
  net::Network& net_;
  chain::TxStore& txs_;
  chain::BlockDag& blocks_;
  net::HostId host_;
  p2p::NodeId id_;
  NodeConfig config_;
  Rng rng_;

  chain::BlockTree tree_;
  chain::TxPool pool_;
  std::vector<Peer> peers_;

  FifoIdSet seen_txs_;
  std::unordered_set<Hash32> importing_;  // full block received, pre-import
  std::unordered_set<Hash32> requested_;  // GetBlock in flight

  std::vector<chain::TxStore::TxId> tx_broadcast_queue_;
  bool flush_scheduled_ = false;
  std::uint64_t invalid_blocks_ = 0;

  // Fault state. The epoch advances on every crash; internal scheduled
  // callbacks capture it and fire only when it still matches, so pre-crash
  // validation/import/flush timers cannot leak into a restarted session.
  bool online_ = true;
  std::uint32_t epoch_ = 0;

  // Scratch buffers reused across relay rounds (no per-call allocations).
  std::vector<std::uint32_t> relay_order_;  // PushToSqrtPeers shuffle
  std::vector<chain::TxStore::TxId> flush_subset_;  // FlushTxBroadcast per peer

  MessageSink* sink_ = nullptr;
  std::function<void(chain::BlockPtr)> on_new_head_;

  // Telemetry (null = disabled; one predicted branch per hook). Instrument
  // pointers are resolved once in AttachTelemetry for this node's region.
  // prov_ is the dissemination-provenance recorder: every outbound message
  // records its edge with the outcome net_.Send returned, and every ingress
  // resolves its delivery — see obs/provenance_dag.hpp.
  obs::ProvenanceRecorder* prov_ = nullptr;
  // txprov_ is the transaction-lifecycle recorder: pool outcomes at every
  // host, vantage first-seens, and the anchor's include/orphan/commit
  // timeline — see obs/tx_provenance.hpp.
  obs::TxProvRecorder* txprov_ = nullptr;
  obs::Tracer* block_tracer_ = nullptr;  // kBlock category pre-checked
  obs::Tracer* tx_tracer_ = nullptr;     // kTx category pre-checked
  obs::Counter* imported_count_ = nullptr;
  obs::Counter* head_count_ = nullptr;
  obs::Counter* invalid_count_ = nullptr;
  obs::Counter* tx_received_count_ = nullptr;
  obs::Histogram* validate_hist_ = nullptr;
  std::uint32_t trace_lane_ = 0;
};

// Wire-size constants (approximate devp2p framing).
inline constexpr std::size_t kAnnouncementWireSize = 44;
inline constexpr std::size_t kGetBlockWireSize = 40;
inline constexpr std::size_t kTxBatchOverhead = 16;

}  // namespace ethsim::eth
