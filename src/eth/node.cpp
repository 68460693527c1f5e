#include "eth/node.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "chain/validation.hpp"

namespace ethsim::eth {

// obs::TxPoolOutcome mirrors chain::TxPool::AddOutcome value-for-value so the
// pool hook can static_cast between them.
static_assert(
    static_cast<int>(obs::TxPoolOutcome::kPending) ==
        static_cast<int>(chain::TxPool::AddOutcome::kPending) &&
    static_cast<int>(obs::TxPoolOutcome::kQueued) ==
        static_cast<int>(chain::TxPool::AddOutcome::kQueued) &&
    static_cast<int>(obs::TxPoolOutcome::kKnown) ==
        static_cast<int>(chain::TxPool::AddOutcome::kKnown) &&
    static_cast<int>(obs::TxPoolOutcome::kStale) ==
        static_cast<int>(chain::TxPool::AddOutcome::kStale) &&
    static_cast<int>(obs::TxPoolOutcome::kReplaced) ==
        static_cast<int>(chain::TxPool::AddOutcome::kReplaced) &&
    static_cast<int>(obs::TxPoolOutcome::kRejected) ==
        static_cast<int>(chain::TxPool::AddOutcome::kRejected));

namespace {

// The outcome Network::Send returned, in the provenance recorder's terms.
// obs stays free of net includes, so this is the one place where
// net::DropReason maps onto obs::EdgeDrop (which reserves 0 for "delivered").
// Cold: it runs only with recording on, so it stays out of the send paths.
[[gnu::cold]] obs::EdgeOutcome ToEdgeOutcome(const net::SendOutcome& sent) {
  if (!sent.drop) return {sent.arrival.micros(), obs::EdgeDrop::kNone};
  switch (*sent.drop) {
    case net::DropReason::kRandomLoss:
      return {-1, obs::EdgeDrop::kRandomLoss};
    case net::DropReason::kPartitioned:
      return {-1, obs::EdgeDrop::kPartitioned};
    case net::DropReason::kDegraded:
      return {-1, obs::EdgeDrop::kDegraded};
    case net::DropReason::kOffline:
      return {-1, obs::EdgeDrop::kOffline};
  }
  return {};
}

}  // namespace

EthNode::EthNode(sim::Simulator& simulator, net::Network& network,
                 chain::TxStore& txs, chain::BlockDag& blocks,
                 net::HostId host, p2p::NodeId id, NodeConfig config, Rng rng)
    : sim_(simulator),
      net_(network),
      txs_(txs),
      blocks_(blocks),
      host_(host),
      id_(id),
      config_(config),
      rng_(rng),
      tree_(blocks),
      pool_(txs),
      seen_txs_(config.seen_txs_cap) {}

net::Region EthNode::region() const { return net_.host(host_).region; }

void EthNode::AttachTelemetry(obs::Telemetry* telemetry,
                              std::uint32_t trace_lane) {
  prov_ = nullptr;
  txprov_ = nullptr;
  block_tracer_ = nullptr;
  tx_tracer_ = nullptr;
  imported_count_ = nullptr;
  head_count_ = nullptr;
  invalid_count_ = nullptr;
  tx_received_count_ = nullptr;
  validate_hist_ = nullptr;
  trace_lane_ = trace_lane;
  if (telemetry == nullptr) return;

  if ((prov_ = telemetry->provenance()) != nullptr)
    prov_->RegisterHost(host_, static_cast<std::uint8_t>(region()));

  if ((txprov_ = telemetry->txprov()) != nullptr)
    txprov_->RegisterHost(host_, static_cast<std::uint8_t>(region()));

  if (obs::Tracer* tracer = telemetry->tracer()) {
    if (tracer->enabled(obs::TraceCategory::kBlock)) block_tracer_ = tracer;
    if (tracer->enabled(obs::TraceCategory::kTx)) tx_tracer_ = tracer;
  }
  if (obs::MetricsRegistry* metrics = telemetry->metrics()) {
    // Counters are shared per region (stable map nodes), so every node in WE
    // bumps the same "eth.block.imported{region=WE}" cell.
    const std::string_view region_name = net::RegionShortName(region());
    imported_count_ = metrics->GetCounter(
        obs::LabeledName("eth.block.imported", {{"region", region_name}}));
    head_count_ = metrics->GetCounter(
        obs::LabeledName("eth.block.head_updates", {{"region", region_name}}));
    invalid_count_ = metrics->GetCounter(
        obs::LabeledName("eth.block.invalid", {{"region", region_name}}));
    tx_received_count_ = metrics->GetCounter(
        obs::LabeledName("eth.tx.received", {{"region", region_name}}));
    validate_hist_ =
        metrics->GetHistogram("eth.block.validate_us", obs::LatencyBucketsUs());
  }
}

void EthNode::TraceBlockInstant(const char* name, const char* arg_kind,
                                const Hash32& hash, std::uint64_t number) {
  obs::TraceEvent event;
  event.name = name;
  event.arg_kind = arg_kind;
  event.ts_us = sim_.Now().micros();
  event.arg_hash = hash.prefix_u64();
  event.arg_num = number;
  event.pid = trace_lane_;
  event.cat = obs::TraceCategory::kBlock;
  event.phase = 'i';
  block_tracer_->Emit(event);
}

bool EthNode::AddPeer(EthNode* node) {
  if (node == nullptr || node == this) return false;
  if (peers_.size() >= config_.max_peers) return false;
  if (FindPeer(node) != nullptr) return false;
  peers_.push_back(Peer{node, FifoIdSet(config_.known_blocks_cap),
                        FifoIdSet(config_.known_txs_cap)});
  return true;
}

bool EthNode::RemovePeer(const EthNode* node) {
  for (auto it = peers_.begin(); it != peers_.end(); ++it) {
    if (it->node != node) continue;
    // Erase in place (not swap-pop): the surviving peers keep their relative
    // order, so announcement iteration and the relay shuffle index the same
    // peer set a fresh call would see.
    peers_.erase(it);
    return true;
  }
  return false;
}

bool EthNode::Connect(EthNode& a, EthNode& b) {
  if (&a == &b) return false;
  if (!a.online_ || !b.online_) return false;
  if (a.peers_.size() >= a.config_.max_peers) return false;
  if (b.peers_.size() >= b.config_.max_peers) return false;
  if (a.ConnectedTo(b)) return false;
  const bool added_a = a.AddPeer(&b);
  const bool added_b = b.AddPeer(&a);
  assert(added_a && added_b);
  (void)added_a;
  (void)added_b;
  return true;
}

std::size_t EthNode::DisconnectAll() {
  std::size_t severed = 0;
  while (!peers_.empty()) {
    EthNode* peer = peers_.back().node;
    peers_.pop_back();
    const bool removed = peer->RemovePeer(this);
    assert(removed && "peer vectors out of sync");
    (void)removed;
    ++severed;
  }
  return severed;
}

void EthNode::GoOffline() {
  if (!online_) return;
  DisconnectAll();
  // In-flight relay state is RAM: lost with the process. Chain + pool model
  // disk state and survive for the restart.
  importing_.clear();
  requested_.clear();
  tx_broadcast_queue_.clear();
  flush_scheduled_ = false;
  ++epoch_;  // invalidate every callback scheduled before the crash
  online_ = false;
}

void EthNode::GoOnline() {
  if (online_) return;
  online_ = true;
}

bool EthNode::DropIngress(const EthNode* from, obs::MsgKind kind) {
  if (prov_ != nullptr) [[unlikely]]
    prov_->ResolveDelivery(from->host(), host_, online_);
  if (online_) [[likely]] return false;
  net_.NoteOfflineDrop(kind, region());
  return true;
}

bool EthNode::ConnectedTo(const EthNode& other) const {
  return std::any_of(peers_.begin(), peers_.end(),
                     [&](const Peer& p) { return p.node == &other; });
}

EthNode::Peer* EthNode::FindPeer(const EthNode* node) {
  for (auto& p : peers_)
    if (p.node == node) return &p;
  return nullptr;
}

void EthNode::MarkKnowsBlock(EthNode* from, const Hash32& hash) {
  if (Peer* p = FindPeer(from)) p->known_blocks.Insert(blocks_.Intern(hash));
}

// --- local actions ---------------------------------------------------------

void EthNode::SubmitTransaction(const chain::Transaction& tx) {
  if (!online_) return;  // a crashed node accepts no local submissions
  const chain::TxStore::TxId id = txs_.Add(tx);
  if (!seen_txs_.Insert(id)) return;
  const auto outcome = pool_.Add(id);
  if (txprov_ != nullptr) [[unlikely]]
    txprov_->RecordPoolOutcome(host_, tx.hash, sim_.Now().micros(),
                               static_cast<obs::TxPoolOutcome>(outcome),
                               tx.gas_price);
  QueueTxForBroadcast(id);
}

void EthNode::InjectMinedBlock(chain::BlockPtr block) {
  // Gateway outage: the pool's release policy (miner layer) decides whether
  // to fall back to another gateway or stall; a direct call on a crashed
  // node is simply swallowed here.
  if (!online_) return;
  // The miner built this block itself: no validation needed. Geth's
  // minedBroadcastLoop pushes the full block to sqrt(peers) and announces
  // the hash to everyone else.
  const auto result = tree_.Add(block, sim_.Now());
  if (result.outcome == chain::BlockTree::AddOutcome::kDuplicate) return;
  if (prov_ != nullptr) [[unlikely]]
    prov_->RecordOrigin(host_, block->hash, block->header.parent_hash,
                        block->header.number, sim_.Now().micros());
  AfterAdd(block, result, /*mined=*/true);
}

// --- wire ingress ------------------------------------------------------------

void EthNode::DeliverNewBlock(EthNode* from, chain::BlockPtr block) {
  if (DropIngress(from, obs::MsgKind::kNewBlock)) [[unlikely]] return;
  if (sink_ != nullptr)
    sink_->OnBlockMessage(MessageSink::BlockMsgKind::kFullBlock, block->hash,
                          block->header.number);
  if (block_tracer_ != nullptr) [[unlikely]]
    TraceBlockInstant("block.heard", "new_block", block->hash,
                      block->header.number);
  MarkKnowsBlock(from, block->hash);
  HandleIncomingBlock(std::move(block));
}

void EthNode::DeliverBlockResponse(EthNode* from, chain::BlockPtr block) {
  if (DropIngress(from, obs::MsgKind::kBlockResponse)) [[unlikely]] return;
  if (sink_ != nullptr)
    sink_->OnBlockMessage(MessageSink::BlockMsgKind::kFetched, block->hash,
                          block->header.number);
  if (block_tracer_ != nullptr) [[unlikely]]
    TraceBlockInstant("block.heard", "fetched", block->hash,
                      block->header.number);
  requested_.erase(block->hash);
  MarkKnowsBlock(from, block->hash);
  HandleIncomingBlock(std::move(block));
}

void EthNode::DeliverAnnouncement(EthNode* from, const Hash32& hash,
                                  std::uint64_t number) {
  if (DropIngress(from, obs::MsgKind::kAnnouncement)) [[unlikely]] return;
  if (sink_ != nullptr)
    sink_->OnBlockMessage(MessageSink::BlockMsgKind::kAnnouncement, hash,
                          number);
  if (block_tracer_ != nullptr) [[unlikely]]
    TraceBlockInstant("block.heard", "announcement", hash, number);
  MarkKnowsBlock(from, hash);
  if (tree_.Contains(hash) || importing_.contains(hash) ||
      requested_.contains(hash))
    return;
  RequestBlock(from, hash, number);
}

void EthNode::DeliverGetBlock(EthNode* from, const Hash32& hash) {
  if (DropIngress(from, obs::MsgKind::kGetBlock)) [[unlikely]] return;
  const chain::BlockPtr block = tree_.Get(hash);
  if (!block) return;  // pruned/unknown; requester will hear it elsewhere
  MarkKnowsBlock(from, hash);
  const net::SendOutcome sent = net_.Send(
      host_, from->host(), block->EncodedSize(), obs::MsgKind::kBlockResponse,
      [from, self = this, block] { from->DeliverBlockResponse(self, block); });
  if (prov_ != nullptr) [[unlikely]]
    prov_->RecordBlockEdge(host_, from->host(), obs::EdgeKind::kBlockResponse,
                           block->hash, block->header.number,
                           &block->header.parent_hash, block->EncodedSize(),
                           sim_.Now().micros(), ToEdgeOutcome(sent));
}

void EthNode::DeliverTransactions(EthNode* from, const TxBatch& batch) {
  if (DropIngress(from, obs::MsgKind::kTransactions)) [[unlikely]] return;
  Peer* peer = FindPeer(from);
  if (tx_received_count_ != nullptr) [[unlikely]]
    tx_received_count_->Add(batch->size());
  for (const chain::TxStore::TxId id : *batch) {
    if (sink_ != nullptr) sink_->OnTransactionMessage(txs_[id]);
    if (peer != nullptr) peer->known_txs.Insert(id);
    if (!seen_txs_.Insert(id)) continue;
    // Post-dedupe = this node's first reception of the transaction. The
    // recorder filters to vantage hosts itself.
    const chain::Transaction& tx = txs_[id];
    if (txprov_ != nullptr) [[unlikely]]
      txprov_->RecordFirstSeen(host_, tx.hash, sim_.Now().micros());
    const auto outcome = pool_.Add(id);
    if (txprov_ != nullptr) [[unlikely]]
      txprov_->RecordPoolOutcome(host_, tx.hash, sim_.Now().micros(),
                                 static_cast<obs::TxPoolOutcome>(outcome),
                                 tx.gas_price);
    QueueTxForBroadcast(id);
  }
}

// --- relay pipeline ----------------------------------------------------------

void EthNode::HandleIncomingBlock(chain::BlockPtr block) {
  const Hash32 hash = block->hash;
  if (tree_.Contains(hash) || importing_.contains(hash)) return;
  importing_.insert(hash);

  // Geth relays eagerly after the cheap PoW/header check, then spends the
  // full validation time before import. Both delays are sim-clock values
  // known here, so the validate span can be traced up front as one complete
  // ('X') event — no extra bookkeeping at fire time.
  if (block_tracer_ != nullptr || validate_hist_ != nullptr) [[unlikely]] {
    const Duration validation = ValidationDelay(*block);
    if (validate_hist_ != nullptr) validate_hist_->Observe(validation.micros());
    if (block_tracer_ != nullptr) {
      obs::TraceEvent event;
      event.name = "block.validate";
      event.ts_us = (sim_.Now() + config_.header_check_delay).micros();
      event.dur_us = validation.micros();
      event.arg_hash = hash.prefix_u64();
      event.arg_num = block->header.number;
      event.pid = trace_lane_;
      event.cat = obs::TraceCategory::kBlock;
      event.phase = 'X';
      block_tracer_->Emit(event);
    }
  }
  // Both stages capture the session epoch: a crash between header check and
  // import must abandon the pipeline (the block was only in RAM), and the
  // restarted session must not see a ghost import fire.
  sim_.Schedule(config_.header_check_delay, [this, block, epoch = epoch_] {
    if (epoch != epoch_) return;
    PushToSqrtPeers(block);
    sim_.Schedule(ValidationDelay(*block), [this, block, epoch] {
      if (epoch != epoch_) return;
      ImportBlock(block);
    });
  });
}

Duration EthNode::ValidationDelay(const chain::Block& block) const {
  const Duration work =
      config_.base_validation +
      config_.per_tx_validation * static_cast<double>(block.transactions.size());
  return work * config_.validation_speed_factor;
}

void EthNode::ImportBlock(chain::BlockPtr block) {
  const Hash32 hash = block->hash;
  importing_.erase(hash);

  // Consensus checks against the parent (when known). A byzantine or corrupt
  // block is dropped and never relayed further. (Blocks that arrive as
  // orphans attach inside the tree when their parent shows up and skip this
  // check — acceptable here because the fetch path re-delivers through this
  // function; a hardened client would validate at attach time.)
  if (const chain::BlockPtr parent = tree_.Get(block->header.parent_hash)) {
    if (chain::ValidateBlock(*block, parent->header) !=
        chain::ValidationError::kNone) {
      ++invalid_blocks_;
      if (invalid_count_ != nullptr) [[unlikely]] invalid_count_->Add();
      return;
    }
  }

  const auto result = tree_.Add(block, sim_.Now());
  switch (result.outcome) {
    case chain::BlockTree::AddOutcome::kDuplicate:
      return;
    case chain::BlockTree::AddOutcome::kOrphaned:
      // Fetch the missing parent from a random peer claiming block knowledge
      // (any peer, in our loss-free overlay).
      if (!peers_.empty() && !requested_.contains(block->header.parent_hash))
        RequestBlock(peers_[rng_.NextBounded(peers_.size())].node,
                     block->header.parent_hash, block->header.number - 1);
      return;
    case chain::BlockTree::AddOutcome::kAdded:
    case chain::BlockTree::AddOutcome::kAddedNewHead:
      break;
  }
  AfterAdd(block, result, /*mined=*/false);
}

void EthNode::AfterAdd(const chain::BlockPtr& block,
                       const chain::BlockTree::AddResult& result, bool mined) {
  // Reorg bookkeeping mirrors Geth: a retired block's transactions return to
  // the pool, an adopted block's leave it. The edits replay in the order the
  // tree made them, because one Add can adopt a block and retire it again.
  // Either way the pool maps each block tx to its store id with one lookup.
  const std::int64_t now_us = sim_.Now().micros();
  for (const auto& [edited, adopted] : result.edits) {
    if (adopted) {
      pool_.RemoveIncluded(edited->transactions);
      if (txprov_ != nullptr) [[unlikely]]
        for (const auto& tx : edited->transactions)
          txprov_->RecordIncluded(host_, tx.hash, now_us, edited->hash,
                                  edited->header.number);
      continue;
    }
    for (const auto& tx : edited->transactions) {
      pool_.RollbackAccountNonce(tx.sender, tx.nonce);
      pool_.Add(tx);
      if (txprov_ != nullptr) [[unlikely]]
        txprov_->RecordOrphanReturned(host_, tx.hash, now_us, edited->hash,
                                      edited->header.number);
    }
  }

  const bool new_head =
      result.outcome == chain::BlockTree::AddOutcome::kAddedNewHead;
  if (txprov_ != nullptr && new_head) [[unlikely]]
    txprov_->AdvanceHead(host_, tree_.head_number(), now_us);
  if (sink_ != nullptr) sink_->OnBlockImported(block, new_head);
  if (imported_count_ != nullptr) [[unlikely]] {
    imported_count_->Add();
    if (new_head) head_count_->Add();
  }
  if (block_tracer_ != nullptr) [[unlikely]]
    TraceBlockInstant("block.import",
                      mined ? "mined" : new_head ? "new_head" : "side",
                      block->hash, block->header.number);

  // A mined block is pushed to sqrt(peers) here, before the announce; a
  // relayed block was pushed after its header check.
  if (mined) PushToSqrtPeers(block);
  AnnounceToOtherPeers(block);

  if (new_head && on_new_head_) on_new_head_(tree_.head());
}

void EthNode::RequestBlock(EthNode* peer, const Hash32& hash,
                           std::uint64_t number) {
  requested_.insert(hash);
  const net::SendOutcome sent = net_.Send(
      host_, peer->host(), kGetBlockWireSize, obs::MsgKind::kGetBlock,
      [peer, self = this, hash] { peer->DeliverGetBlock(self, hash); });
  if (prov_ != nullptr) [[unlikely]]
    prov_->RecordBlockEdge(host_, peer->host(), obs::EdgeKind::kGetBlock, hash,
                           number, nullptr, kGetBlockWireSize,
                           sim_.Now().micros(), ToEdgeOutcome(sent));
  // Retry guard: if the fetch (or its response) is lost, forget it so the
  // next announcement re-triggers the request. Epoch-guarded: after a crash
  // the restarted session starts with a fresh `requested_` set and a stale
  // timer must not touch it.
  sim_.Schedule(config_.fetch_retry_timeout, [this, hash, epoch = epoch_] {
    if (epoch == epoch_) requested_.erase(hash);
  });
}

void EthNode::PushToSqrtPeers(const chain::BlockPtr& block) {
  if (peers_.empty()) return;
  if (config_.relay_mode == RelayMode::kAnnounceOnly) return;
  const auto want =
      config_.relay_mode == RelayMode::kPushAll
          ? peers_.size()
          : static_cast<std::size_t>(
                std::ceil(std::sqrt(static_cast<double>(peers_.size()))));

  // Sample peers without replacement until `want` unaware peers were pushed.
  // The shuffle reuses a member scratch buffer (zero allocations per relay)
  // and keeps the seed engine's exact Fisher-Yates draw sequence: a partial
  // shuffle would consume fewer RNG draws and silently change every
  // downstream random stream, breaking bit-for-bit replay compatibility with
  // recorded (config, seed) runs. With peers <= max_peers the O(peers) swap
  // loop is trivial next to the eliminated heap allocation.
  relay_order_.resize(peers_.size());
  for (std::uint32_t i = 0; i < relay_order_.size(); ++i) relay_order_[i] = i;
  for (std::size_t i = relay_order_.size(); i > 1; --i)
    std::swap(relay_order_[i - 1], relay_order_[rng_.NextBounded(i)]);

  const FifoIdSet::Id id = blocks_.Intern(block->hash);
  std::size_t pushed = 0;
  for (const std::uint32_t idx : relay_order_) {
    if (pushed == want) break;
    Peer& peer = peers_[idx];
    if (!peer.known_blocks.Insert(id)) continue;
    SendNewBlock(peer, block);
    ++pushed;
  }
}

void EthNode::AnnounceToOtherPeers(const chain::BlockPtr& block) {
  const FifoIdSet::Id id = blocks_.Intern(block->hash);
  for (Peer& peer : peers_)
    if (peer.known_blocks.Insert(id)) SendAnnouncement(peer, block);
}

void EthNode::SendNewBlock(Peer& peer, const chain::BlockPtr& block) {
  EthNode* target = peer.node;
  const net::SendOutcome sent = net_.Send(
      host_, target->host(), block->EncodedSize(), obs::MsgKind::kNewBlock,
      [target, self = this, block] { target->DeliverNewBlock(self, block); });
  if (prov_ != nullptr) [[unlikely]]
    prov_->RecordBlockEdge(host_, target->host(), obs::EdgeKind::kNewBlock,
                           block->hash, block->header.number,
                           &block->header.parent_hash, block->EncodedSize(),
                           sim_.Now().micros(), ToEdgeOutcome(sent));
}

void EthNode::SendAnnouncement(Peer& peer, const chain::BlockPtr& block) {
  EthNode* target = peer.node;
  const net::SendOutcome sent = net_.Send(
      host_, target->host(), kAnnouncementWireSize,
      obs::MsgKind::kAnnouncement,
      [target, self = this, hash = block->hash,
       number = block->header.number] {
        target->DeliverAnnouncement(self, hash, number);
      });
  if (prov_ != nullptr) [[unlikely]]
    prov_->RecordBlockEdge(host_, target->host(), obs::EdgeKind::kAnnouncement,
                           block->hash, block->header.number, nullptr,
                           kAnnouncementWireSize, sim_.Now().micros(),
                           ToEdgeOutcome(sent));
}

// --- transaction gossip ------------------------------------------------------

void EthNode::QueueTxForBroadcast(chain::TxStore::TxId id) {
  tx_broadcast_queue_.push_back(id);
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    sim_.Schedule(config_.tx_flush_interval, [this, epoch = epoch_] {
      if (epoch == epoch_) FlushTxBroadcast();
    });
  }
}

void EthNode::FlushTxBroadcast() {
  flush_scheduled_ = false;
  if (tx_broadcast_queue_.empty()) return;
  // One immutable id vector per flush, shared by every peer that needs all
  // of it; any other peer gets its own id list (4 bytes per tx either way).
  const auto batch = std::make_shared<const std::vector<chain::TxStore::TxId>>(
      std::move(tx_broadcast_queue_));
  tx_broadcast_queue_.clear();
  const std::vector<chain::TxStore::TxId>& queue = *batch;

  if (tx_tracer_ != nullptr) [[unlikely]] {
    obs::TraceEvent event;
    event.name = "tx.flush";
    event.ts_us = sim_.Now().micros();
    event.arg_num = queue.size();
    event.pid = trace_lane_;
    event.cat = obs::TraceCategory::kTx;
    event.phase = 'i';
    tx_tracer_->Emit(event);
  }

  // Each peer pays one Insert per tx, which returns false for a tx the peer
  // already knows.
  for (Peer& peer : peers_) {
    flush_subset_.clear();
    std::size_t bytes = kTxBatchOverhead;
    for (const chain::TxStore::TxId id : queue) {
      if (!peer.known_txs.Insert(id)) continue;
      flush_subset_.push_back(id);
      bytes += txs_[id].EncodedSize();
    }
    if (flush_subset_.empty()) continue;
    TxBatch message =
        flush_subset_.size() == queue.size()
            ? batch
            : std::make_shared<const std::vector<chain::TxStore::TxId>>(
                  flush_subset_);
    EthNode* target = peer.node;
    const net::SendOutcome sent = net_.Send(
        host_, target->host(), bytes, obs::MsgKind::kTransactions,
        [target, self = this, message = std::move(message)] {
          target->DeliverTransactions(self, message);
        });
    if (prov_ != nullptr) [[unlikely]]
      prov_->RecordTxEdge(host_, target->host(), flush_subset_.size(), bytes,
                          sim_.Now().micros(), ToEdgeOutcome(sent));
  }
}

}  // namespace ethsim::eth
