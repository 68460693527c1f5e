#include "measure/observer.hpp"

#include "common/keccak.hpp"

namespace ethsim::measure {

namespace {

void UpdateU64(Keccak256& hasher, std::uint64_t value) {
  std::uint8_t buf[8];
  for (int i = 7; i >= 0; --i) {
    buf[i] = static_cast<std::uint8_t>(value & 0xff);
    value >>= 8;
  }
  hasher.Update(std::span<const std::uint8_t>(buf, 8));
}

}  // namespace

Observer::Observer(std::string name, net::Region region,
                   sim::Simulator& simulator, Duration clock_offset)
    : name_(std::move(name)),
      region_(region),
      sim_(simulator),
      clock_offset_(clock_offset) {}

void Observer::Attach(eth::EthNode& node) {
  node_ = &node;
  node.set_sink(this);
}

// A key seen before already put its hash into the first-arrival map, so only
// a new key probes it.
void Observer::OnBlockMessage(BlockMsgKind kind, const Hash32& hash,
                              std::uint64_t number, const chain::Block* full) {
  (void)full;
  const TimePoint now = LocalNow();
  const auto [key, added] = block_keys_.Intern({hash, number});
  blocks_.push_back({key, kind, now.micros()});
  if (added) first_block_.try_emplace(hash, now);
}

void Observer::OnTransactionMessage(const chain::Transaction& tx) {
  const TimePoint now = LocalNow();
  const auto [key, added] = tx_keys_.Intern({tx.hash, tx.sender, tx.nonce});
  txs_.push_back({key, BlockMsgKind{}, now.micros()});
  if (added) first_tx_.try_emplace(tx.hash, now);
}

void Observer::OnBlockImported(const chain::BlockPtr& block, bool new_head) {
  imports_.push_back(
      ImportEvent{block->hash, block->header.number, new_head, LocalNow()});
}

void Observer::IngestBlockArrival(const BlockArrival& arrival) {
  blocks_.push_back({block_keys_.Intern({arrival.hash, arrival.number}).first,
                     arrival.kind, arrival.local_time.micros()});
  auto [it, inserted] = first_block_.try_emplace(arrival.hash, arrival.local_time);
  if (!inserted && arrival.local_time < it->second)
    it->second = arrival.local_time;
}

void Observer::IngestTxArrival(const TxArrival& arrival) {
  txs_.push_back(
      {tx_keys_.Intern({arrival.hash, arrival.sender, arrival.nonce}).first,
       BlockMsgKind{}, arrival.local_time.micros()});
  auto [it, inserted] = first_tx_.try_emplace(arrival.hash, arrival.local_time);
  if (!inserted && arrival.local_time < it->second)
    it->second = arrival.local_time;
}

void Observer::IngestImport(const ImportEvent& event) {
  imports_.push_back(event);
}

std::size_t Observer::allocated_bytes() const {
  return (blocks_.capacity() + txs_.capacity()) * sizeof(ArrivalRecord) +
         imports_.capacity() * sizeof(ImportEvent) +
         block_keys_.allocated_bytes() + tx_keys_.allocated_bytes();
}

Hash32 Observer::Digest() const {
  Keccak256 hasher;
  hasher.Update(name_);
  UpdateU64(hasher, static_cast<std::uint64_t>(clock_offset_.micros()));
  UpdateU64(hasher, blocks_.size());
  for (const BlockArrival b : block_arrivals()) {
    hasher.Update(std::span<const std::uint8_t>(b.hash.data(), Hash32::size()));
    UpdateU64(hasher, b.number);
    UpdateU64(hasher, static_cast<std::uint64_t>(b.kind));
    UpdateU64(hasher, static_cast<std::uint64_t>(b.local_time.micros()));
  }
  UpdateU64(hasher, txs_.size());
  for (const TxArrival t : tx_arrivals()) {
    hasher.Update(std::span<const std::uint8_t>(t.hash.data(), Hash32::size()));
    UpdateU64(hasher, t.nonce);
    UpdateU64(hasher, static_cast<std::uint64_t>(t.local_time.micros()));
  }
  UpdateU64(hasher, imports_.size());
  for (const ImportEvent& e : imports_) {
    hasher.Update(std::span<const std::uint8_t>(e.hash.data(), Hash32::size()));
    UpdateU64(hasher, e.number);
    UpdateU64(hasher, e.new_head ? 1 : 0);
    UpdateU64(hasher, static_cast<std::uint64_t>(e.local_time.micros()));
  }
  return hasher.Final();
}

}  // namespace ethsim::measure
