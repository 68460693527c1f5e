// The measurement infrastructure of §II: an Observer is the "instrumented
// Geth" — it attaches to a full node as its MessageSink and logs every
// incoming block/transaction message with a *local* timestamp, i.e. the
// simulation clock plus this vantage's NTP-style offset. Everything the
// analysis pipeline consumes comes from these records, never from simulator
// internals, mirroring the paper's log-driven methodology.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "eth/node.hpp"
#include "eth/sink.hpp"
#include "net/geo.hpp"
#include "sim/simulator.hpp"

namespace ethsim::measure {

struct BlockArrival {
  Hash32 hash;
  std::uint64_t number = 0;
  eth::MessageSink::BlockMsgKind kind = eth::MessageSink::BlockMsgKind::kFullBlock;
  TimePoint local_time;  // skewed by the vantage's clock offset
};

struct TxArrival {
  Hash32 hash;
  Address sender;
  std::uint64_t nonce = 0;
  TimePoint local_time;
};

struct ImportEvent {
  Hash32 hash;
  std::uint64_t number = 0;
  bool new_head = false;
  TimePoint local_time;
};

// How a vantage stores one arrival: 16 B, against 56 for a BlockArrival and
// 72 for a TxArrival. `key` numbers the arrival's distinct block (hash,
// number) or tx (hash, sender, nonce) in the vantage's key table; `kind` is
// unused for txs.
struct ArrivalRecord {
  std::uint32_t key = 0;
  eth::MessageSink::BlockMsgKind kind{};
  std::int64_t local_us = 0;
};

struct BlockKey {
  using Arrival = BlockArrival;
  Hash32 hash;
  std::uint64_t number = 0;
  bool operator==(const BlockKey&) const = default;
  BlockArrival Expand(const ArrivalRecord& r) const {
    return {hash, number, r.kind, TimePoint::FromMicros(r.local_us)};
  }
};

struct TxKey {
  using Arrival = TxArrival;
  Hash32 hash;
  Address sender;
  std::uint64_t nonce = 0;
  bool operator==(const TxKey&) const = default;
  TxArrival Expand(const ArrivalRecord& r) const {
    return {hash, sender, nonce, TimePoint::FromMicros(r.local_us)};
  }
};

// A vantage's distinct keys, each held once and numbered densely in
// first-seen order. Keys lead with a keccak hash, so the index probes
// straight off its first word, as chain::HashInterner does.
template <typename Key>
class KeyTable {
 public:
  // The key's number, and whether this call added it.
  std::pair<std::uint32_t, bool> Intern(const Key& key) {
    if (keys_.size() * 2 >= slots_.size()) Rehash();
    std::size_t slot = Home(key);
    for (; slots_[slot] != kNoKey; slot = (slot + 1) & Mask())
      if (keys_[slots_[slot]] == key) return {slots_[slot], false};
    const auto number = static_cast<std::uint32_t>(keys_.size());
    keys_.push_back(key);
    slots_[slot] = number;
    return {number, true};
  }
  const Key& operator[](std::uint32_t i) const { return keys_[i]; }
  std::size_t allocated_bytes() const {
    return keys_.capacity() * sizeof(Key) +
           slots_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kNoKey = 0xFFFFFFFFu;

  std::size_t Mask() const { return slots_.size() - 1; }
  std::size_t Home(const Key& key) const {
    std::uint64_t v = 0;
    std::memcpy(&v, key.hash.bytes.data(), sizeof(v));
    return static_cast<std::size_t>(v) & Mask();
  }
  // Doubles the index (64 slots at first) and re-places every key.
  void Rehash() {
    slots_.assign(slots_.empty() ? 64 : slots_.size() * 2, kNoKey);
    for (std::uint32_t i = 0; i < keys_.size(); ++i) {
      std::size_t slot = Home(keys_[i]);
      while (slots_[slot] != kNoKey) slot = (slot + 1) & Mask();
      slots_[slot] = i;
    }
  }

  std::vector<Key> keys_;
  std::vector<std::uint32_t> slots_;  // kNoKey or a key number
};

// A read-only view of one arrival log. It joins each record with its key and
// yields the full BlockArrival or TxArrival by value. It reads the observer's
// storage, so it must not outlive the observer, and the next arrival the
// observer logs invalidates its iterators, as push_back does a vector's.
template <typename Key>
class ArrivalLog {
 public:
  using value_type = typename Key::Arrival;

  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = typename Key::Arrival;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = value_type;

    iterator() = default;
    value_type operator*() const {
      return (*keys_)[record_->key].Expand(*record_);
    }
    iterator& operator++() {
      ++record_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++record_;
      return old;
    }
    bool operator==(const iterator& other) const {
      return record_ == other.record_;
    }

   private:
    friend ArrivalLog;
    iterator(const KeyTable<Key>* keys, const ArrivalRecord* record)
        : keys_(keys), record_(record) {}
    const KeyTable<Key>* keys_ = nullptr;
    const ArrivalRecord* record_ = nullptr;
  };

  ArrivalLog(const std::vector<ArrivalRecord>& records,
             const KeyTable<Key>& keys)
      : records_(&records), keys_(&keys) {}

  std::size_t size() const { return records_->size(); }
  bool empty() const { return records_->empty(); }
  value_type operator[](std::size_t i) const {
    const ArrivalRecord& r = (*records_)[i];
    return (*keys_)[r.key].Expand(r);
  }
  value_type front() const { return (*this)[0]; }
  iterator begin() const { return {keys_, records_->data()}; }
  iterator end() const { return {keys_, records_->data() + records_->size()}; }

 private:
  const std::vector<ArrivalRecord>* records_;
  const KeyTable<Key>* keys_;
};

class Observer final : public eth::MessageSink {
 public:
  Observer(std::string name, net::Region region, sim::Simulator& simulator,
           Duration clock_offset);

  // Installs this observer as the node's message sink.
  void Attach(eth::EthNode& node);

  const std::string& name() const { return name_; }
  net::Region region() const { return region_; }
  Duration clock_offset() const { return clock_offset_; }
  const eth::EthNode* node() const { return node_; }

  // What this vantage's wall clock reads right now.
  TimePoint LocalNow() const { return sim_.Now() + clock_offset_; }

  // Clock-jump injection (src/fault): shifts this vantage's wall clock by
  // `delta` from now on — an NTP step or a VM pause/resume skew. Records
  // already logged keep their original timestamps, exactly like a real log
  // file written before the jump.
  void AdjustClockOffset(Duration delta) { clock_offset_ = clock_offset_ + delta; }

  ArrivalLog<BlockKey> block_arrivals() const { return {blocks_, block_keys_}; }
  ArrivalLog<TxKey> tx_arrivals() const { return {txs_, tx_keys_}; }
  const std::vector<ImportEvent>& imports() const { return imports_; }
  // Heap bytes held by the three logs and the two key tables (capacities);
  // the first-arrival maps are not counted.
  std::size_t allocated_bytes() const;

  // First arrival (any message kind) per block / transaction hash.
  const std::unordered_map<Hash32, TimePoint>& first_block_arrival() const {
    return first_block_;
  }
  const std::unordered_map<Hash32, TimePoint>& first_tx_arrival() const {
    return first_tx_;
  }

  // MessageSink:
  void OnBlockMessage(BlockMsgKind kind, const Hash32& hash, std::uint64_t number,
                      const chain::Block* full) override;
  void OnTransactionMessage(const chain::Transaction& tx) override;
  void OnBlockImported(const chain::BlockPtr& block, bool new_head) override;

  // Keccak digest over every record stream in arrival order — the compact
  // fingerprint the determinism tests and run manifests compare. Two runs
  // observed the same world iff their vantage digests match.
  Hash32 Digest() const;

  // Replay ingestion: load records captured earlier (dataset playback). The
  // record's own local_time is preserved; first-arrival indices update.
  void IngestBlockArrival(const BlockArrival& arrival);
  void IngestTxArrival(const TxArrival& arrival);
  void IngestImport(const ImportEvent& event);

 private:
  std::string name_;
  net::Region region_;
  sim::Simulator& sim_;
  Duration clock_offset_;
  eth::EthNode* node_ = nullptr;

  std::vector<ArrivalRecord> blocks_;
  std::vector<ArrivalRecord> txs_;
  KeyTable<BlockKey> block_keys_;
  KeyTable<TxKey> tx_keys_;
  std::vector<ImportEvent> imports_;
  std::unordered_map<Hash32, TimePoint> first_block_;
  std::unordered_map<Hash32, TimePoint> first_tx_;
};

}  // namespace ethsim::measure
