// eth/63 wire formats: a reference RLP codec for the messages EthNode
// models as C++ objects. No production binary calls it. The bandwidth model
// sizes messages with Block::EncodedSize, Transaction::EncodedSize and the
// wire-size constants in eth/node.hpp; Wire.WireSizesMatchEncodings checks
// Block::EncodedSize against this codec. The codecs round-trip; see the wire
// tests.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/block.hpp"
#include "chain/transaction.hpp"
#include "common/rlp.hpp"

namespace ethsim::eth::wire {

// devp2p message ids for the eth/63 capability (subset used here).
enum class MsgId : std::uint8_t {
  kStatus = 0x00,
  kNewBlockHashes = 0x01,
  kTransactions = 0x02,
  kGetBlockHeaders = 0x03,  // stands in for our GetBlock fetch
  kNewBlock = 0x07,
};

// STATUS: protocolVersion, networkId, totalDifficulty, head, genesis.
struct Status {
  std::uint32_t protocol_version = 63;
  std::uint64_t network_id = 1;
  std::uint64_t total_difficulty = 0;
  Hash32 head;
  Hash32 genesis;
};
rlp::Bytes EncodeStatus(const Status& status);
bool DecodeStatus(const rlp::Bytes& data, Status& out);

// NEW_BLOCK_HASHES: [[hash, number], ...].
struct Announcement {
  Hash32 hash;
  std::uint64_t number = 0;
};
rlp::Bytes EncodeAnnouncements(const std::vector<Announcement>& anns);
bool DecodeAnnouncements(const rlp::Bytes& data, std::vector<Announcement>& out);

// TRANSACTIONS: [tx, ...].
rlp::Bytes EncodeTransactions(const std::vector<chain::Transaction>& txs);
bool DecodeTransactions(const rlp::Bytes& data,
                        std::vector<chain::Transaction>& out);

// GET_BLOCK (simplified GetBlockHeaders by hash).
rlp::Bytes EncodeGetBlock(const Hash32& hash);
bool DecodeGetBlock(const rlp::Bytes& data, Hash32& out);

// NEW_BLOCK: [block(header, txs, uncles), totalDifficulty].
rlp::Bytes EncodeNewBlock(const chain::Block& block,
                          std::uint64_t total_difficulty);
bool DecodeNewBlock(const rlp::Bytes& data, chain::Block& out,
                    std::uint64_t& total_difficulty);

// Exact wire sizes (encoding length + 1-byte msg id), used by the bandwidth
// model. These agree with the Encode* results by construction (tested).
std::size_t NewBlockWireSize(const chain::Block& block);
std::size_t AnnouncementsWireSize(std::size_t count);
std::size_t TransactionsWireSize(const std::vector<chain::Transaction>& txs);
std::size_t GetBlockWireSize();

}  // namespace ethsim::eth::wire
