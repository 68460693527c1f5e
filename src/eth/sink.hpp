// Instrumentation hook. The paper modified Geth to "capture and log all
// incoming network messages" (§II); MessageSink is that patch point. A plain
// node runs with a null sink; measurement nodes install a recorder
// (measure::Observer) that timestamps every callback with its own skewed
// clock.
#pragma once

#include <cstdint>

#include "chain/block.hpp"
#include "chain/blocktree.hpp"
#include "chain/transaction.hpp"
#include "common/types.hpp"

namespace ethsim::eth {

class MessageSink {
 public:
  virtual ~MessageSink() = default;

  enum class BlockMsgKind {
    kFullBlock,     // unsolicited NewBlock push
    kAnnouncement,  // NewBlockHashes entry
    kFetched,       // block body received in response to our GetBlock
  };

  // A block-related message arrived from a peer.
  virtual void OnBlockMessage(BlockMsgKind kind, const Hash32& hash,
                              std::uint64_t number) = 0;

  // A transaction arrived from a peer (inside a Transactions batch).
  virtual void OnTransactionMessage(const chain::Transaction& tx) = 0;

  // The local node finished validating and inserted the block.
  virtual void OnBlockImported(const chain::BlockPtr& block, bool new_head) = 0;
};

}  // namespace ethsim::eth
