// Transaction lifecycle provenance: a deterministic, env-gated
// (ETHSIM_TXPROV) flight recorder that captures every stage transition of a
// transaction's journey — submitted at a frontend (source, region, fee),
// first seen by a vantage node, pool admit/reject/replace-by-fee outcome at
// each host, selected into a block by a mining pool, included on the commit
// anchor's canonical chain, returned to the pool when a reorg orphans its
// block, and committed at each configured confirmation depth — as
// sim-timestamped stage records written to a columnar artifact
// (txprov.bin, obs/columns).
//
// Where obs/provenance_dag answers "how did this BLOCK spread?", this
// recorder answers "where did this TRANSACTION's commit latency come from?"
// — the per-tx primitive behind the paper's Fig 4 end-to-end commit story
// and the DEthna-style marked-transaction tracing. analysis/latency_stages
// decomposes the record stream into submit→admit / admit→include /
// include→commit latencies per region and per pool; tools/ethsim_inspect
// answers ad-hoc --tx / --stages queries against the written artifact.
//
// Contract (same as the rest of src/obs): record-only. The recorder never
// draws from any Rng and never schedules events, so enabling it cannot
// change a run's results; with it disabled every hook costs one predicted
// branch on a null pointer.
//
// Roles. Stage records are scoped to keep the stream small and unambiguous:
//   * kSubmitted fires once per submission at the frontend the workload
//     generator picked (host = the frontend's host id).
//   * kFirstSeen fires only at *vantage* hosts (the measurement observers) —
//     MarkVantage selects them; other hosts' receptions are already covered
//     by the dissemination provenance.
//   * Pool outcomes fire at every host whose TxPool processed the tx (the
//     frontend admit is the earliest and anchors the queueing decomposition).
//   * kIncluded / kOrphanReturned / kCommitted fire only at the *anchor*
//     host (MarkAnchor; core::Experiment uses pool 0's primary gateway,
//     which is nodes_[0]) so the canonical-chain story is a single
//     consistent timeline rather than N racing ones.
//
// A runtime invariant checker (obs/flight_recorder) rides the stream and
// verifies stage monotonicity (per-tx record times never go backwards), no
// inclusion of a never-admitted tx, no orphan-return without a live
// inclusion, and no commit before inclusion. Each violation increments a
// `txprov.violation{check=...}` counter and warns — or aborts when
// ETHSIM_TXPROV=strict.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "obs/flight_recorder.hpp"

namespace ethsim::obs {

// Lifecycle stages. The `info`/`aux`/`number` columns are stage-specific;
// see each enumerator.
enum class TxStage : std::uint8_t {
  kSubmitted = 0,   // info=source index, aux=gas price, number=replacement k
  kFirstSeen,       // vantage host first reception
  kPoolAdmitted,    // info=TxPoolOutcome (pending/queued), aux=gas price
  kPoolRejected,    // info=TxPoolOutcome (known/stale/rejected), aux=gas price
  kPoolReplaced,    // info=TxPoolOutcome (replaced: this tx evicted a cheaper
                    // same-nonce predecessor), aux=gas price
  kSelected,        // info=pool index, aux=block hash prefix, number=height
  kIncluded,        // anchor canonical adoption; aux=block, number=height
  kOrphanReturned,  // anchor reorg retired the block; aux=block, number=height
  kCommitted,       // info=confirmation depth, aux=block, number=include height
};
inline constexpr std::size_t kTxStageCount = 9;
std::string_view TxStageName(TxStage stage);

// Mirrors chain::TxPool::AddOutcome value-for-value (static_assert at the
// hook site); kept separate so obs stays free of chain includes.
enum class TxPoolOutcome : std::uint8_t {
  kPending = 0,  // admitted to the executable set
  kQueued,       // admitted to the future-nonce queue
  kKnown,        // duplicate, dropped
  kStale,        // nonce already used on-chain, dropped
  kReplaced,     // admitted by evicting a cheaper same-(sender,nonce) tx
  kRejected,     // underpriced replacement / pool policy, dropped
};
inline constexpr std::size_t kTxPoolOutcomeCount = 6;
std::string_view TxPoolOutcomeName(TxPoolOutcome outcome);

// The complete stage log of one run in columnar (struct-of-arrays) form, in
// recording order (the deterministic event order of the run; per-tx times
// are monotone, the global time column is not — legacy burst submissions are
// recorded at scheduling time with their future submit timestamp). This is
// both the in-memory store of the recorder and the deserialized form of the
// txprov.bin artifact.
struct TxProvLog {
  std::vector<std::int64_t> t_us;
  std::vector<std::uint64_t> tx;    // hash prefix (prefix_u64)
  std::vector<std::uint32_t> host;  // acting host id
  std::vector<std::uint8_t> stage;  // TxStage
  std::vector<std::uint16_t> info;
  std::vector<std::uint64_t> aux;
  std::vector<std::uint64_t> number;

  // Host id -> region index (net::Region); kUnknownRegion when unregistered.
  std::vector<std::uint8_t> host_region;
  // Confirmation depths the recorder swept (kCommitted's info domain).
  std::vector<std::uint64_t> depths;

  std::int64_t end_us = INT64_MAX;

  std::size_t size() const { return t_us.size(); }
  bool empty() const { return t_us.empty(); }

  // txprov.bin IO through the columnar container (obs/columns): one column
  // per field above plus the 1-row `end_us`. The reader also rejects
  // out-of-range stage bytes, a depth table that is not strictly increasing,
  // per-tx time regressions and commits at depths outside the table. Both
  // return false and fill `error` (when non-null) on failure.
  bool WriteBinary(const std::string& path, std::string* error = nullptr) const;
  static bool ReadBinary(const std::string& path, TxProvLog* out,
                         std::string* error = nullptr);
};

// The invariants checked at runtime on the stage stream.
enum class TxInvariant : std::uint8_t {
  kNonMonotoneStage = 0,        // record earlier than a prior record (per tx)
  kIncludeWithoutAdmit,         // canonical inclusion of a never-admitted tx
  kOrphanReturnWithoutInclude,  // orphan-return with no live inclusion
  kCommitBeforeInclude,         // depth commit while not included
};
inline constexpr std::size_t kTxInvariantCount = 4;
std::string_view TxInvariantName(TxInvariant check);

struct TxProvConfig {
  // Abort (after logging) on the first invariant violation.
  bool fatal_invariants = false;
  // Confirmation depths swept by the anchor commit pass. Must match the
  // TransactionCommitTimes / AnalyzeDemand depths the analysis reconciles
  // against.
  std::vector<std::uint64_t> confirmation_depths = {0, 3, 12, 15, 36};
};

class TxProvRecorder {
 public:
  using Checker = InvariantChecker<TxInvariant, kTxInvariantCount>;

  explicit TxProvRecorder(TxProvConfig config);
  TxProvRecorder(const TxProvRecorder&) = delete;
  TxProvRecorder& operator=(const TxProvRecorder&) = delete;

  // Wires txprov.record{stage=...} + violation counters. Optional.
  void AttachMetrics(MetricsRegistry* metrics);

  // Declares a host and its region (net::Region index). Called from
  // EthNode::AttachTelemetry; hosts appearing in records without
  // registration get kUnknownRegion in the artifact host table.
  void RegisterHost(std::uint32_t host, std::uint8_t region);
  // Role scoping (see file comment). core::Experiment marks the measurement
  // vantages and the commit anchor after building the overlay.
  void MarkVantage(std::uint32_t host);
  void MarkAnchor(std::uint32_t host);
  bool IsAnchor(std::uint32_t host) const {
    return has_anchor_ && host == anchor_host_;
  }

  // --- producer hooks (record-only; see header comment for scoping) -------
  void RecordSubmitted(const Hash32& hash, std::int64_t t_us,
                       std::uint32_t frontend_host, std::uint16_t source,
                       std::uint64_t gas_price, std::uint16_t replacement);
  // No-op unless `host` is a marked vantage (node-level dedupe makes this
  // the host's first reception).
  void RecordFirstSeen(std::uint32_t host, const Hash32& hash,
                       std::int64_t t_us);
  void RecordPoolOutcome(std::uint32_t host, const Hash32& hash,
                         std::int64_t t_us, TxPoolOutcome outcome,
                         std::uint64_t gas_price);
  void RecordSelected(std::uint32_t host, const Hash32& hash,
                      std::int64_t t_us, std::uint16_t pool,
                      const Hash32& block, std::uint64_t height);
  // No-ops unless `host` is the marked anchor.
  void RecordIncluded(std::uint32_t host, const Hash32& hash,
                      std::int64_t t_us, const Hash32& block,
                      std::uint64_t height);
  void RecordOrphanReturned(std::uint32_t host, const Hash32& hash,
                            std::int64_t t_us, const Hash32& block,
                            std::uint64_t height);
  // Sweeps the pending-commit buckets up to the anchor's new head height,
  // emitting kCommitted once per (tx, depth) — sticky across reorgs, so a
  // re-included tx never double-commits a depth.
  void AdvanceHead(std::uint32_t host, std::uint64_t head_number,
                   std::int64_t t_us);

  // Run cutoff for the artifact.
  void SetEndTime(std::int64_t end_us) { log_.end_us = end_us; }

  // The finished log. Records are already in deterministic event order (a
  // single append stream); recording after Finish is a programming error.
  const TxProvLog& Finish() const { return log_; }

  std::uint64_t records_recorded() const { return log_.size(); }
  std::uint64_t violations() const { return checker_.total(); }
  Checker& checker() { return checker_; }
  const Checker& checker() const { return checker_; }
  const std::vector<std::uint64_t>& confirmation_depths() const {
    return config_.confirmation_depths;
  }

 private:
  struct TxState {
    std::int64_t last_t_us = INT64_MIN;  // monotonicity watermark
    // Latest canonical inclusion; the depth sweep anchors to it. The sim can
    // include one tx in several canonical blocks (independent pools select
    // it around a partition heal), so liveness is a count: each inclusion
    // increments, each orphan-return decrements, and the tx is live while
    // the count is positive.
    std::uint64_t include_height = 0;
    std::uint64_t include_block = 0;   // block hash prefix
    std::uint32_t include_count = 0;   // live canonical inclusions
    std::uint32_t committed_mask = 0;  // bit i: depth[i] already committed
    bool admitted = false;             // ever pool-admitted at any host
  };
  struct PendingCommit {
    std::uint64_t tx = 0;
    std::uint64_t include_height = 0;  // stale when it no longer matches
    std::uint32_t depth_index = 0;
  };

  TxState& State(std::uint64_t tx) { return txs_[tx]; }
  void Append(TxStage stage, std::uint64_t tx, std::int64_t t_us,
              std::uint32_t host, std::uint16_t info, std::uint64_t aux,
              std::uint64_t number);

  TxProvConfig config_;
  Checker checker_;

  TxProvLog log_;
  std::unordered_map<std::uint64_t, TxState> txs_;
  // Commit height -> entries waiting for the anchor head to reach it.
  // Ordered so AdvanceHead pops buckets in deterministic height order.
  std::map<std::uint64_t, std::vector<PendingCommit>> commit_queue_;

  std::vector<bool> vantage_;
  std::uint32_t anchor_host_ = 0;
  bool has_anchor_ = false;

  std::array<Counter*, kTxStageCount> stage_count_{};
};

}  // namespace ethsim::obs
