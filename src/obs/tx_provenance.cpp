// Implementation of the transaction-lifecycle flight recorder. See the
// header for role scoping; the notes here cover the commit sweep:
//
// Commit scheduling. When the anchor adopts a block at height h containing a
// tx, the recorder buckets one PendingCommit per configured depth d at key
// h + d. AdvanceHead pops every bucket at or below the new head height and
// emits kCommitted for entries that are still *valid*: the tx is still
// included, at the same height the entry was scheduled for (a reorg in
// between invalidates the entry — the re-adoption schedules fresh ones), and
// that depth has not already been committed (the per-tx committed mask is
// sticky across reorgs, so "committed at depth d" is emitted at most once
// per tx, matching the first-time-d-deep semantics of analysis/commit).
#include "obs/tx_provenance.hpp"

#include <algorithm>
#include <cinttypes>
#include <utility>

#include "obs/columns.hpp"
#include "obs/metrics.hpp"

namespace ethsim::obs {

std::string_view TxStageName(TxStage stage) {
  switch (stage) {
    case TxStage::kSubmitted:
      return "submitted";
    case TxStage::kFirstSeen:
      return "first_seen";
    case TxStage::kPoolAdmitted:
      return "pool_admitted";
    case TxStage::kPoolRejected:
      return "pool_rejected";
    case TxStage::kPoolReplaced:
      return "pool_replaced";
    case TxStage::kSelected:
      return "selected";
    case TxStage::kIncluded:
      return "included";
    case TxStage::kOrphanReturned:
      return "orphan_returned";
    case TxStage::kCommitted:
      return "committed";
  }
  return "unknown";
}

std::string_view TxPoolOutcomeName(TxPoolOutcome outcome) {
  switch (outcome) {
    case TxPoolOutcome::kPending:
      return "pending";
    case TxPoolOutcome::kQueued:
      return "queued";
    case TxPoolOutcome::kKnown:
      return "known";
    case TxPoolOutcome::kStale:
      return "stale";
    case TxPoolOutcome::kReplaced:
      return "replaced";
    case TxPoolOutcome::kRejected:
      return "rejected";
  }
  return "unknown";
}

std::string_view TxInvariantName(TxInvariant check) {
  switch (check) {
    case TxInvariant::kNonMonotoneStage:
      return "monotonic_stage";
    case TxInvariant::kIncludeWithoutAdmit:
      return "include_without_admit";
    case TxInvariant::kOrphanReturnWithoutInclude:
      return "orphan_return_without_include";
    case TxInvariant::kCommitBeforeInclude:
      return "commit_before_include";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// TxProvLog

bool TxProvLog::WriteBinary(const std::string& path, std::string* error) const {
  ColumnWriter out;
  out.AddScalar("end_us", end_us);
  out.Add("host_region", host_region);
  out.Add("depths", depths);
  out.Add("t_us", t_us);
  out.Add("tx", tx);
  out.Add("host", host);
  out.Add("stage", stage);
  out.Add("info", info);
  out.Add("aux", aux);
  out.Add("number", number);
  return out.Write(path, error);
}

bool TxProvLog::ReadBinary(const std::string& path, TxProvLog* out,
                           std::string* error) {
  ColumnReader in;
  if (!in.Open(path, error) || !in.TakeScalar("end_us", &out->end_us, error) ||
      !in.Take("host_region", &out->host_region, error) ||
      !in.Take("depths", &out->depths, error) ||
      !in.Take("t_us", &out->t_us, error))
    return false;
  const std::uint64_t n = out->t_us.size();
  if (!in.Take("tx", &out->tx, error, n) ||
      !in.Take("host", &out->host, error, n) ||
      !in.Take("stage", &out->stage, error, n) ||
      !in.Take("info", &out->info, error, n) ||
      !in.Take("aux", &out->aux, error, n) ||
      !in.Take("number", &out->number, error, n))
    return false;
  for (std::size_t d = 1; d < out->depths.size(); ++d)
    if (out->depths[d - 1] >= out->depths[d])
      return in.Fail(error, "depth table is not strictly increasing");
  // Per-tx record times never go backwards (the global column can: legacy
  // bursts record their future submit timestamps at scheduling time).
  std::unordered_map<std::uint64_t, std::int64_t> last_t;
  for (std::size_t i = 0; i < n; ++i) {
    const auto fail = [&](const char* what) {
      return in.Fail(error, "row " + std::to_string(i) + ": " + what);
    };
    if (out->stage[i] >= kTxStageCount) return fail("stage out of range");
    auto [it, inserted] = last_t.try_emplace(out->tx[i], out->t_us[i]);
    if (out->t_us[i] < it->second)
      return fail("time earlier than the tx's prior record");
    it->second = out->t_us[i];
    // Commit depths come from the swept depth table.
    if (out->stage[i] == static_cast<std::uint8_t>(TxStage::kCommitted) &&
        !std::binary_search(out->depths.begin(), out->depths.end(),
                            std::uint64_t{out->info[i]}))
      return fail("commit at a depth outside the table");
  }
  return true;
}

// ---------------------------------------------------------------------------
// TxProvRecorder

TxProvRecorder::TxProvRecorder(TxProvConfig config)
    : config_(std::move(config)),
      checker_("txprov", TxInvariantName, config_.fatal_invariants) {
  if (config_.confirmation_depths.empty())
    config_.confirmation_depths = {0};
  // The per-tx committed mask is a u32 bitfield, one bit per depth.
  if (config_.confirmation_depths.size() > 32)
    config_.confirmation_depths.resize(32);
  log_.depths = config_.confirmation_depths;
}

void TxProvRecorder::AttachMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  for (std::size_t i = 0; i < kTxStageCount; ++i) {
    const auto stage = static_cast<TxStage>(i);
    stage_count_[i] = metrics->GetCounter(
        LabeledName("txprov.record", {{"stage", TxStageName(stage)}}));
  }
  checker_.AttachMetrics(metrics);
}

void TxProvRecorder::RegisterHost(std::uint32_t host, std::uint8_t region) {
  SetHostRegion(log_.host_region, host, region);
}

void TxProvRecorder::MarkVantage(std::uint32_t host) {
  if (host >= vantage_.size()) vantage_.resize(host + 1, false);
  vantage_[host] = true;
}

void TxProvRecorder::MarkAnchor(std::uint32_t host) {
  anchor_host_ = host;
  has_anchor_ = true;
}

void TxProvRecorder::Append(TxStage stage, std::uint64_t tx, std::int64_t t_us,
                            std::uint32_t host, std::uint16_t info,
                            std::uint64_t aux, std::uint64_t number) {
  TxState& state = State(tx);
  if (t_us < state.last_t_us)
    checker_.Violate(TxInvariant::kNonMonotoneStage,
                     "tx %016" PRIx64 " stage %s at t=%" PRId64
                     "us is earlier than its prior record (t=%" PRId64 "us)",
                     tx, TxStageName(stage).data(), t_us, state.last_t_us);
  if (t_us > state.last_t_us) state.last_t_us = t_us;
  log_.t_us.push_back(t_us);
  log_.tx.push_back(tx);
  log_.host.push_back(host);
  log_.stage.push_back(static_cast<std::uint8_t>(stage));
  log_.info.push_back(info);
  log_.aux.push_back(aux);
  log_.number.push_back(number);
  if (Counter* c = stage_count_[static_cast<std::size_t>(stage)]) c->Add();
}

void TxProvRecorder::RecordSubmitted(const Hash32& hash, std::int64_t t_us,
                                     std::uint32_t frontend_host,
                                     std::uint16_t source,
                                     std::uint64_t gas_price,
                                     std::uint16_t replacement) {
  Append(TxStage::kSubmitted, hash.prefix_u64(), t_us, frontend_host, source,
         gas_price, replacement);
}

void TxProvRecorder::RecordFirstSeen(std::uint32_t host, const Hash32& hash,
                                     std::int64_t t_us) {
  if (host >= vantage_.size() || !vantage_[host]) return;
  Append(TxStage::kFirstSeen, hash.prefix_u64(), t_us, host, 0, 0, 0);
}

void TxProvRecorder::RecordPoolOutcome(std::uint32_t host, const Hash32& hash,
                                       std::int64_t t_us,
                                       TxPoolOutcome outcome,
                                       std::uint64_t gas_price) {
  TxStage stage;
  switch (outcome) {
    case TxPoolOutcome::kPending:
    case TxPoolOutcome::kQueued:
      stage = TxStage::kPoolAdmitted;
      break;
    case TxPoolOutcome::kReplaced:
      stage = TxStage::kPoolReplaced;
      break;
    default:
      stage = TxStage::kPoolRejected;
      break;
  }
  const std::uint64_t tx = hash.prefix_u64();
  if (stage != TxStage::kPoolRejected) State(tx).admitted = true;
  Append(stage, tx, t_us, host, static_cast<std::uint16_t>(outcome),
         gas_price, 0);
}

void TxProvRecorder::RecordSelected(std::uint32_t host, const Hash32& hash,
                                    std::int64_t t_us, std::uint16_t pool,
                                    const Hash32& block,
                                    std::uint64_t height) {
  Append(TxStage::kSelected, hash.prefix_u64(), t_us, host, pool,
         block.prefix_u64(), height);
}

void TxProvRecorder::RecordIncluded(std::uint32_t host, const Hash32& hash,
                                    std::int64_t t_us, const Hash32& block,
                                    std::uint64_t height) {
  if (!IsAnchor(host)) return;
  const std::uint64_t tx = hash.prefix_u64();
  TxState& state = State(tx);
  if (!state.admitted)
    checker_.Violate(TxInvariant::kIncludeWithoutAdmit,
                     "tx %016" PRIx64 " included without any pool admission",
                     tx);
  ++state.include_count;
  state.include_height = height;
  state.include_block = block.prefix_u64();
  Append(TxStage::kIncluded, tx, t_us, host, 0, state.include_block, height);
  for (std::uint32_t d = 0; d < config_.confirmation_depths.size(); ++d) {
    if ((state.committed_mask & (1u << d)) != 0) continue;
    commit_queue_[height + config_.confirmation_depths[d]].push_back(
        PendingCommit{tx, height, d});
  }
}

void TxProvRecorder::RecordOrphanReturned(std::uint32_t host,
                                          const Hash32& hash,
                                          std::int64_t t_us,
                                          const Hash32& block,
                                          std::uint64_t height) {
  if (!IsAnchor(host)) return;
  const std::uint64_t tx = hash.prefix_u64();
  TxState& state = State(tx);
  if (state.include_count == 0)
    checker_.Violate(TxInvariant::kOrphanReturnWithoutInclude,
                     "tx %016" PRIx64
                     " orphan-returned without a live inclusion",
                     tx);
  else
    --state.include_count;
  Append(TxStage::kOrphanReturned, tx, t_us, host, 0, block.prefix_u64(),
         height);
}

void TxProvRecorder::AdvanceHead(std::uint32_t host, std::uint64_t head_number,
                                 std::int64_t t_us) {
  if (!IsAnchor(host)) return;
  while (!commit_queue_.empty() &&
         commit_queue_.begin()->first <= head_number) {
    // The bucket must leave the queue before records are emitted: a strict
    // checker handler could re-enter in tests.
    std::vector<PendingCommit> bucket =
        std::move(commit_queue_.begin()->second);
    commit_queue_.erase(commit_queue_.begin());
    for (const PendingCommit& pending : bucket) {
      TxState& state = State(pending.tx);
      // Stale entry: the tx was reorged away (and possibly re-included at a
      // different height, which scheduled fresh entries).
      if (state.include_count == 0 ||
          state.include_height != pending.include_height)
        continue;
      const std::uint32_t bit = 1u << pending.depth_index;
      if ((state.committed_mask & bit) != 0) continue;
      if (state.include_count == 0)
        checker_.Violate(TxInvariant::kCommitBeforeInclude,
                         "tx %016" PRIx64 " committed while not included",
                         pending.tx);
      state.committed_mask |= bit;
      Append(TxStage::kCommitted, pending.tx, t_us, host,
             static_cast<std::uint16_t>(
                 config_.confirmation_depths[pending.depth_index]),
             state.include_block, state.include_height);
    }
  }
}

}  // namespace ethsim::obs
