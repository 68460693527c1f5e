// Transaction workload generator. Two modes, chosen by the plan:
//
//   * Legacy (empty WorkloadPlan, the default): the original Poisson
//     submission process with bursts and nonce inversions, executed with the
//     exact RNG draw order of the historical core::TxWorkload so every
//     pre-plan golden (datasets, head hash, determinism digest) stays
//     bit-for-bit identical.
//
//   * Plan mode (non-empty WorkloadPlan): each TrafficSource runs on its own
//     Fork(i) of the workload stream — open-loop Poisson/diurnal/flash-crowd
//     arrivals via thinning, Zipf sender selection, log-normal gas prices,
//     deadline-driven replace-by-fee escalation, and closed-loop clients that
//     poll a frontend's canonical chain and only submit after their previous
//     tx is commit_depth blocks deep.
//
// The generator only ever *reads* chain state (a frontend's BlockTree) and
// *submits* transactions; it never mutates nodes directly, so determinism
// reduces to the per-source RNG streams plus the simulator's (time, seq)
// event order.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "chain/transaction.hpp"
#include "common/random.hpp"
#include "common/time.hpp"
#include "eth/node.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"
#include "workload/plan.hpp"

namespace ethsim::workload {

inline constexpr std::uint8_t kNoRegion = 0xff;

struct SubmittedTx {
  Hash32 hash;
  Address sender;
  std::uint64_t nonce = 0;
  TimePoint submitted_at;
  bool part_of_burst = false;
  // Plan-mode provenance (legacy mode: source 0, replacement 0).
  std::uint16_t source = 0;       // index into plan().sources
  std::uint16_t replacement = 0;  // k-th replace-by-fee escalation (0 = first)
  std::uint8_t region = kNoRegion;  // frontend region the tx entered through
  bool closed_loop = false;
  std::uint64_t gas_price = 0;
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(sim::Simulator& simulator, Rng rng,
                    TxWorkloadParams legacy_params, WorkloadPlan plan,
                    std::vector<eth::EthNode*> frontends);

  // Registers per-source counters; call before Start. Null telemetry (or a
  // telemetry without metrics) is a no-op.
  void AttachTelemetry(obs::Telemetry* telemetry);

  void Start();

  const std::vector<SubmittedTx>& submitted() const { return submitted_; }
  std::uint64_t total_submitted() const { return submitted_.size(); }
  const WorkloadPlan& plan() const { return plan_; }

  // Read-only accessors for sampler probes and the run manifest.
  std::uint64_t closed_loop_in_flight() const { return closed_loop_in_flight_; }
  std::uint64_t closed_loop_completed() const { return closed_loop_completed_; }
  std::uint64_t replacements_issued() const { return replacements_issued_; }
  std::uint64_t tracked_in_flight() const { return tracked_in_flight_; }
  std::uint64_t source_submitted(std::size_t source) const {
    return source_submitted_.empty() ? 0 : source_submitted_[source];
  }
  std::uint64_t source_included(std::size_t source) const {
    return source_included_.empty() ? 0 : source_included_[source];
  }

 private:
  // --- Legacy mode (bit-for-bit the historical core::TxWorkload) ---------
  void LegacyScheduleNext();
  void LegacySubmitOne();
  chain::Transaction LegacyBuildTx(std::size_t account);

  // --- Plan mode ---------------------------------------------------------
  struct PendingTrack {  // one un-included tx a source still watches
    std::uint64_t nonce = 0;
    Hash32 hash;
    std::uint64_t gas_price = 0;
    TimePoint submitted_at;
    std::uint16_t replacement = 0;
    std::uint32_t frontend = 0;
    std::int32_t client = -1;  // closed-loop client index, -1 for open loop
    std::uint64_t account = 0;  // global account index (for rebuilds)
  };
  struct ClientState {
    std::uint64_t account = 0;  // global account index
    bool in_flight = false;
  };
  struct SourceState {
    explicit SourceState(Rng r) : rng(r) {}
    Rng rng;
    std::vector<std::uint32_t> frontends;  // indices into frontends_
    std::vector<double> zipf_cdf;          // empty = uniform
    std::vector<ClientState> clients;
    // Un-included txs this source tracks (closed-loop always; open-loop only
    // when the fee model has a replacement deadline), keyed by sender.
    std::unordered_map<Address, std::vector<PendingTrack>> tracked;
    std::uint64_t last_scanned = 0;  // canonical height already scanned
    bool polling = false;
  };

  void StartSource(std::size_t source);
  void ScheduleArrival(std::size_t source);
  // Peak rate the thinning loop draws against (>= rate at any instant).
  double PeakRate(const TrafficSource& src) const;
  double RateAt(const TrafficSource& src, TimePoint now) const;
  std::uint64_t PickAccount(std::size_t source);
  std::uint32_t PickFrontend(std::size_t source);
  std::uint64_t DrawGasPrice(std::size_t source);
  chain::Transaction PlanBuildTx(std::size_t source, std::uint64_t account,
                                 std::uint64_t nonce, std::uint64_t gas_price);
  // Submits one tx from `source` (client < 0: open loop). Returns the track
  // entry when the source watches inclusions, else null.
  void SubmitFromSource(std::size_t source, std::int32_t client);
  void ScheduleReplacement(std::size_t source, Address sender,
                           std::uint64_t nonce);
  void SchedulePoll(std::size_t source);
  void PollInclusions(std::size_t source);
  void ResolveInclusion(std::size_t source, const chain::Transaction& tx);
  void ScheduleClientSubmit(std::size_t source, std::size_t client);

  bool NeedsTracking(const TrafficSource& src) const {
    return src.kind == SourceKind::kClosedLoop ||
           src.fee.replacement_deadline.micros() > 0;
  }

  void Record(const chain::Transaction& tx, TimePoint at, std::size_t source,
              std::uint16_t replacement, std::uint32_t frontend,
              bool closed_loop, bool burst);

  sim::Simulator& sim_;
  Rng rng_;
  TxWorkloadParams params_;
  WorkloadPlan plan_;
  std::vector<eth::EthNode*> frontends_;
  std::uint64_t base_height_ = 0;  // genesis number (no txs at or below)

  // Legacy mode state.
  std::vector<std::uint64_t> next_nonce_;
  std::vector<Address> account_addr_;
  bool warned_single_frontend_ = false;

  // Plan mode state.
  std::vector<SourceState> sources_;
  std::unordered_map<std::uint64_t, std::uint64_t> plan_next_nonce_;
  std::unordered_map<std::uint64_t, Address> plan_addr_;
  std::unordered_map<Address, std::uint64_t> addr_index_;

  std::vector<SubmittedTx> submitted_;
  std::vector<std::uint64_t> source_submitted_;
  std::vector<std::uint64_t> source_included_;
  std::uint64_t closed_loop_in_flight_ = 0;
  std::uint64_t closed_loop_completed_ = 0;
  std::uint64_t replacements_issued_ = 0;
  std::uint64_t tracked_in_flight_ = 0;

  // Telemetry instruments (null = disabled; one predicted branch).
  // Tx-lifecycle recorder: Record() stamps the kSubmitted stage (every
  // submission path funnels through it).
  obs::TxProvRecorder* txprov_ = nullptr;
  obs::Counter* submitted_counter_ = nullptr;
  obs::Counter* replaced_counter_ = nullptr;
  std::vector<obs::Counter*> source_counters_;
  std::vector<obs::Counter*> source_included_counters_;
};

}  // namespace ethsim::workload
