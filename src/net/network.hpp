// Point-to-point message delivery over the geographic substrate. The Network
// owns per-host locations/bandwidths and computes stochastic one-way delays:
//   delay = base(from,to) * jitter + size / min(bw_up, bw_down) + overhead
// Delivery preserves FIFO order per (from,to) pair, matching a TCP stream
// (devp2p runs over TCP; reordering on one connection is impossible).
//
// Send returns what happened to each message: its FIFO-clamped arrival time,
// or why it was dropped. The sender records the gossip edge from that
// outcome, and the receiver resolves it at ingress (eth/node.cpp,
// obs/provenance_dag.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.hpp"
#include "common/time.hpp"
#include "net/geo.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"

namespace ethsim::net {

using HostId = std::uint32_t;

struct HostSpec {
  Region region = Region::WesternEurope;
  // Access link bandwidth in bits/second (paper's vantages: 8-10 Gbps;
  // typical peers far less).
  double bandwidth_bps = 100e6;
};

struct NetworkParams {
  // Multiplier on the baseline latency matrix. Calibrated so the four-vantage
  // block propagation delay distribution matches the paper's Fig 1
  // (median 74 ms): real overlay paths are last-mile + peering hops, not
  // backbone-optimal.
  double latency_scale = 1.7;
  // Lognormal jitter sigma applied multiplicatively to the base latency.
  // 0.8 reproduces the paper's heavy tail (p99/median ≈ 4x).
  double jitter_sigma = 0.8;
  // Fixed per-message processing overhead at the receiver.
  Duration per_message_overhead = Duration::Micros(300);
  // Rare slow-path events (TCP retransmission, bufferbloat, GC pause at the
  // peer): with this probability the sampled delay is stretched by a factor
  // uniform in [2, slow_path_factor_max]. Produces the heavy p99 tail of the
  // paper's Fig 1 (p99/median ≈ 4x).
  double slow_path_prob = 0.04;
  double slow_path_factor_max = 6.0;
  // Failure injection: probability that a message is silently lost (peer
  // disconnect mid-transfer, queue overflow). The gossip redundancy Table II
  // quantifies is exactly what tolerates this (Eugster et al., §III-A2).
  double drop_prob = 0.0;
};

// Why a message was lost. kRandomLoss is the baseline `drop_prob` model;
// the other reasons are produced by the fault layer (src/fault) and make the
// census answer "was this loss background noise or an injected fault?".
enum class DropReason : std::uint8_t {
  kRandomLoss = 0,  // baseline stochastic loss (drop_prob)
  kPartitioned,     // cross-side send during an active regional partition
  kDegraded,        // extra loss inside a link-degradation window
  kOffline,         // delivery attempted at a crashed/churned-out node
};
inline constexpr std::size_t kDropReasonCount = 4;
std::string_view DropReasonName(DropReason reason);

// One row of the drop census: who lost how many messages of which kind, and
// why (the `faulted` dimension of the always-on census).
struct DropRecord {
  obs::MsgKind kind = obs::MsgKind::kNewBlock;
  Region source_region = Region::WesternEurope;
  DropReason reason = DropReason::kRandomLoss;
  std::uint64_t count = 0;
};

// What Send did with one message.
struct SendOutcome {
  std::optional<DropReason> drop;  // set when the message was dropped
  TimePoint arrival;               // FIFO-clamped arrival when scheduled
};

// A latency/bandwidth degradation window applied by the fault layer to every
// link touching the scoped regions. Factors >= 1 stretch latency / shrink
// bandwidth; extra_drop_prob adds loss on top of the baseline drop_prob.
struct LinkDegradation {
  std::uint32_t region_mask = 0;  // bit i = Region(i) is affected
  double latency_factor = 1.0;
  double bandwidth_factor = 1.0;
  double extra_drop_prob = 0.0;
};

class Network {
 public:
  Network(sim::Simulator& simulator, Rng rng, NetworkParams params);

  HostId AddHost(HostSpec spec);
  const HostSpec& host(HostId id) const { return hosts_[id]; }
  std::size_t host_count() const { return hosts_.size(); }

  // Samples the one-way delay for `bytes` from -> to (without queueing).
  Duration SampleDelay(HostId from, HostId to, std::size_t bytes);

  // Schedules `deliver` to run at the receiver after the sampled delay,
  // enforcing per-(from,to) FIFO ordering, unless a drop gate fires. Returns
  // which of the two happened. `kind` labels the message for the
  // telemetry/drop census.
  SendOutcome Send(HostId from, HostId to, std::size_t bytes,
                   obs::MsgKind kind, sim::EventFn deliver);

  // Wires metrics counters and the in-flight tracer. Must be called before
  // traffic flows (counter registration touches the registry). Telemetry
  // records only — it never samples the RNG or schedules events, so an
  // attached run is bit-for-bit identical to a detached one.
  void AttachTelemetry(obs::Telemetry* telemetry);

  sim::Simulator& simulator() { return sim_; }

  // --- fault substrate (driven by fault::FaultController) ---------------
  // Regional partition: hosts whose region bit is set in `side_a_mask` form
  // one side; while active, cross-side sends are dropped deterministically
  // (reason kPartitioned) without consuming a single RNG draw, so arming a
  // partition cannot shift any other random stream. Intra-side traffic is
  // untouched.
  void SetPartition(std::uint32_t side_a_region_mask);
  void ClearPartition();
  bool partition_active() const { return partition_active_; }

  // Link degradation window (one active at a time; the fault layer validates
  // non-overlap). Latency/bandwidth factors apply inside SampleDelay; the
  // extra drop draw happens only while a window is active, so an inactive
  // window is bit-for-bit free.
  void SetDegradation(const LinkDegradation& degradation);
  void ClearDegradation();
  bool degradation_active() const { return degradation_active_; }

  // Attributes a delivery that found its target offline (crashed / churned
  // out). Called by EthNode ingress guards; kept here so the census stays the
  // single source of truth for every lost message.
  void NoteOfflineDrop(obs::MsgKind kind, Region target_region);

  // --- drop visibility -------------------------------------------------
  // The aggregate plus a per-(kind, source-region, reason) census. The
  // census is always on: drops are rare (off the hot path), and the paper's
  // whole redundancy argument (Table II) is about who can afford to lose
  // what.
  std::uint64_t messages_dropped() const { return dropped_; }
  std::uint64_t dropped_by(obs::MsgKind kind, Region region) const {
    std::uint64_t total = 0;
    for (std::size_t r = 0; r < kDropReasonCount; ++r)
      total += drop_census_[r][static_cast<std::size_t>(kind)]
                           [static_cast<std::size_t>(region)];
    return total;
  }
  std::uint64_t dropped_by(DropReason reason) const {
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < obs::kMsgKindCount; ++k)
      for (std::size_t g = 0; g < kRegionCount; ++g)
        total += drop_census_[static_cast<std::size_t>(reason)][k][g];
    return total;
  }
  // Non-zero census rows, ordered by (reason, kind, region) — for
  // end-of-run reports.
  std::vector<DropRecord> DropReport() const;
  // Human-readable census ("announcement/WE [partitioned]: 12, ..."), empty
  // when no drops.
  std::string RenderDropReport() const;

  // --- in-flight accounting (state-sampler probes) ----------------------
  // Messages scheduled but not yet delivered, and their wire bytes. Tracked
  // only while a sampler is attached: Send wraps the deliver callback with
  // the decrement. Detached runs schedule the callback unwrapped — zero
  // overhead and an unchanged event graph, so the probe's existence cannot
  // perturb an unsampled run.
  std::uint64_t inflight_messages() const { return inflight_msgs_; }
  std::uint64_t inflight_bytes() const { return inflight_bytes_; }

 private:
  // Shared cold-path accounting for every dropped message.
  void CountDrop(obs::MsgKind kind, Region region, DropReason reason);

  std::uint64_t dropped_ = 0;
  sim::Simulator& sim_;
  Rng rng_;
  NetworkParams params_;
  std::vector<HostSpec> hosts_;
  // Last scheduled delivery time per directed host pair, for FIFO clamping:
  // an insert-only open-addressed map keyed by (from << 32) | to and kept at
  // most half full, so it grows with the pairs that ever talked (32-64 B
  // each), not with hosts^2. Pairs are never erased: a block response can
  // target a requester that has since disconnected, and a pair that
  // reconnects must still queue behind a message in flight from its old
  // session. A slot holding kNeverSent is empty, so an absent pair reads as
  // "no traffic yet".
  static constexpr std::int64_t kNeverSent = INT64_MIN;
  struct FifoSlot {
    std::uint64_t key = 0;
    std::int64_t last_us = kNeverSent;
  };
  // The pair's slot, claimed on first use; the caller stores the arrival.
  std::int64_t& FifoLastUs(HostId from, HostId to);
  void GrowFifo();
  std::vector<FifoSlot> fifo_slots_;
  std::size_t fifo_pairs_ = 0;
  unsigned fifo_bits_ = 0;  // fifo_slots_.size() == 1 << fifo_bits_

  // Always-on drop census (cold path: only touched when a message drops),
  // indexed [reason][kind][source region].
  std::array<std::array<std::array<std::uint64_t, kRegionCount>,
                        obs::kMsgKindCount>,
             kDropReasonCount>
      drop_census_{};

  // In-flight accounting, live only while a sampler is attached (see
  // inflight_messages()).
  bool track_inflight_ = false;
  std::uint64_t inflight_msgs_ = 0;
  std::uint64_t inflight_bytes_ = 0;

  // Fault substrate state (inactive by default: the Send hot path pays one
  // predicted branch per gate).
  bool partition_active_ = false;
  std::uint32_t partition_mask_ = 0;
  bool degradation_active_ = false;
  LinkDegradation degradation_;

  // Telemetry (null = disabled; the Send hot path pays one predicted
  // branch). Instrument pointers are resolved once in AttachTelemetry.
  obs::Telemetry* telemetry_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::array<obs::Counter*, obs::kMsgKindCount> sent_count_{};
  std::array<obs::Counter*, obs::kMsgKindCount> sent_bytes_{};
  std::array<std::array<obs::Counter*, kRegionCount>, obs::kMsgKindCount>
      drop_count_{};
  std::array<obs::Counter*, kDropReasonCount> drop_reason_count_{};
  obs::Histogram* delay_hist_ = nullptr;
};

// NTP-like clock error. Each host gets a fixed offset sampled from the
// envelope the paper cites (§II): |offset| < 10 ms in 90% of cases and
// < 100 ms in 99% of cases.
class ClockModel {
 public:
  explicit ClockModel(Rng rng) : rng_(rng) {}

  // Samples a host's clock offset (signed).
  Duration SampleOffset();

 private:
  Rng rng_;
};

}  // namespace ethsim::net
