// Dissemination provenance: a deterministic, env-gated (ETHSIM_PROVENANCE)
// recorder that captures every gossip edge of a run — (sender, receiver,
// object, message kind, hop depth inherited from the sender's first-seen
// record, send/arrival sim-times, wire bytes, drop reason if the message was
// censored by loss/partition/outage) — into an in-memory columnar store and
// finally into a compact columnar artifact (provenance.bin) alongside
// manifest.json.
//
// This is the primitive Ethna/DEthna derive their propagation-mechanism and
// topology-inference analyses from: with it, every simulation run doubles as
// a queryable measurement dataset. The analysis layer
// (analysis/dissemination) reconstructs per-block dissemination trees,
// hop-depth CDFs, push-vs-announce first-delivery shares and byte-exact
// redundancy attribution from the log; tools/ethsim_inspect answers ad-hoc
// queries against the written artifact.
//
// Contract (same as the rest of src/obs): record-only. The recorder never
// draws from any Rng and never schedules events, so enabling it cannot
// change a run's results; with it disabled every hook costs one predicted
// branch on a null pointer.
//
// Recording (single-threaded inside one simulation world):
//   1. The sending EthNode calls Network::Send, which returns what happened
//      to the message: its FIFO-clamped arrival time, or why it was dropped.
//   2. The sender *records* the edge with that outcome in one call
//      (RecordBlockEdge / RecordTxEdge). Send never reads recorder state, so
//      records reach the log in send order: the row index is the send
//      sequence number.
//   3. The receiving EthNode *resolves* the delivery at ingress
//      (ResolveDelivery). Per-(from,to) FIFO delivery (a Network invariant)
//      makes the resolution a queue pop — no per-message lookup. A delivery
//      that finds the receiver crashed is re-attributed as an `offline` drop.
// Origins (a pool gateway injecting a freshly mined block) are recorded as
// self-edges with hop depth 0; every relayed copy inherits depth
// sender-first-seen + 1.
//
// A runtime invariant checker (obs/flight_recorder) rides the same stream and
// verifies, per event: no duplicate first-seen, no relay of a never-received
// block, no fetch without a prior announce (or orphan-parent knowledge), no
// delivery to a node the fault layer took down, and monotone (causal) hop
// depths. Each violation increments a `provenance.violation{check=...}`
// counter in the metrics registry and warns — or aborts when
// ETHSIM_PROVENANCE=strict.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"
#include "obs/flight_recorder.hpp"

namespace ethsim::obs {

// Edge kinds. kOrigin is the mint/injection pseudo-edge (from == to); the
// rest mirror the wire messages of the simplified eth/63 protocol.
enum class EdgeKind : std::uint8_t {
  kOrigin = 0,     // block injected by its miner at this host
  kNewBlock,       // unsolicited full-block push
  kAnnouncement,   // NewBlockHashes entry
  kGetBlock,       // block body fetch request (announce- or orphan-triggered)
  kBlockResponse,  // block body served in response to a GetBlock
  kTransactions,   // batched tx relay (object = 0, number = batch tx count)
};
inline constexpr std::size_t kEdgeKindCount = 6;
std::string_view EdgeKindName(EdgeKind kind);

// Why an edge never delivered. Mirrors net::DropReason (shifted by one so 0
// can mean "delivered"); kept separate so obs stays free of net includes.
enum class EdgeDrop : std::uint8_t {
  kNone = 0,     // delivered (or still in flight at cutoff; see end_us)
  kRandomLoss,   // baseline stochastic loss
  kPartitioned,  // cross-side send during an active regional partition
  kDegraded,     // extra loss inside a link-degradation window
  kOffline,      // delivery reached a crashed/churned-out node
};
inline constexpr std::size_t kEdgeDropCount = 5;
std::string_view EdgeDropName(EdgeDrop drop);

// One gossip edge, AoS form. The log stores the same fields as columns.
struct EdgeRecord {
  std::int64_t send_us = 0;
  std::int64_t arrival_us = -1;  // -1: censored inside the network
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint64_t object = 0;  // hash prefix (prefix_u64); 0 for tx batches
  std::uint64_t parent = 0;  // parent-hash prefix for block bodies, else 0
  std::uint64_t number = 0;  // block number, or tx count for kTransactions
  std::uint32_t bytes = 0;   // wire size
  std::uint16_t hop = 0;     // sender first-seen depth + 1 (origin: 0)
  EdgeKind kind = EdgeKind::kOrigin;
  EdgeDrop drop = EdgeDrop::kNone;
};

// The complete edge log of one run in columnar (struct-of-arrays) form,
// ordered by send time (ties by send order). This is both the in-memory
// store of the recorder and the deserialized form of the provenance.bin
// artifact.
struct ProvenanceLog {
  std::vector<std::int64_t> send_us;
  std::vector<std::int64_t> arrival_us;
  std::vector<std::uint32_t> from;
  std::vector<std::uint32_t> to;
  std::vector<std::uint64_t> object;
  std::vector<std::uint64_t> parent;
  std::vector<std::uint64_t> number;
  std::vector<std::uint32_t> bytes;
  std::vector<std::uint16_t> hop;
  std::vector<std::uint8_t> kind;
  std::vector<std::uint8_t> drop;

  // Host id -> region index (net::Region). Hosts register at attach time, so
  // the table covers every host that *could* appear in an edge.
  std::vector<std::uint8_t> host_region;

  // Run cutoff: an edge with arrival_us > end_us was still in flight when
  // the simulation stopped and must not count as delivered.
  std::int64_t end_us = INT64_MAX;

  std::size_t size() const { return send_us.size(); }
  bool empty() const { return send_us.empty(); }
  void Append(const EdgeRecord& record);

  bool delivered(std::size_t i) const {
    return drop[i] == 0 && arrival_us[i] >= 0 && arrival_us[i] <= end_us;
  }
  bool block_payload(std::size_t i) const {  // carries the full block body
    const auto k = static_cast<EdgeKind>(kind[i]);
    return k == EdgeKind::kNewBlock || k == EdgeKind::kBlockResponse ||
           k == EdgeKind::kOrigin;
  }

  // provenance.bin IO through the columnar container (obs/columns): one
  // column per field above plus the 1-row `end_us`. The reader also rejects
  // out-of-range kind/drop bytes, a dropped edge with an arrival other than
  // -1, any arrival below -1, and rows out of send order. Both return false
  // and fill `error` (when non-null) on failure.
  bool WriteBinary(const std::string& path, std::string* error = nullptr) const;
  static bool ReadBinary(const std::string& path, ProvenanceLog* out,
                         std::string* error = nullptr);
};

// The invariants checked at runtime on the edge stream.
enum class InvariantCheck : std::uint8_t {
  kDuplicateFirstSeen = 0,  // second origin record for the same (host, block)
  kRelayWithoutReceive,     // push/announce/serve of a never-seen block
  kFetchWithoutAnnounce,    // GetBlock with no prior announce or orphan parent
  kDeliveryWhileOffline,    // delivered edge at a host the fault layer downed
  kNonMonotoneHop,          // relay sent before the sender's copy arrived
};
inline constexpr std::size_t kInvariantCheckCount = 5;
std::string_view InvariantCheckName(InvariantCheck check);

// What the network did with one message, as Network::Send reported it: the
// FIFO-clamped arrival of a scheduled copy, or why it was dropped.
struct EdgeOutcome {
  std::int64_t arrival_us = -1;  // -1 when dropped
  EdgeDrop drop = EdgeDrop::kNone;
};

struct ProvenanceConfig {
  // Abort (after logging) on the first invariant violation.
  bool fatal_invariants = false;
};

class ProvenanceRecorder {
 public:
  using Checker = InvariantChecker<InvariantCheck, kInvariantCheckCount>;

  explicit ProvenanceRecorder(ProvenanceConfig config);
  ProvenanceRecorder(const ProvenanceRecorder&) = delete;
  ProvenanceRecorder& operator=(const ProvenanceRecorder&) = delete;

  // Wires provenance.edge{kind=...} + violation counters. Optional.
  void AttachMetrics(MetricsRegistry* metrics);

  // Declares a host and its region (net::Region index). Called from
  // EthNode::AttachTelemetry; hosts appearing in edges without registration
  // get kUnknownRegion in the artifact host table.
  void RegisterHost(std::uint32_t host, std::uint8_t region);

  // --- producer hooks (see the file comment) ------------------------------
  void RecordOrigin(std::uint32_t host, const Hash32& hash,
                    const Hash32& parent, std::uint64_t number,
                    std::int64_t now_us);
  // One edge each, recorded right after Network::Send returned `outcome`.
  // A block message inherits its hop depth from the sender's first-seen
  // record; `parent` is set for block bodies only.
  void RecordBlockEdge(std::uint32_t from, std::uint32_t to, EdgeKind kind,
                       const Hash32& hash, std::uint64_t number,
                       const Hash32* parent, std::size_t bytes,
                       std::int64_t send_us, EdgeOutcome outcome);
  void RecordTxEdge(std::uint32_t from, std::uint32_t to, std::size_t tx_count,
                    std::size_t bytes, std::int64_t send_us,
                    EdgeOutcome outcome);
  void ResolveDelivery(std::uint32_t from, std::uint32_t to, bool online);

  // Fault-layer attribution: FaultController marks hosts it took down so
  // the offline invariant can distinguish "correctly dropped at a crashed
  // node" from "delivered to a node everyone thinks is down".
  void NoteHostOnline(std::uint32_t host, bool online);

  // Run cutoff for the artifact (edges scheduled past it were in flight).
  void SetEndTime(std::int64_t end_us) { log_.end_us = end_us; }

  // The finished log, in send order; recording after Finish is a
  // programming error.
  const ProvenanceLog& Finish() const { return log_; }

  std::uint64_t edges_recorded() const { return log_.size(); }
  std::uint64_t violations() const { return checker_.total(); }
  Checker& checker() { return checker_; }
  const Checker& checker() const { return checker_; }

  // The depth at which `host` first saw `object` (its first-seen record);
  // false when the host never heard of it. Exposed for tests.
  bool FirstSeenDepth(std::uint32_t host, std::uint64_t object,
                      std::uint16_t* depth_out) const;

 private:
  struct FirstSeen {
    std::int64_t arrival_us = 0;
    std::uint16_t depth = 0;
  };
  struct ObjectState {
    // Per-host first-seen record: earliest (predicted) arrival of any
    // block-message edge for this object, and the hop depth it carried.
    std::unordered_map<std::uint32_t, FirstSeen> first_seen;
  };
  struct HostState {
    // Parent prefixes of block bodies this host received — the orphan
    // parent-fetch justification set.
    std::unordered_set<std::uint64_t> known_parents;
    bool marked_down = false;  // fault-layer view (NoteHostOnline)
  };

  HostState& Host(std::uint32_t host);
  const FirstSeen* FindFirstSeen(std::uint32_t host,
                                 std::uint64_t object) const;
  // Fills in the outcome and appends the edge; a scheduled copy also updates
  // the receiver's state and joins its pair's delivery FIFO.
  void Append(EdgeRecord edge, EdgeOutcome outcome);
  // Updates the receiver's first-seen record from a scheduled block-message
  // edge (min-arrival wins; deterministic, see .cpp).
  void NoteFirstSeen(std::uint32_t host, std::uint64_t object,
                     std::int64_t arrival_us, std::uint16_t depth);

  Checker checker_;
  ProvenanceLog log_;

  // Log rows of scheduled edges per directed (from,to) pair, popped FIFO at
  // ingress.
  std::unordered_map<std::uint64_t, std::deque<std::size_t>> pending_;

  std::unordered_map<std::uint64_t, ObjectState> objects_;
  std::vector<HostState> hosts_;

  std::array<Counter*, kEdgeKindCount> edge_count_{};
};

}  // namespace ethsim::obs
