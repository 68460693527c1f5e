// Unit tests for the provenance recorder: send-time recording with the
// network's outcome, per-(from,to) FIFO resolution at ingress, hop-depth
// inheritance, global send order across interleaved senders, late offline
// re-attribution, the binary artifact round-trip, and every invariant check
// (driven through set_handler, plus one death test of the strict abort).
#include "obs/provenance_dag.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace ethsim::obs {
namespace {

Hash32 H(std::uint8_t tag) {
  Hash32 h;
  h.bytes[0] = tag;  // prefix_u64 == tag << 56
  return h;
}

std::uint64_t Prefix(std::uint8_t tag) { return H(tag).prefix_u64(); }

// Network::Send outcomes as the recorder sees them.
EdgeOutcome Arrives(std::int64_t arrival_us) {
  return {arrival_us, EdgeDrop::kNone};
}
EdgeOutcome Dropped(EdgeDrop reason) { return {-1, reason}; }

// A recorder with hosts 0..n-1 registered and a non-aborting checker whose
// violations are collected into `violations`.
struct Harness {
  explicit Harness(std::size_t hosts) {
    recorder = std::make_unique<ProvenanceRecorder>(ProvenanceConfig{});
    recorder->checker().set_handler(
        [this](InvariantCheck check, const std::string& detail) {
          violations.emplace_back(check, detail);
        });
    for (std::size_t i = 0; i < hosts; ++i)
      recorder->RegisterHost(static_cast<std::uint32_t>(i),
                             static_cast<std::uint8_t>(i % 7));
  }

  // Record + resolve one delivered block-message edge.
  void Relay(std::uint32_t from, std::uint32_t to, EdgeKind kind,
             std::uint8_t tag, std::int64_t send_us, std::int64_t arrival_us,
             std::uint64_t number = 1) {
    recorder->RecordBlockEdge(from, to, kind, H(tag), number, nullptr, 600,
                              send_us, Arrives(arrival_us));
    recorder->ResolveDelivery(from, to, /*online=*/true);
  }

  std::unique_ptr<ProvenanceRecorder> recorder;
  std::vector<std::pair<InvariantCheck, std::string>> violations;
};

TEST(ProvenanceRecorder, OriginThenRelayInheritsHopDepths) {
  Harness h{3};
  h.recorder->RecordOrigin(0, H(1), H(9), 100, 1000);
  std::uint16_t depth = 99;
  ASSERT_TRUE(h.recorder->FirstSeenDepth(0, Prefix(1), &depth));
  EXPECT_EQ(depth, 0);

  // 0 -> 1 push: edge hop 1, receiver first-seen depth 1 (at schedule time).
  h.Relay(0, 1, EdgeKind::kNewBlock, 1, 1100, 2000);
  ASSERT_TRUE(h.recorder->FirstSeenDepth(1, Prefix(1), &depth));
  EXPECT_EQ(depth, 1);

  // 1 -> 2 relay after its copy arrived: hop 2.
  h.Relay(1, 2, EdgeKind::kNewBlock, 1, 2100, 3000);
  ASSERT_TRUE(h.recorder->FirstSeenDepth(2, Prefix(1), &depth));
  EXPECT_EQ(depth, 2);

  const ProvenanceLog& log = h.recorder->Finish();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.hop[0], 0);  // origin
  EXPECT_EQ(log.hop[1], 1);
  EXPECT_EQ(log.hop[2], 2);
  EXPECT_TRUE(h.violations.empty());
}

TEST(ProvenanceRecorder, FirstSeenKeepsEarliestArrival) {
  Harness h{3};
  h.recorder->RecordOrigin(0, H(1), H(9), 100, 0);
  // Same block minted at a second host (a one-miner fork replay): a distinct
  // (host, block) pair, so no duplicate-first-seen violation.
  h.recorder->RecordOrigin(2, H(1), H(9), 100, 0);

  // Two copies race to host 1; the slower-scheduled one arrives first.
  h.Relay(0, 1, EdgeKind::kNewBlock, 1, 10, 5000);
  std::uint16_t depth = 0;
  ASSERT_TRUE(h.recorder->FirstSeenDepth(1, Prefix(1), &depth));
  EXPECT_EQ(depth, 1);
  // An announcement from host 2 arriving earlier takes over the record.
  h.Relay(2, 1, EdgeKind::kAnnouncement, 1, 20, 3000);
  ASSERT_TRUE(h.recorder->FirstSeenDepth(1, Prefix(1), &depth));
  EXPECT_EQ(depth, 1);  // still depth 1, but from the earlier edge
  // A *tie* must not displace the admitted record (strictly-less update).
  h.Relay(0, 1, EdgeKind::kAnnouncement, 1, 30, 3000);
  ASSERT_TRUE(h.recorder->FirstSeenDepth(1, Prefix(1), &depth));
  EXPECT_EQ(depth, 1);
}

TEST(ProvenanceRecorder, PerPairFifoResolvesInOrderAcrossKinds) {
  Harness h{2};
  h.recorder->RecordOrigin(0, H(1), H(9), 100, 0);
  // Interleave a tx batch between two block messages on the same pair; the
  // resolution pops must track schedule order, not kind.
  h.recorder->RecordBlockEdge(0, 1, EdgeKind::kAnnouncement, H(1), 100,
                              nullptr, 40, 10, Arrives(100));
  h.recorder->RecordTxEdge(0, 1, 3, 300, 20, Arrives(110));
  h.recorder->RecordBlockEdge(0, 1, EdgeKind::kNewBlock, H(1), 100, nullptr,
                              600, 30, Arrives(120));
  h.recorder->ResolveDelivery(0, 1, true);
  h.recorder->ResolveDelivery(0, 1, true);
  h.recorder->ResolveDelivery(0, 1, true);
  EXPECT_TRUE(h.violations.empty());
  const ProvenanceLog& log = h.recorder->Finish();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(static_cast<EdgeKind>(log.kind[1]), EdgeKind::kAnnouncement);
  EXPECT_EQ(static_cast<EdgeKind>(log.kind[2]), EdgeKind::kTransactions);
  EXPECT_EQ(log.number[2], 3u);  // tx count rides in `number`
  EXPECT_EQ(static_cast<EdgeKind>(log.kind[3]), EdgeKind::kNewBlock);
}

TEST(ProvenanceRecorder, DroppedEdgeNeverEntersFifoOrFirstSeen) {
  Harness h{2};
  h.recorder->RecordOrigin(0, H(1), H(9), 100, 0);
  h.recorder->RecordBlockEdge(0, 1, EdgeKind::kNewBlock, H(1), 100, nullptr,
                              600, 10, Dropped(EdgeDrop::kRandomLoss));
  std::uint16_t depth = 0;
  EXPECT_FALSE(h.recorder->FirstSeenDepth(1, Prefix(1), &depth));
  const ProvenanceLog& log = h.recorder->Finish();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(static_cast<EdgeDrop>(log.drop[1]), EdgeDrop::kRandomLoss);
  EXPECT_EQ(log.arrival_us[1], -1);
  EXPECT_FALSE(log.delivered(1));
}

TEST(ProvenanceRecorder, OfflineIngressIsReattributedAtFinish) {
  Harness h{2};
  h.recorder->RecordOrigin(0, H(1), H(9), 100, 0);
  h.recorder->RecordBlockEdge(0, 1, EdgeKind::kNewBlock, H(1), 100, nullptr,
                              600, 10, Arrives(100));
  // Receiver crashed while the copy was in flight.
  h.recorder->ResolveDelivery(0, 1, /*online=*/false);
  const ProvenanceLog& log = h.recorder->Finish();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(static_cast<EdgeDrop>(log.drop[1]), EdgeDrop::kOffline);
  EXPECT_FALSE(log.delivered(1));
  EXPECT_TRUE(h.violations.empty());  // crashed receiver: correct drop
}

TEST(ProvenanceRecorder, InterleavedSendersAppendInSendOrder) {
  Harness h{4};
  h.recorder->RecordOrigin(0, H(1), H(9), 100, 0);
  // Senders interleave: rows must follow the global send order.
  h.Relay(0, 1, EdgeKind::kNewBlock, 1, 10, 1000);
  h.Relay(0, 2, EdgeKind::kAnnouncement, 1, 20, 1500);
  h.Relay(1, 3, EdgeKind::kNewBlock, 1, 1100, 2100);
  h.Relay(2, 3, EdgeKind::kAnnouncement, 1, 1600, 2600);
  h.Relay(1, 2, EdgeKind::kNewBlock, 1, 1700, 2700);
  const ProvenanceLog& log = h.recorder->Finish();
  ASSERT_EQ(log.size(), 6u);
  for (std::size_t i = 1; i < log.size(); ++i)
    EXPECT_LE(log.send_us[i - 1], log.send_us[i]) << i;
  EXPECT_EQ(h.recorder->edges_recorded(), 6u);
}

TEST(ProvenanceRecorder, EndTimeExcludesInFlightEdges) {
  Harness h{2};
  h.recorder->RecordOrigin(0, H(1), H(9), 100, 0);
  h.Relay(0, 1, EdgeKind::kNewBlock, 1, 10, 1000);
  h.recorder->RecordBlockEdge(0, 1, EdgeKind::kAnnouncement, H(1), 100,
                              nullptr, 40, 20,
                              Arrives(9000));  // past cutoff, never resolved
  h.recorder->SetEndTime(5000);
  const ProvenanceLog& log = h.recorder->Finish();
  EXPECT_EQ(log.end_us, 5000);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_TRUE(log.delivered(1));
  EXPECT_FALSE(log.delivered(2));  // in flight at cutoff
}

TEST(ProvenanceRecorder, BinaryArtifactRoundTripsBitExact) {
  Harness h{3};
  h.recorder->RecordOrigin(0, H(1), H(9), 100, 0);
  h.Relay(0, 1, EdgeKind::kNewBlock, 1, 10, 1000);
  h.Relay(0, 2, EdgeKind::kAnnouncement, 1, 20, 1100);
  h.recorder->RecordBlockEdge(2, 0, EdgeKind::kGetBlock, H(1), 100, nullptr, 48,
                              1200, Dropped(EdgeDrop::kPartitioned));
  h.recorder->SetEndTime(60'000'000);

  const std::string path =
      (std::filesystem::temp_directory_path() / "ethsim_prov_rt.bin").string();
  const ProvenanceLog& log = h.recorder->Finish();
  std::string error;
  ASSERT_TRUE(log.WriteBinary(path, &error)) << error;

  ProvenanceLog loaded;
  ASSERT_TRUE(ProvenanceLog::ReadBinary(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), log.size());
  EXPECT_EQ(loaded.end_us, log.end_us);
  EXPECT_EQ(loaded.host_region, log.host_region);
  EXPECT_EQ(loaded.send_us, log.send_us);
  EXPECT_EQ(loaded.arrival_us, log.arrival_us);
  EXPECT_EQ(loaded.from, log.from);
  EXPECT_EQ(loaded.to, log.to);
  EXPECT_EQ(loaded.object, log.object);
  EXPECT_EQ(loaded.parent, log.parent);
  EXPECT_EQ(loaded.number, log.number);
  EXPECT_EQ(loaded.bytes, log.bytes);
  EXPECT_EQ(loaded.hop, log.hop);
  EXPECT_EQ(loaded.kind, log.kind);
  EXPECT_EQ(loaded.drop, log.drop);
  std::filesystem::remove(path);
}

TEST(ProvenanceLog, ReadBinaryRejectsGarbage) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ethsim_prov_bad.bin").string();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTPROV0", f);
  std::fclose(f);
  ProvenanceLog log;
  std::string error;
  EXPECT_FALSE(ProvenanceLog::ReadBinary(path, &log, &error));
  EXPECT_FALSE(error.empty());
  std::filesystem::remove(path);
}

// ----- invariant checks ------------------------------------------------------

TEST(ProvenanceInvariants, DuplicateOriginFlagged) {
  Harness h{2};
  h.recorder->RecordOrigin(0, H(1), H(9), 100, 0);
  h.recorder->RecordOrigin(0, H(1), H(9), 100, 10);  // same (host, block)
  ASSERT_EQ(h.violations.size(), 1u);
  EXPECT_EQ(h.violations[0].first, InvariantCheck::kDuplicateFirstSeen);
  EXPECT_EQ(h.recorder->violations(), 1u);
}

TEST(ProvenanceInvariants, RelayWithoutReceiveFlagged) {
  Harness h{2};
  // Host 0 pushes a block it never minted nor received.
  h.Relay(0, 1, EdgeKind::kNewBlock, 7, 10, 1000);
  ASSERT_EQ(h.violations.size(), 1u);
  EXPECT_EQ(h.violations[0].first, InvariantCheck::kRelayWithoutReceive);
}

TEST(ProvenanceInvariants, FetchWithoutAnnounceFlagged) {
  Harness h{2};
  h.recorder->RecordBlockEdge(0, 1, EdgeKind::kGetBlock, H(7), 100, nullptr, 48,
                              10, Arrives(100));
  h.recorder->ResolveDelivery(0, 1, true);
  ASSERT_EQ(h.violations.size(), 1u);
  EXPECT_EQ(h.violations[0].first, InvariantCheck::kFetchWithoutAnnounce);
}

TEST(ProvenanceInvariants, OrphanParentFetchIsLegitimate) {
  Harness h{3};
  h.recorder->RecordOrigin(0, H(2), H(1), 101, 0);  // block 2's parent is 1
  // Host 1 receives block 2's full body -> learns parent prefix H(1).
  Hash32 parent = H(1);
  h.recorder->RecordBlockEdge(0, 1, EdgeKind::kNewBlock, H(2), 101, &parent,
                              600, 10, Arrives(100));
  h.recorder->ResolveDelivery(0, 1, true);
  // Host 1 fetches the never-announced parent: orphan path, no violation.
  h.recorder->RecordBlockEdge(1, 0, EdgeKind::kGetBlock, H(1), 100, nullptr, 48,
                              200, Arrives(300));
  h.recorder->ResolveDelivery(1, 0, true);
  EXPECT_TRUE(h.violations.empty());
}

TEST(ProvenanceInvariants, NonMonotoneHopFlagged) {
  Harness h{3};
  h.recorder->RecordOrigin(0, H(1), H(9), 100, 0);
  // Copy scheduled to arrive at host 1 at t=5000 ...
  h.Relay(0, 1, EdgeKind::kNewBlock, 1, 10, 5000);
  // ... but host 1 "relays" at t=1000, before its copy arrived.
  h.Relay(1, 2, EdgeKind::kNewBlock, 1, 1000, 6000);
  ASSERT_EQ(h.violations.size(), 1u);
  EXPECT_EQ(h.violations[0].first, InvariantCheck::kNonMonotoneHop);
}

TEST(ProvenanceInvariants, DeliveryWhileMarkedDownFlagged) {
  Harness h{2};
  h.recorder->RecordOrigin(0, H(1), H(9), 100, 0);
  h.recorder->NoteHostOnline(1, false);  // fault layer downed host 1
  h.recorder->RecordBlockEdge(0, 1, EdgeKind::kNewBlock, H(1), 100, nullptr,
                              600, 10, Arrives(100));
  // The node nonetheless processes the delivery (online=true): inconsistency
  // between the fault layer's view and the node's.
  h.recorder->ResolveDelivery(0, 1, /*online=*/true);
  ASSERT_EQ(h.violations.size(), 1u);
  EXPECT_EQ(h.violations[0].first, InvariantCheck::kDeliveryWhileOffline);
  // After rejoin, deliveries are clean again.
  h.recorder->NoteHostOnline(1, true);
  h.Relay(0, 1, EdgeKind::kAnnouncement, 1, 200, 300);
  EXPECT_EQ(h.violations.size(), 1u);
}

TEST(ProvenanceInvariants, StrictModeLogsAndAborts) {
  ProvenanceRecorder recorder{ProvenanceConfig{/*fatal_invariants=*/true}};
  recorder.RecordOrigin(0, H(1), H(9), 100, 0);
  EXPECT_DEATH(recorder.RecordOrigin(0, H(1), H(9), 100, 10),
               "\\[ethsim:provenance\\] error: aborting on invariant "
               "violation \\(duplicate_first_seen\\)");
}

TEST(ProvenanceInvariants, CountersFeedMetricsRegistry) {
  MetricsRegistry metrics;
  ProvenanceRecorder recorder{ProvenanceConfig{}};
  recorder.AttachMetrics(&metrics);
  recorder.checker().set_handler([](InvariantCheck, const std::string&) {});
  recorder.RegisterHost(0, 0);
  recorder.RegisterHost(1, 0);
  recorder.RecordOrigin(0, H(1), H(9), 100, 0);
  recorder.RecordOrigin(0, H(1), H(9), 100, 10);  // duplicate
  Counter* violation = metrics.GetCounter(
      LabeledName("provenance.violation", {{"check", "duplicate_first_seen"}}));
  ASSERT_NE(violation, nullptr);
  EXPECT_EQ(violation->value(), 1u);
  Counter* edges = metrics.GetCounter(
      LabeledName("provenance.edge", {{"kind", "origin"}}));
  ASSERT_NE(edges, nullptr);
  EXPECT_EQ(edges->value(), 2u);
}

}  // namespace
}  // namespace ethsim::obs
