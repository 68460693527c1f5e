// Unit tests for the transaction-lifecycle flight recorder: stage record
// plumbing, pool-outcome mapping, vantage/anchor role filtering, the
// depth-sweep commit queue (sticky committed mask across reorgs), every
// invariant check (driven through set_handler, plus one death test of the
// strict abort), and the txprov.bin artifact round-trip.
#include "obs/tx_provenance.hpp"

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

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("ethsim_txprov_test_") + name))
      .string();
}

// A recorder with hosts 0..n-1 registered (region = host % 7), host 1 marked
// vantage, host 0 marked anchor, and a non-aborting checker whose violations
// are collected into `violations`.
struct Harness {
  explicit Harness(std::size_t hosts,
                   std::vector<std::uint64_t> depths = {0, 2}) {
    TxProvConfig cfg;
    cfg.confirmation_depths = std::move(depths);
    recorder = std::make_unique<TxProvRecorder>(cfg);
    recorder->checker().set_handler(
        [this](TxInvariant check, const std::string& detail) {
          violations.emplace_back(check, detail);
        });
    for (std::size_t i = 0; i < hosts; ++i)
      recorder->RegisterHost(static_cast<std::uint32_t>(i),
                             static_cast<std::uint8_t>(i % 7));
    if (hosts > 1) recorder->MarkVantage(1);
    recorder->MarkAnchor(0);
  }

  // Submit + admit + select + include one tx in one call; the commit sweep
  // stays with the caller.
  void Lifecycle(std::uint8_t tag, std::int64_t base_us, std::uint8_t block,
                 std::uint64_t height) {
    recorder->RecordSubmitted(H(tag), base_us, /*frontend_host=*/2,
                              /*source=*/0, /*gas_price=*/50, 0);
    recorder->RecordPoolOutcome(2, H(tag), base_us + 10,
                                TxPoolOutcome::kPending, 50);
    recorder->RecordSelected(0, H(tag), base_us + 100, /*pool=*/3, H(block),
                             height);
    recorder->RecordIncluded(0, H(tag), base_us + 200, H(block), height);
  }

  std::unique_ptr<TxProvRecorder> recorder;
  std::vector<std::pair<TxInvariant, std::string>> violations;
};

// Counts records in `log` with the given stage for the given tx prefix.
std::size_t CountStage(const TxProvLog& log, TxStage stage,
                       std::uint64_t tx) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < log.size(); ++i)
    if (log.stage[i] == static_cast<std::uint8_t>(stage) && log.tx[i] == tx)
      ++n;
  return n;
}

TEST(TxProvRecorder, FullLifecycleCommitsEveryDepthOnce) {
  Harness h{3};
  h.Lifecycle(1, 1000, /*block=*/9, /*height=*/5);
  h.recorder->AdvanceHead(0, 5, 2000);  // depth 0 matures
  h.recorder->AdvanceHead(0, 6, 3000);  // depth 2 not yet
  h.recorder->AdvanceHead(0, 7, 4000);  // depth 2 matures
  h.recorder->AdvanceHead(0, 50, 5000);  // must not re-commit any depth

  const TxProvLog& log = h.recorder->Finish();
  EXPECT_TRUE(h.violations.empty());
  EXPECT_EQ(CountStage(log, TxStage::kSubmitted, Prefix(1)), 1u);
  EXPECT_EQ(CountStage(log, TxStage::kPoolAdmitted, Prefix(1)), 1u);
  EXPECT_EQ(CountStage(log, TxStage::kSelected, Prefix(1)), 1u);
  EXPECT_EQ(CountStage(log, TxStage::kIncluded, Prefix(1)), 1u);
  EXPECT_EQ(CountStage(log, TxStage::kCommitted, Prefix(1)), 2u);

  // Commit records carry depth in info, the including block prefix in aux,
  // and the include height in number.
  std::vector<std::uint16_t> depths;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log.stage[i] != static_cast<std::uint8_t>(TxStage::kCommitted))
      continue;
    depths.push_back(log.info[i]);
    EXPECT_EQ(log.aux[i], Prefix(9));
    EXPECT_EQ(log.number[i], 5u);
  }
  EXPECT_EQ(depths, (std::vector<std::uint16_t>{0, 2}));
}

TEST(TxProvRecorder, PoolOutcomeMappingAndAdmittedFlag) {
  Harness h{3};
  const std::int64_t t = 100;
  h.recorder->RecordPoolOutcome(2, H(1), t, TxPoolOutcome::kPending, 10);
  h.recorder->RecordPoolOutcome(2, H(2), t, TxPoolOutcome::kQueued, 10);
  h.recorder->RecordPoolOutcome(2, H(3), t, TxPoolOutcome::kReplaced, 10);
  h.recorder->RecordPoolOutcome(2, H(4), t, TxPoolOutcome::kKnown, 10);
  h.recorder->RecordPoolOutcome(2, H(5), t, TxPoolOutcome::kStale, 10);
  h.recorder->RecordPoolOutcome(2, H(6), t, TxPoolOutcome::kRejected, 10);

  // Replacement admission counts as admitted: including H(3) is clean, while
  // including the rejected H(6) trips include_without_admit.
  h.recorder->RecordIncluded(0, H(3), 200, H(9), 1);
  EXPECT_TRUE(h.violations.empty());
  h.recorder->RecordIncluded(0, H(6), 300, H(9), 1);
  ASSERT_EQ(h.violations.size(), 1u);
  EXPECT_EQ(h.violations[0].first, TxInvariant::kIncludeWithoutAdmit);

  const TxProvLog& log = h.recorder->Finish();
  EXPECT_EQ(CountStage(log, TxStage::kPoolAdmitted, Prefix(1)), 1u);
  EXPECT_EQ(CountStage(log, TxStage::kPoolAdmitted, Prefix(2)), 1u);
  EXPECT_EQ(CountStage(log, TxStage::kPoolReplaced, Prefix(3)), 1u);
  EXPECT_EQ(CountStage(log, TxStage::kPoolRejected, Prefix(4)), 1u);
  EXPECT_EQ(CountStage(log, TxStage::kPoolRejected, Prefix(5)), 1u);
  EXPECT_EQ(CountStage(log, TxStage::kPoolRejected, Prefix(6)), 1u);
  // The outcome itself rides in info even when stages coincide.
  const std::uint16_t expected_info[] = {
      static_cast<std::uint16_t>(TxPoolOutcome::kPending),
      static_cast<std::uint16_t>(TxPoolOutcome::kQueued),
      static_cast<std::uint16_t>(TxPoolOutcome::kReplaced),
      static_cast<std::uint16_t>(TxPoolOutcome::kKnown),
      static_cast<std::uint16_t>(TxPoolOutcome::kStale),
      static_cast<std::uint16_t>(TxPoolOutcome::kRejected)};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(log.tx[i], Prefix(static_cast<std::uint8_t>(i + 1)));
    EXPECT_EQ(log.info[i], expected_info[i]);
  }
}

TEST(TxProvRecorder, ReorgStickyCommitMaskAndFreshSchedule) {
  MetricsRegistry metrics;
  Harness h{3};
  h.recorder->AttachMetrics(&metrics);
  Counter* committed = metrics.GetCounter(
      LabeledName("txprov.record", {{"stage", "committed"}}));
  h.Lifecycle(1, 1000, /*block=*/9, /*height=*/5);
  h.recorder->AdvanceHead(0, 5, 2000);  // commit depth 0 at height 5
  EXPECT_EQ(committed->value(), 1);

  // Reorg: block 9 retired, tx re-included via block 8 at height 6.
  h.recorder->RecordOrphanReturned(0, H(1), 2500, H(9), 5);
  h.recorder->RecordIncluded(0, H(1), 2600, H(8), 6);
  // The old depth-2 entry (key 7, include height 5) is now stale; the fresh
  // schedule is depth 2 at key 8. Depth 0 (key 6) must NOT re-commit.
  h.recorder->AdvanceHead(0, 7, 3000);
  EXPECT_EQ(committed->value(), 1);
  h.recorder->AdvanceHead(0, 8, 4000);
  EXPECT_EQ(committed->value(), 2);
  EXPECT_TRUE(h.violations.empty());

  const TxProvLog& log = h.recorder->Finish();
  EXPECT_EQ(CountStage(log, TxStage::kCommitted, Prefix(1)), 2u);
  // The depth-2 commit is anchored to the re-inclusion.
  const std::size_t last = log.size() - 1;
  EXPECT_EQ(log.stage[last], static_cast<std::uint8_t>(TxStage::kCommitted));
  EXPECT_EQ(log.info[last], 2u);
  EXPECT_EQ(log.aux[last], Prefix(8));
  EXPECT_EQ(log.number[last], 6u);
}

TEST(TxProvRecorder, MultipleLiveInclusionsBalanceOrphanReturns) {
  // The sim can include one tx in several canonical blocks (independent
  // pools select it around a partition heal). Liveness is a count: retiring
  // both blocks — oldest first, as BlockTree reports — must not trip
  // orphan_return_without_include, and the depth sweep anchors to the
  // latest inclusion.
  Harness h{3};
  h.recorder->RecordPoolOutcome(2, H(1), 100, TxPoolOutcome::kPending, 10);
  h.recorder->RecordIncluded(0, H(1), 200, H(8), 5);
  h.recorder->RecordIncluded(0, H(1), 300, H(9), 6);  // second live inclusion
  h.recorder->RecordOrphanReturned(0, H(1), 400, H(8), 5);
  h.recorder->RecordOrphanReturned(0, H(1), 500, H(9), 6);
  EXPECT_TRUE(h.violations.empty());
  // A third return with nothing live is a real violation again.
  h.recorder->RecordOrphanReturned(0, H(1), 600, H(9), 6);
  ASSERT_EQ(h.violations.size(), 1u);
  EXPECT_EQ(h.violations[0].first, TxInvariant::kOrphanReturnWithoutInclude);

  // Nothing is live, so nothing commits — the height-5 schedule was
  // invalidated by the height-6 re-anchor, the height-6 one by its return.
  h.recorder->AdvanceHead(0, 40, 700);
  const TxProvLog& log = h.recorder->Finish();
  EXPECT_EQ(CountStage(log, TxStage::kCommitted, Prefix(1)), 0u);
}

TEST(TxProvRecorder, VantageAndAnchorFiltering) {
  Harness h{4};
  // Host 1 is the only vantage; host 0 the only anchor.
  h.recorder->RecordFirstSeen(1, H(1), 100);
  h.recorder->RecordFirstSeen(2, H(1), 100);  // dropped
  h.recorder->RecordFirstSeen(3, H(1), 100);  // dropped
  h.recorder->RecordPoolOutcome(1, H(1), 150, TxPoolOutcome::kPending, 10);
  h.recorder->RecordIncluded(2, H(1), 200, H(9), 1);       // dropped
  h.recorder->RecordOrphanReturned(2, H(1), 250, H(9), 1); // dropped
  h.recorder->AdvanceHead(2, 10, 300);                     // dropped

  const TxProvLog& log = h.recorder->Finish();
  EXPECT_EQ(CountStage(log, TxStage::kFirstSeen, Prefix(1)), 1u);
  EXPECT_EQ(log.host[0], 1u);
  EXPECT_EQ(CountStage(log, TxStage::kIncluded, Prefix(1)), 0u);
  EXPECT_EQ(CountStage(log, TxStage::kOrphanReturned, Prefix(1)), 0u);
  EXPECT_EQ(CountStage(log, TxStage::kCommitted, Prefix(1)), 0u);
  // Non-anchor drops are silent: no orphan-return-without-include violation.
  EXPECT_TRUE(h.violations.empty());
  EXPECT_TRUE(h.recorder->IsAnchor(0));
  EXPECT_FALSE(h.recorder->IsAnchor(2));
}

TEST(TxProvRecorder, InvariantViolationsAreCountedAndLabeled) {
  Harness h{3};
  // Non-monotone: second record earlier than the first.
  h.recorder->RecordSubmitted(H(1), 1000, 2, 0, 10, 0);
  h.recorder->RecordPoolOutcome(2, H(1), 900, TxPoolOutcome::kPending, 10);
  // Orphan-return with no live inclusion.
  h.recorder->RecordOrphanReturned(0, H(2), 1100, H(9), 1);
  // Include without admission.
  h.recorder->RecordIncluded(0, H(3), 1200, H(9), 1);

  ASSERT_EQ(h.violations.size(), 3u);
  EXPECT_EQ(h.violations[0].first, TxInvariant::kNonMonotoneStage);
  EXPECT_EQ(h.violations[1].first, TxInvariant::kOrphanReturnWithoutInclude);
  EXPECT_EQ(h.violations[2].first, TxInvariant::kIncludeWithoutAdmit);
  EXPECT_EQ(h.recorder->violations(), 3u);
  const auto& by_check = h.recorder->checker().by_check();
  EXPECT_EQ(by_check[static_cast<std::size_t>(TxInvariant::kNonMonotoneStage)],
            1u);
  EXPECT_EQ(by_check[static_cast<std::size_t>(
                TxInvariant::kOrphanReturnWithoutInclude)],
            1u);
  EXPECT_EQ(
      by_check[static_cast<std::size_t>(TxInvariant::kIncludeWithoutAdmit)],
      1u);
  // Violating records are still appended: the stream stays complete for
  // offline debugging even when the checker fires.
  EXPECT_EQ(h.recorder->records_recorded(), 4u);
}

TEST(TxInvariantChecker, DirectFactCallsAndMetrics) {
  // kCommitBeforeInclude is unreachable through the recorder (AdvanceHead
  // skips stale entries first), so it is driven here by direct calls.
  MetricsRegistry metrics;
  TxProvRecorder::Checker checker{"txprov", TxInvariantName, /*fatal=*/false};
  checker.AttachMetrics(&metrics);
  std::vector<TxInvariant> seen;
  std::vector<std::string> details;
  checker.set_handler([&](TxInvariant check, const std::string& detail) {
    seen.push_back(check);
    details.push_back(detail);
  });

  checker.Violate(TxInvariant::kNonMonotoneStage, "t=%d", 50);
  checker.Violate(TxInvariant::kIncludeWithoutAdmit, "tx %d", 7);
  checker.Violate(TxInvariant::kOrphanReturnWithoutInclude, "tx %d", 7);
  checker.Violate(TxInvariant::kCommitBeforeInclude,
                  "tx %016x committed while not included", 7);

  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(details[0], "t=50");
  EXPECT_EQ(details[3], "tx 0000000000000007 committed while not included");
  EXPECT_EQ(seen[0], TxInvariant::kNonMonotoneStage);
  EXPECT_EQ(seen[1], TxInvariant::kIncludeWithoutAdmit);
  EXPECT_EQ(seen[2], TxInvariant::kOrphanReturnWithoutInclude);
  EXPECT_EQ(seen[3], TxInvariant::kCommitBeforeInclude);
  EXPECT_EQ(checker.total(), 4u);
  EXPECT_EQ(metrics
                .GetCounter(LabeledName("txprov.violation",
                                        {{"check", "commit_before_include"}}))
                ->value(),
            1);
}

TEST(TxProvInvariants, StrictModeLogsAndAborts) {
  TxProvConfig cfg;
  cfg.fatal_invariants = true;
  TxProvRecorder recorder{cfg};
  recorder.MarkAnchor(0);
  EXPECT_DEATH(recorder.RecordIncluded(0, H(3), 1200, H(9), 1),
               "\\[ethsim:txprov\\] error: aborting on invariant violation "
               "\\(include_without_admit\\)");
}

TEST(TxProvRecorder, StageCountersTrackAppendedRecords) {
  MetricsRegistry metrics;
  Harness h{3};
  h.recorder->AttachMetrics(&metrics);
  h.Lifecycle(1, 1000, 9, 5);
  h.recorder->AdvanceHead(0, 7, 2000);
  EXPECT_EQ(
      metrics.GetCounter(LabeledName("txprov.record", {{"stage", "submitted"}}))
          ->value(),
      1);
  EXPECT_EQ(
      metrics.GetCounter(LabeledName("txprov.record", {{"stage", "committed"}}))
          ->value(),
      2);
}

TEST(TxProvRecorder, DepthConfigNormalization) {
  TxProvConfig cfg;
  cfg.confirmation_depths = {};
  TxProvRecorder recorder{cfg};
  EXPECT_EQ(recorder.confirmation_depths(),
            (std::vector<std::uint64_t>{0}));
}

TEST(TxProvLog, BinaryRoundTrip) {
  Harness h{3};
  h.recorder->RecordFirstSeen(1, H(1), 500);
  h.Lifecycle(1, 1000, 9, 5);
  h.recorder->AdvanceHead(0, 7, 2000);
  h.recorder->SetEndTime(123456789);
  const TxProvLog& log = h.recorder->Finish();

  const std::string path = TempPath("roundtrip.bin");
  std::string error;
  ASSERT_TRUE(log.WriteBinary(path, &error)) << error;

  TxProvLog loaded;
  ASSERT_TRUE(TxProvLog::ReadBinary(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), log.size());
  EXPECT_EQ(loaded.size(), h.recorder->records_recorded());
  EXPECT_EQ(loaded.t_us, log.t_us);
  EXPECT_EQ(loaded.tx, log.tx);
  EXPECT_EQ(loaded.host, log.host);
  EXPECT_EQ(loaded.stage, log.stage);
  EXPECT_EQ(loaded.info, log.info);
  EXPECT_EQ(loaded.aux, log.aux);
  EXPECT_EQ(loaded.number, log.number);
  EXPECT_EQ(loaded.host_region, log.host_region);
  EXPECT_EQ(loaded.depths, (std::vector<std::uint64_t>{0, 2}));
  EXPECT_EQ(loaded.end_us, 123456789);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ethsim::obs
