#include "analysis/propagation.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace ethsim::analysis {
namespace {

using namespace ethsim::literals;

Hash32 H(std::uint8_t tag) {
  Hash32 h;
  h.bytes[0] = tag;
  return h;
}

// Drives observers with synthetic message timings through the simulator so
// that LocalNow() stamps are exact.
struct PropagationFixture : ::testing::Test {
  sim::Simulator simulator;
  std::vector<std::unique_ptr<measure::Observer>> owned;

  measure::Observer* AddObserver(const std::string& name, Duration offset) {
    owned.push_back(std::make_unique<measure::Observer>(
        name, net::Region::WesternEurope, simulator, offset));
    return owned.back().get();
  }

  void BlockAt(measure::Observer* obs, Duration when, const Hash32& hash) {
    simulator.Schedule(when, [obs, hash] {
      obs->OnBlockMessage(eth::MessageSink::BlockMsgKind::kFullBlock, hash, 1,
                          nullptr);
    });
  }

  void TxAt(measure::Observer* obs, Duration when, const Hash32& hash) {
    simulator.Schedule(when, [obs, hash] {
      Address sender;
      chain::Transaction tx;
      tx.hash = hash;
      tx.sender = sender;
      obs->OnTransactionMessage(tx);
    });
  }

  ObserverSet Set() {
    ObserverSet set;
    for (const auto& o : owned) set.push_back(o.get());
    return set;
  }
};

TEST_F(PropagationFixture, SingleBlockTwoVantages) {
  auto* a = AddObserver("A", 0_ms);
  auto* b = AddObserver("B", 0_ms);
  BlockAt(a, 100_ms, H(1));
  BlockAt(b, 174_ms, H(1));
  simulator.RunAll();

  const auto result = BlockPropagationDelays(Set());
  EXPECT_EQ(result.items, 1u);
  ASSERT_EQ(result.delays_ms.count(), 1u);
  EXPECT_DOUBLE_EQ(result.median_ms, 74.0);
  EXPECT_DOUBLE_EQ(result.mean_ms, 74.0);
}

TEST_F(PropagationFixture, FourVantagesYieldThreeDeltasPerBlock) {
  auto* a = AddObserver("A", 0_ms);
  auto* b = AddObserver("B", 0_ms);
  auto* c = AddObserver("C", 0_ms);
  auto* d = AddObserver("D", 0_ms);
  BlockAt(a, 100_ms, H(1));
  BlockAt(b, 150_ms, H(1));
  BlockAt(c, 200_ms, H(1));
  BlockAt(d, 400_ms, H(1));
  simulator.RunAll();

  const auto result = BlockPropagationDelays(Set());
  EXPECT_EQ(result.items, 1u);
  ASSERT_EQ(result.delays_ms.count(), 3u);
  EXPECT_DOUBLE_EQ(result.delays_ms.Quantile(0.0), 50.0);
  EXPECT_DOUBLE_EQ(result.delays_ms.Quantile(1.0), 300.0);
  EXPECT_DOUBLE_EQ(result.median_ms, 100.0);
}

TEST_F(PropagationFixture, BlocksSeenByOneVantageAreExcluded) {
  auto* a = AddObserver("A", 0_ms);
  auto* b = AddObserver("B", 0_ms);
  BlockAt(a, 100_ms, H(1));  // only A sees block 1
  BlockAt(a, 200_ms, H(2));
  BlockAt(b, 230_ms, H(2));
  simulator.RunAll();

  const auto result = BlockPropagationDelays(Set());
  EXPECT_EQ(result.items, 1u);
  EXPECT_DOUBLE_EQ(result.median_ms, 30.0);
}

TEST_F(PropagationFixture, ClockOffsetsContaminateMeasurement) {
  // B's clock runs 20ms ahead: the measured delta includes that skew, as in
  // the real study (§II's accuracy caveat).
  auto* a = AddObserver("A", 0_ms);
  auto* b = AddObserver("B", 20_ms);
  BlockAt(a, 100_ms, H(1));
  BlockAt(b, 150_ms, H(1));  // true delta 50ms
  simulator.RunAll();

  const auto result = BlockPropagationDelays(Set());
  EXPECT_DOUBLE_EQ(result.median_ms, 70.0);  // 50 true + 20 skew
}

TEST_F(PropagationFixture, SkewCanInvertTheWinner) {
  auto* a = AddObserver("A", 0_ms);
  auto* b = AddObserver("B", Duration::Millis(-30));
  BlockAt(a, 100_ms, H(1));  // true first
  BlockAt(b, 110_ms, H(1));  // local clock says 80ms -> apparent first
  simulator.RunAll();

  const auto result = BlockPropagationDelays(Set());
  ASSERT_EQ(result.delays_ms.count(), 1u);
  // Delta measured from B's (earlier-looking) stamp.
  EXPECT_DOUBLE_EQ(result.delays_ms.Quantile(0.5), 20.0);
}

TEST_F(PropagationFixture, PercentilesOverManyBlocks) {
  auto* a = AddObserver("A", 0_ms);
  auto* b = AddObserver("B", 0_ms);
  // 100 blocks with deltas 1..100 ms.
  for (int i = 1; i <= 100; ++i) {
    Hash32 h;
    h.bytes[0] = static_cast<std::uint8_t>(i);
    h.bytes[1] = static_cast<std::uint8_t>(i >> 8);
    BlockAt(a, Duration::Seconds(i), h);
    BlockAt(b, Duration::Seconds(i) + Duration::Millis(i), h);
  }
  simulator.RunAll();

  const auto result = BlockPropagationDelays(Set());
  EXPECT_EQ(result.items, 100u);
  EXPECT_NEAR(result.median_ms, 50.5, 0.6);
  EXPECT_NEAR(result.p95_ms, 95.0, 1.0);
  EXPECT_NEAR(result.p99_ms, 99.0, 1.0);
}

TEST_F(PropagationFixture, TxDelaysComputedSeparatelyFromBlocks) {
  auto* a = AddObserver("A", 0_ms);
  auto* b = AddObserver("B", 0_ms);
  TxAt(a, 10_ms, H(9));
  TxAt(b, 15_ms, H(9));
  BlockAt(a, 100_ms, H(1));
  BlockAt(b, 300_ms, H(1));
  simulator.RunAll();

  EXPECT_DOUBLE_EQ(TxPropagationDelays(Set()).median_ms, 5.0);
  EXPECT_DOUBLE_EQ(BlockPropagationDelays(Set()).median_ms, 200.0);
}

TEST_F(PropagationFixture, PerVantageMediansIdentifyLaggards) {
  auto* a = AddObserver("EA", 0_ms);
  auto* b = AddObserver("NA", 0_ms);
  for (int i = 1; i <= 20; ++i) {
    Hash32 h = H(static_cast<std::uint8_t>(i));
    TxAt(a, Duration::Seconds(i), h);                        // always first
    TxAt(b, Duration::Seconds(i) + Duration::Millis(80), h); // +80ms
  }
  simulator.RunAll();

  const auto rows = PerVantageTxDelay(Set());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "EA");
  EXPECT_EQ(rows[0].samples, 0u);  // never trails
  EXPECT_EQ(rows[1].name, "NA");
  EXPECT_EQ(rows[1].samples, 20u);
  EXPECT_DOUBLE_EQ(rows[1].median_ms, 80.0);
}

TEST_F(PropagationFixture, EmptyObserversProduceEmptyResult) {
  const auto result = BlockPropagationDelays({});
  EXPECT_EQ(result.items, 0u);
  EXPECT_EQ(result.delays_ms.count(), 0u);
}

}  // namespace
}  // namespace ethsim::analysis
