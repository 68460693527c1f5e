#include "analysis/redundancy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace ethsim::analysis {
namespace {

using namespace ethsim::literals;
using Kind = eth::MessageSink::BlockMsgKind;

struct RedundancyFixture : ::testing::Test {
  RedundancyFixture()
      : observer("V", net::Region::WesternEurope, simulator, 0_ms) {}

  void Arrive(Duration when, std::uint8_t block_tag, Kind kind) {
    Hash32 h;
    h.bytes[0] = block_tag;
    simulator.Schedule(when,
                       [this, h, kind] { observer.OnBlockMessage(kind, h, 1); });
  }

  sim::Simulator simulator;
  measure::Observer observer;
};

TEST_F(RedundancyFixture, CountsKindsSeparately) {
  // Block 1: 2 announcements + 3 whole copies. A later block keeps block 1
  // outside the settle window.
  Arrive(1_s, 1, Kind::kAnnouncement);
  Arrive(2_s, 1, Kind::kAnnouncement);
  Arrive(1_s, 1, Kind::kFullBlock);
  Arrive(3_s, 1, Kind::kFullBlock);
  Arrive(4_s, 1, Kind::kFetched);
  Arrive(Duration::Seconds(200), 2, Kind::kFullBlock);
  simulator.RunAll();

  const auto result = BlockReceptionRedundancy(observer, 60_s);
  EXPECT_EQ(result.blocks, 1u);  // block 2 excluded by the settle window
  EXPECT_DOUBLE_EQ(result.announcements.mean, 2.0);
  EXPECT_DOUBLE_EQ(result.whole_blocks.mean, 3.0);
  EXPECT_DOUBLE_EQ(result.combined.mean, 5.0);
}

TEST_F(RedundancyFixture, MedianAndTopPercentiles) {
  // 100 blocks: block i receives i%5+1 whole copies.
  for (int i = 0; i < 100; ++i) {
    for (int c = 0; c <= i % 5; ++c)
      Arrive(Duration::Seconds(i + 1), static_cast<std::uint8_t>(i),
             Kind::kFullBlock);
  }
  Arrive(Duration::Seconds(500), 200, Kind::kFullBlock);  // settle anchor
  simulator.RunAll();

  const auto result = BlockReceptionRedundancy(observer, 60_s);
  EXPECT_EQ(result.blocks, 100u);
  EXPECT_DOUBLE_EQ(result.whole_blocks.median, 3.0);
  EXPECT_NEAR(result.whole_blocks.mean, 3.0, 0.01);
  EXPECT_DOUBLE_EQ(result.whole_blocks.top10, 5.0);
}

TEST_F(RedundancyFixture, SettleWindowExcludesTailBlocks) {
  Arrive(1_s, 1, Kind::kFullBlock);
  Arrive(70_s, 2, Kind::kFullBlock);  // within 60s of the last event
  simulator.RunAll();
  const auto result = BlockReceptionRedundancy(observer, 60_s);
  EXPECT_EQ(result.blocks, 1u);
}

TEST_F(RedundancyFixture, EmptyLogYieldsZeros) {
  const auto result = BlockReceptionRedundancy(observer);
  EXPECT_EQ(result.blocks, 0u);
  EXPECT_DOUBLE_EQ(result.combined.mean, 0.0);
}

TEST(OptimalGossip, MatchesPaperFigure) {
  // ln(15,000) ≈ 9.62, the number the paper compares Table II against.
  EXPECT_NEAR(OptimalGossipReceptions(15'000), 9.62, 0.01);
}

}  // namespace
}  // namespace ethsim::analysis
