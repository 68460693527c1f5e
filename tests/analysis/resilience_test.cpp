#include "analysis/resilience.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "chain/block_arena.hpp"
#include "chain/blocktree.hpp"
#include "miner/mining.hpp"

namespace ethsim::analysis {
namespace {

using namespace ethsim::literals;

chain::BlockArena& Arena() {
  static chain::BlockArena arena;  // outlives every fixture in the suite
  return arena;
}

chain::BlockPtr MakeBlock(const Hash32& parent, std::uint64_t number,
                          std::uint64_t mix) {
  chain::Block b;
  b.header.parent_hash = parent;
  b.header.number = number;
  b.header.difficulty = 1000;
  b.header.mix_seed = mix;
  b.Seal();
  return Arena().Adopt(std::move(b));
}

// A tiny ground-truth world: a canonical chain g-a-b plus a fork block f off
// g, minted at known instants, observed at two vantages.
struct ResilienceFixture : ::testing::Test {
  sim::Simulator simulator;
  chain::BlockPtr genesis = MakeBlock(Hash32{}, 100, 0);
  chain::BlockPtr a = MakeBlock(genesis->hash, 101, 1);
  chain::BlockPtr b = MakeBlock(a->hash, 102, 2);
  chain::BlockPtr fork = MakeBlock(genesis->hash, 101, 3);

  chain::BlockTree tree{genesis};
  std::vector<miner::MintRecord> minted;
  std::vector<std::unique_ptr<measure::Observer>> owned;

  void SetUp() override {
    tree.Add(a, TimePoint::FromMicros(0));
    tree.Add(b, TimePoint::FromMicros(0));
    tree.Add(fork, TimePoint::FromMicros(0));
    ASSERT_TRUE(tree.IsCanonical(b->hash));
    ASSERT_FALSE(tree.IsCanonical(fork->hash));
    Mint(a, 10_s);
    Mint(b, 30_s);
    Mint(fork, 40_s);
  }

  void Mint(const chain::BlockPtr& block, Duration at) {
    miner::MintRecord record;
    record.block = block;
    record.mined_at = TimePoint::FromMicros(at.micros());
    minted.push_back(record);
  }

  measure::Observer* AddObserver(const std::string& name) {
    owned.push_back(std::make_unique<measure::Observer>(
        name, net::Region::WesternEurope, simulator, 0_ms));
    return owned.back().get();
  }

  void BlockAt(measure::Observer* obs, Duration when, const Hash32& hash,
               std::uint64_t number) {
    simulator.Schedule(when, [obs, hash, number] {
      obs->OnBlockMessage(eth::MessageSink::BlockMsgKind::kFullBlock, hash,
                          number);
    });
  }

  StudyInputs Inputs() {
    StudyInputs inputs;
    for (const auto& o : owned) inputs.observers.push_back(o.get());
    inputs.minted = &minted;
    inputs.reference = &tree;
    return inputs;
  }
};

TEST_F(ResilienceFixture, SliceClassifiesMintsAgainstTheWindow) {
  auto* v1 = AddObserver("V1");
  auto* v2 = AddObserver("V2");
  BlockAt(v1, 10_s, a->hash, 101);
  BlockAt(v2, 10_s + 74_ms, a->hash, 101);
  BlockAt(v1, 30_s, b->hash, 102);
  BlockAt(v2, 30_s + 200_ms, b->hash, 102);
  BlockAt(v1, 40_s, fork->hash, 101);  // fork seen at only one vantage
  simulator.RunAll();

  // Window [0 s, 35 s): catches a and b, both canonical.
  const WindowSlice early =
      SliceWindow(Inputs(), TimePoint::FromMicros(0),
                  TimePoint::FromMicros(Duration::Seconds(35).micros()));
  EXPECT_EQ(early.blocks_minted, 2u);
  EXPECT_EQ(early.canonical_blocks, 2u);
  EXPECT_EQ(early.fork_blocks, 0u);
  EXPECT_DOUBLE_EQ(early.fork_rate, 0.0);
  // Two blocks, two vantages -> one cross-vantage delta each.
  EXPECT_EQ(early.delay_samples, 2u);
  EXPECT_DOUBLE_EQ(early.delay_median_ms, (74.0 + 200.0) / 2.0);

  // Window [35 s, 60 s): only the fork block, seen at one vantage (no delta).
  const WindowSlice late =
      SliceWindow(Inputs(), TimePoint::FromMicros(Duration::Seconds(35).micros()),
                  TimePoint::FromMicros(Duration::Seconds(60).micros()));
  EXPECT_EQ(late.blocks_minted, 1u);
  EXPECT_EQ(late.canonical_blocks, 0u);
  EXPECT_EQ(late.fork_blocks, 1u);
  EXPECT_DOUBLE_EQ(late.fork_rate, 1.0);
  EXPECT_EQ(late.delay_samples, 0u);
}

TEST_F(ResilienceFixture, WindowBoundsAreHalfOpen) {
  // mined_at exactly at `end` is excluded, exactly at `start` included.
  const WindowSlice slice =
      SliceWindow(Inputs(), TimePoint::FromMicros(Duration::Seconds(10).micros()),
                  TimePoint::FromMicros(Duration::Seconds(30).micros()));
  EXPECT_EQ(slice.blocks_minted, 1u);  // a at 10 s in, b at 30 s out
}

TEST_F(ResilienceFixture, CompareComputesInflationAndGuardsZeroDenominators) {
  auto* v1 = AddObserver("V1");
  auto* v2 = AddObserver("V2");
  BlockAt(v1, 10_s, a->hash, 101);
  BlockAt(v2, 10_s + 100_ms, a->hash, 101);
  BlockAt(v1, 40_s, fork->hash, 101);
  simulator.RunAll();

  const TimePoint start = TimePoint::FromMicros(0);
  const TimePoint end = TimePoint::FromMicros(Duration::Seconds(60).micros());
  const ResilienceReport report =
      CompareResilience(Inputs(), Inputs(), start, end);
  // Identical inputs: inflation exactly 1 where defined.
  EXPECT_DOUBLE_EQ(report.fork_rate_inflation, 1.0);
  EXPECT_DOUBLE_EQ(report.delay_p95_inflation, 1.0);

  // Against an empty control, the ratios stay at their 0 sentinel instead of
  // dividing by zero.
  StudyInputs empty;
  const ResilienceReport guarded =
      CompareResilience(Inputs(), empty, start, end);
  EXPECT_DOUBLE_EQ(guarded.fork_rate_inflation, 0.0);
  EXPECT_DOUBLE_EQ(guarded.delay_p95_inflation, 0.0);
}

TEST_F(ResilienceFixture, RenderMentionsBothSlicesAndTheWindow) {
  const ResilienceReport report = CompareResilience(
      Inputs(), Inputs(), TimePoint::FromMicros(0),
      TimePoint::FromMicros(Duration::Seconds(60).micros()));
  const std::string text = RenderResilience(report);
  EXPECT_NE(text.find("faulted"), std::string::npos) << text;
  EXPECT_NE(text.find("control"), std::string::npos) << text;
  EXPECT_NE(text.find("60 s"), std::string::npos) << text;
  EXPECT_NE(text.find("inflation"), std::string::npos) << text;
}

TEST(ResilienceEmptyInputs, SliceOfNothingIsAllZeros) {
  StudyInputs inputs;
  const WindowSlice slice =
      SliceWindow(inputs, TimePoint::FromMicros(0),
                  TimePoint::FromMicros(Duration::Seconds(10).micros()));
  EXPECT_EQ(slice.blocks_minted, 0u);
  EXPECT_EQ(slice.fork_blocks, 0u);
  EXPECT_EQ(slice.delay_samples, 0u);
  EXPECT_DOUBLE_EQ(slice.fork_rate, 0.0);
}

}  // namespace
}  // namespace ethsim::analysis
