#include "analysis/geo.hpp"

#include "chain/block_arena.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace ethsim::analysis {
namespace {

using namespace ethsim::literals;

struct GeoFixture : ::testing::Test {
  sim::Simulator simulator;
  std::vector<std::unique_ptr<measure::Observer>> owned;

  measure::Observer* AddObserver(const std::string& name) {
    owned.push_back(std::make_unique<measure::Observer>(
        name, net::Region::WesternEurope, simulator, 0_ms));
    return owned.back().get();
  }

  void BlockAt(measure::Observer* obs, Duration when, const Hash32& hash) {
    simulator.Schedule(when, [obs, hash] {
      obs->OnBlockMessage(eth::MessageSink::BlockMsgKind::kFullBlock, hash, 1);
    });
  }

  ObserverSet Set() {
    ObserverSet set;
    for (const auto& o : owned) set.push_back(o.get());
    return set;
  }

  static Hash32 H(std::uint16_t tag) {
    Hash32 h;
    h.bytes[0] = static_cast<std::uint8_t>(tag);
    h.bytes[1] = static_cast<std::uint8_t>(tag >> 8);
    return h;
  }
};

TEST_F(GeoFixture, CountsWinsPerVantage) {
  auto* ea = AddObserver("EA");
  auto* na = AddObserver("NA");
  // EA first for 3 blocks, NA first for 1.
  for (int i = 0; i < 3; ++i) {
    BlockAt(ea, Duration::Seconds(i + 1), H(static_cast<std::uint16_t>(i)));
    BlockAt(na, Duration::Seconds(i + 1) + 100_ms,
            H(static_cast<std::uint16_t>(i)));
  }
  BlockAt(na, Duration::Seconds(10), H(99));
  BlockAt(ea, Duration::Seconds(10) + 100_ms, H(99));
  simulator.RunAll();

  const auto result = FirstObservationShares(Set());
  EXPECT_EQ(result.total_blocks, 4u);
  EXPECT_EQ(result.shares[0].vantage, "EA");
  EXPECT_EQ(result.shares[0].wins, 3u);
  EXPECT_DOUBLE_EQ(result.shares[0].share, 0.75);
  EXPECT_DOUBLE_EQ(result.shares[1].share, 0.25);
}

TEST_F(GeoFixture, BlocksSeenByOnlyOneVantageStillCount) {
  auto* a = AddObserver("A");
  AddObserver("B");
  BlockAt(a, 1_s, H(1));
  simulator.RunAll();

  const auto result = FirstObservationShares(Set());
  EXPECT_EQ(result.total_blocks, 1u);
  EXPECT_EQ(result.shares[0].wins, 1u);
  // Unique observations are certain wins, not uncertain ones.
  EXPECT_DOUBLE_EQ(result.shares[0].uncertain_share, 0.0);
}

TEST_F(GeoFixture, NarrowMarginsAreFlaggedUncertain) {
  auto* a = AddObserver("A");
  auto* b = AddObserver("B");
  // 5ms margin: within 2x the 10ms NTP envelope.
  BlockAt(a, 1_s, H(1));
  BlockAt(b, 1_s + 5_ms, H(1));
  // 200ms margin: clearly decided.
  BlockAt(a, 2_s, H(2));
  BlockAt(b, 2_s + 200_ms, H(2));
  simulator.RunAll();

  const auto result = FirstObservationShares(Set());
  EXPECT_EQ(result.shares[0].wins, 2u);
  EXPECT_DOUBLE_EQ(result.shares[0].uncertain_share, 0.5);
}

TEST_F(GeoFixture, SharesSumToOne) {
  auto* a = AddObserver("A");
  auto* b = AddObserver("B");
  auto* c = AddObserver("C");
  for (std::uint16_t i = 0; i < 30; ++i) {
    measure::Observer* winner = (i % 3 == 0) ? a : (i % 3 == 1) ? b : c;
    BlockAt(winner, Duration::Seconds(i + 1), H(i));
    BlockAt(a, Duration::Seconds(i + 1) + 50_ms, H(i));
    BlockAt(b, Duration::Seconds(i + 1) + 60_ms, H(i));
    BlockAt(c, Duration::Seconds(i + 1) + 70_ms, H(i));
  }
  simulator.RunAll();

  const auto result = FirstObservationShares(Set());
  double total = 0;
  for (const auto& share : result.shares) total += share.share;
  EXPECT_DOUBLE_EQ(total, 1.0);
}

// --- Fig 3: pool-conditioned splits ---------------------------------------

struct PoolGeoFixture : GeoFixture {
  std::vector<miner::PoolSpec> pools;
  chain::BlockArena arena;
  std::vector<miner::MintRecord> minted;

  void AddPool(const std::string& name, double share) {
    miner::PoolSpec spec;
    spec.name = name;
    spec.hashrate_share = share;
    spec.coinbase = miner::PoolCoinbase(name);
    pools.push_back(spec);
  }

  void Mint(std::size_t pool, const Hash32& hash) {
    chain::Block body;
    body.header.miner = pools[pool].coinbase;
    body.Seal();
    body.hash = hash;  // synthetic identity for joining with arrivals
    minted.push_back(miner::MintRecord{arena.Adopt(std::move(body)), pool,
                                       TimePoint{}, false, false, Hash32{},
                                       false});
  }
};

TEST_F(PoolGeoFixture, SplitsFirstObservationByPool) {
  auto* ea = AddObserver("EA");
  auto* we = AddObserver("WE");
  AddPool("AsiaPool", 0.6);
  AddPool("EuroPool", 0.4);

  // AsiaPool blocks always seen first in EA; EuroPool in WE.
  for (std::uint16_t i = 0; i < 10; ++i) {
    const Hash32 h = H(i);
    Mint(0, h);
    BlockAt(ea, Duration::Seconds(i + 1), h);
    BlockAt(we, Duration::Seconds(i + 1) + 90_ms, h);
  }
  for (std::uint16_t i = 100; i < 105; ++i) {
    const Hash32 h = H(i);
    Mint(1, h);
    BlockAt(we, Duration::Seconds(i + 1), h);
    BlockAt(ea, Duration::Seconds(i + 1) + 90_ms, h);
  }
  simulator.RunAll();

  StudyInputs inputs;
  inputs.observers = Set();
  inputs.minted = &minted;
  inputs.pools = &pools;
  const auto result = PoolFirstObservation(inputs);

  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].pool, "AsiaPool");
  EXPECT_EQ(result.rows[0].blocks, 10u);
  EXPECT_DOUBLE_EQ(result.rows[0].vantage_shares[0], 1.0);  // EA
  EXPECT_DOUBLE_EQ(result.rows[0].vantage_shares[1], 0.0);
  EXPECT_EQ(result.rows[1].blocks, 5u);
  EXPECT_DOUBLE_EQ(result.rows[1].vantage_shares[1], 1.0);  // WE
}

TEST_F(PoolGeoFixture, UnobservedPoolsReportZeroBlocks) {
  AddObserver("EA");
  AddPool("Ghost", 0.1);
  StudyInputs inputs;
  inputs.observers = Set();
  inputs.minted = &minted;
  inputs.pools = &pools;
  const auto result = PoolFirstObservation(inputs);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].blocks, 0u);
}

}  // namespace
}  // namespace ethsim::analysis
