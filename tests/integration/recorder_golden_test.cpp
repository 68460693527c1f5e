// Byte pin for both flight recorders on a faulted run. Every edge drop reason
// occurs: background random loss, a node crash (offline ingress), a regional
// partition, a lossy link-degradation window and Poisson churn. The test
// writes provenance.bin and txprov.bin and pins a Keccak-256 of each file
// plus the count of each drop reason, so any change to what the recorders
// append, or in which order, shows here even when the run itself is
// unchanged. The values were re-pinned when the txpool began replaying each
// BlockTree::Add's chain edits in tree order (a block adopted and then
// retired by one Add no longer takes its txs out of the pool), and again when
// a block buffered twice as an orphan stopped entering its height bucket
// twice (a pool had named it as both uncles of blocks every peer rejected);
// both change the blocks this run mines.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <string>

#include "check/oracles.hpp"
#include "common/keccak.hpp"
#include "common/types.hpp"
#include "core/experiment.hpp"
#include "fault/plan.hpp"
#include "net/geo.hpp"
#include "obs/json.hpp"

namespace ethsim {
namespace {

TimePoint AtMinute(std::int64_t minute) {
  return TimePoint::FromMicros(Duration::Minutes(minute).micros());
}

std::uint32_t RegionBit(net::Region region) {
  return 1u << static_cast<unsigned>(region);
}

core::ExperimentConfig FaultedConfig() {
  core::ExperimentConfig cfg = core::presets::SmallStudy(30);
  cfg.seed = 42;
  cfg.duration = Duration::Minutes(12);
  cfg.workload.rate_per_sec = 1.0;
  cfg.net_params.drop_prob = 0.01;
  cfg.fault_plan.NodeCrash(AtMinute(2), Duration::Minutes(1), /*count=*/3)
      .RegionalPartition(AtMinute(4), Duration::Minutes(2),
                         RegionBit(net::Region::EasternAsia))
      .DegradeLinks(AtMinute(7), Duration::Minutes(1),
                    RegionBit(net::Region::WesternEurope),
                    /*latency_factor=*/2.0, /*bandwidth_factor=*/1.5,
                    /*extra_drop_prob=*/0.05)
      .PoissonChurn(AtMinute(9), Duration::Minutes(2), /*leaves_per_min=*/3.0,
                    Duration::Seconds(20));
  cfg.telemetry.provenance = true;
  cfg.telemetry.txprov = true;
  return cfg;
}

std::string FileKeccak(const std::string& path) {
  std::string bytes;
  std::string error;
  EXPECT_TRUE(obs::ReadTextFile(path, &bytes, &error)) << error;
  return ToHex(Keccak256Of(bytes));
}

TEST(RecorderGolden, FaultedRunArtifactsUnchanged) {
  core::Experiment exp{FaultedConfig()};
  exp.Run();
  obs::Telemetry& telemetry = *exp.telemetry();

  const std::string dir = testing::TempDir() + "ethsim_recorder_golden";
  std::filesystem::remove_all(dir);
  std::string error;
  ASSERT_TRUE(telemetry.WriteArtifacts(dir, &error)) << error;

  const obs::ProvenanceLog& edges = telemetry.provenance()->Finish();
  std::array<std::uint64_t, obs::kEdgeDropCount> by_drop{};
  for (const std::uint8_t drop : edges.drop) ++by_drop[drop];
  using obs::EdgeDrop;
  const auto count = [&](EdgeDrop drop) {
    return by_drop[static_cast<std::size_t>(drop)];
  };
  EXPECT_EQ(edges.size(), 1404865u);
  EXPECT_EQ(count(EdgeDrop::kNone), 1321716u);
  EXPECT_EQ(count(EdgeDrop::kRandomLoss), 13240u);
  EXPECT_EQ(count(EdgeDrop::kPartitioned), 68368u);
  EXPECT_EQ(count(EdgeDrop::kDegraded), 1500u);
  EXPECT_EQ(count(EdgeDrop::kOffline), 41u);
  EXPECT_EQ(telemetry.txprov()->records_recorded(), 71871u);
  EXPECT_EQ(telemetry.provenance()->violations(), 0u);
  EXPECT_EQ(telemetry.txprov()->violations(), 0u);

  EXPECT_EQ(FileKeccak(dir + "/provenance.bin"),
            "d7f8ed22fa7f5f52f40964741501d95955a48dacdc7ce4ad122bf8b4d33406c5");
  EXPECT_EQ(FileKeccak(dir + "/txprov.bin"),
            "7a6770058f15a89e3c6fdb702d7df7841cc8eb9d4ee359c8966619c2c1b583ce");
  std::filesystem::remove_all(dir);
}

// The same faulted world run through every oracle. Every block it mints must
// pass every peer's import checks: none of its faults injects an invalid
// block, so a rejection (a pool naming one block as both uncles, say) is a
// minting bug.
TEST(RecorderGolden, FaultedRunPassesOracles) {
  core::Experiment exp{FaultedConfig()};
  exp.Run();
  const std::vector<check::OracleFailure> failures = check::RunOracles(exp);
  for (const check::OracleFailure& failure : failures)
    ADD_FAILURE() << failure.oracle << ": " << failure.detail;
}

}  // namespace
}  // namespace ethsim
