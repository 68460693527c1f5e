// Byte pin for both flight recorders on a faulted run. Every edge drop reason
// occurs: background random loss, a node crash (offline ingress), a regional
// partition, a lossy link-degradation window and Poisson churn. The test
// writes provenance.bin and txprov.bin and pins a Keccak-256 of each file
// plus the count of each drop reason, so any change to what the recorders
// append, or in which order, shows here even when the run itself is
// unchanged. The values were re-pinned once when the txpool began replaying
// each BlockTree::Add's chain edits in tree order (a block adopted and then
// retired by one Add no longer takes its txs out of the pool), which changes
// the blocks this run mines.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <string>

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
  EXPECT_EQ(edges.size(), 1411134u);
  EXPECT_EQ(count(EdgeDrop::kNone), 1327897u);
  EXPECT_EQ(count(EdgeDrop::kRandomLoss), 13328u);
  EXPECT_EQ(count(EdgeDrop::kPartitioned), 68368u);
  EXPECT_EQ(count(EdgeDrop::kDegraded), 1506u);
  EXPECT_EQ(count(EdgeDrop::kOffline), 35u);
  EXPECT_EQ(telemetry.txprov()->records_recorded(), 71788u);
  EXPECT_EQ(telemetry.provenance()->violations(), 0u);
  EXPECT_EQ(telemetry.txprov()->violations(), 0u);

  EXPECT_EQ(FileKeccak(dir + "/provenance.bin"),
            "64d2676f3e7bea7cf2cb290cc9d9a3185494732b248f059a0756711bfe6b9044");
  EXPECT_EQ(FileKeccak(dir + "/txprov.bin"),
            "2b99d999c8e4db39029bc6540b8938b6a3bbed476106666403b804b61f0031db");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ethsim
