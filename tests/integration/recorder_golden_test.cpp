// Byte pin for both flight recorders on a faulted run. Every edge drop reason
// occurs: background random loss, a node crash (offline ingress), a regional
// partition, a lossy link-degradation window and Poisson churn. The test
// writes provenance.bin and txprov.bin and pins a Keccak-256 of each file
// plus the count of each drop reason, so any change to what the recorders
// append, or in which order, shows here even when the run itself is
// unchanged.
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
  EXPECT_EQ(edges.size(), 1405525u);
  EXPECT_EQ(count(EdgeDrop::kNone), 1322309u);
  EXPECT_EQ(count(EdgeDrop::kRandomLoss), 13299u);
  EXPECT_EQ(count(EdgeDrop::kPartitioned), 68368u);
  EXPECT_EQ(count(EdgeDrop::kDegraded), 1518u);
  EXPECT_EQ(count(EdgeDrop::kOffline), 31u);
  EXPECT_EQ(telemetry.txprov()->records_recorded(), 70982u);
  EXPECT_EQ(telemetry.provenance()->violations(), 0u);
  EXPECT_EQ(telemetry.txprov()->violations(), 0u);

  EXPECT_EQ(FileKeccak(dir + "/provenance.bin"),
            "492709b5b5c141db790723354c474d7759ed11158efae3706fb3007734164fe5");
  EXPECT_EQ(FileKeccak(dir + "/txprov.bin"),
            "32433a45ccbbd33f1c561945fca62cafa202fad9c170e2de5249b2cc3ab3762f");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ethsim
