// End-to-end telemetry contract tests:
//   * golden determinism — enabling metrics/trace/profile must not change a
//     single observable output (head hash, event count, observer digests);
//   * merge invariance — the merged sweep registry is identical whether the
//     sweep ran on 1 thread or 4;
//   * provenance — config digests ignore seed + telemetry gates, determinism
//     digests pin run outputs, WriteRunArtifacts emits a well-formed
//     manifest beside the enabled streams.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/provenance.hpp"
#include "core/sweep.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/validate.hpp"

namespace ethsim::core {
namespace {

ExperimentConfig TinyConfig() {
  ExperimentConfig cfg = presets::SmallStudy(30);
  cfg.duration = Duration::Minutes(8);
  cfg.workload.rate_per_sec = 1.0;
  return cfg;
}

obs::TelemetryConfig FullTelemetry() {
  obs::TelemetryConfig t;
  t.metrics = true;
  t.trace = true;
  t.profile = true;
  t.trace_capacity = 1u << 14;  // small ring: forces overwrites too
  return t;
}

class ArtifactDirFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ethsim_telemetry_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// Golden determinism: telemetry on vs off.

TEST(TelemetryDeterminism, EnablingTelemetryDoesNotPerturbTheRun) {
  Experiment plain{TinyConfig()};
  plain.Run();

  ExperimentConfig traced_cfg = TinyConfig();
  traced_cfg.telemetry = FullTelemetry();
  Experiment traced{traced_cfg};
  traced.Run();

  // The whole contract in three lines: identical head, identical event
  // count, identical observer logs (the determinism digest covers all of
  // them plus block numbers).
  EXPECT_EQ(plain.reference_tree().head_hash(),
            traced.reference_tree().head_hash());
  EXPECT_EQ(plain.simulator().events_executed(),
            traced.simulator().events_executed());
  EXPECT_EQ(DeterminismDigest(plain), DeterminismDigest(traced));

  // And the traced run actually recorded something — this is not a
  // vacuously-passing test against a disabled tracer.
  ASSERT_NE(traced.telemetry(), nullptr);
  ASSERT_NE(traced.telemetry()->tracer(), nullptr);
  EXPECT_GT(traced.telemetry()->tracer()->emitted(), 1000u);
  ASSERT_NE(traced.telemetry()->metrics(), nullptr);
  EXPECT_FALSE(traced.telemetry()->metrics()->empty());
  EXPECT_EQ(plain.telemetry(), nullptr);
}

TEST(TelemetryDeterminism, MetricsAreReproducibleAcrossRuns) {
  ExperimentConfig cfg = TinyConfig();
  cfg.telemetry.metrics = true;
  Experiment a{cfg};
  Experiment b{cfg};
  a.Run();
  b.Run();
  ASSERT_NE(a.telemetry(), nullptr);
  ASSERT_NE(b.telemetry(), nullptr);
  EXPECT_EQ(a.telemetry()->metrics()->ToJsonl(),
            b.telemetry()->metrics()->ToJsonl());
}

TEST(TelemetryDeterminism, TraceJsonIsReproducibleAcrossRuns) {
  ExperimentConfig cfg = TinyConfig();
  cfg.telemetry.trace = true;
  cfg.telemetry.trace_categories = obs::ParseTraceCategories("block,mine");
  Experiment a{cfg};
  Experiment b{cfg};
  a.Run();
  b.Run();
  EXPECT_EQ(a.telemetry()->tracer()->ToChromeTraceJson(),
            b.telemetry()->tracer()->ToChromeTraceJson());
}

// ---------------------------------------------------------------------------
// Sweep merge invariance.

TEST(MergeSweepMetrics, InvariantUnderThreadCount) {
  ExperimentConfig cfg = TinyConfig();
  cfg.duration = Duration::Minutes(5);
  cfg.telemetry.metrics = true;
  const auto seeds = ConsecutiveSeeds(7, 3);

  SeedSweepRunner sequential{{1}};
  SeedSweepRunner parallel{{4}};
  const auto runs1 = sequential.RunExperiments(cfg, seeds);
  const auto runs4 = parallel.RunExperiments(cfg, seeds);

  const std::string merged1 = MergeSweepMetrics(runs1).ToJsonl();
  const std::string merged4 = MergeSweepMetrics(runs4).ToJsonl();
  EXPECT_FALSE(merged1.empty());
  EXPECT_EQ(merged1, merged4);
}

TEST(MergeSweepMetrics, RaggedDurationsPoolInStrictVectorOrder) {
  // Members with different run lengths (a duration sweep) carry different
  // counter magnitudes; the merge must still be a plain strict-order sum —
  // checked against hand-summed member values for a counter that fires on
  // every run.
  std::vector<std::unique_ptr<Experiment>> runs;
  for (const int minutes : {2, 6, 4}) {
    ExperimentConfig cfg = TinyConfig();
    cfg.duration = Duration::Minutes(minutes);
    cfg.telemetry.metrics = true;
    runs.push_back(std::make_unique<Experiment>(cfg));
    runs.back()->Run();
  }
  const obs::MetricsRegistry merged = MergeSweepMetrics(runs);
  const std::string name = obs::LabeledName(
      "net.msg.sent", {{"kind", obs::MsgKindName(obs::MsgKind::kNewBlock)}});
  std::uint64_t want = 0;
  for (const auto& run : runs) {
    const obs::Counter* member =
        run->telemetry()->metrics()->FindCounter(name);
    ASSERT_NE(member, nullptr);
    EXPECT_GT(member->value(), 0u);
    want += member->value();
  }
  const obs::Counter* pooled = merged.FindCounter(name);
  ASSERT_NE(pooled, nullptr);
  EXPECT_EQ(pooled->value(), want);
}

TEST(MergeSweepMetrics, MembersWithoutMetricsContributeNothing) {
  ExperimentConfig cfg = TinyConfig();
  cfg.duration = Duration::Minutes(2);
  // metrics disabled entirely
  SeedSweepRunner runner{{2}};
  const auto runs = runner.RunExperiments(cfg, ConsecutiveSeeds(1, 2));
  EXPECT_TRUE(MergeSweepMetrics(runs).empty());
}

// ---------------------------------------------------------------------------
// Provenance digests.

TEST(ConfigDigestTest, IgnoresSeedAndTelemetryGates) {
  ExperimentConfig a = TinyConfig();
  ExperimentConfig b = TinyConfig();
  b.seed = a.seed + 1234;
  b.telemetry = FullTelemetry();
  EXPECT_EQ(ConfigDigest(a), ConfigDigest(b));
}

TEST(ConfigDigestTest, SeesResultAffectingFields) {
  const ExperimentConfig base = TinyConfig();
  ExperimentConfig longer = TinyConfig();
  longer.duration = Duration::Minutes(9);
  EXPECT_NE(ConfigDigest(base), ConfigDigest(longer));

  ExperimentConfig bigger = TinyConfig();
  bigger.peer_nodes += 1;
  EXPECT_NE(ConfigDigest(base), ConfigDigest(bigger));
}

TEST(DeterminismDigestTest, EqualForEqualRunsDistinctForSeeds) {
  ExperimentConfig cfg = TinyConfig();
  cfg.duration = Duration::Minutes(4);
  Experiment a{cfg};
  Experiment b{cfg};
  a.Run();
  b.Run();
  EXPECT_EQ(DeterminismDigest(a), DeterminismDigest(b));

  cfg.seed += 1;
  Experiment c{cfg};
  c.Run();
  EXPECT_NE(DeterminismDigest(a), DeterminismDigest(c));
}

// ---------------------------------------------------------------------------
// Artifact writing.

TEST_F(ArtifactDirFixture, WriteRunArtifactsEmitsManifestAndStreams) {
  ExperimentConfig cfg = TinyConfig();
  cfg.duration = Duration::Minutes(3);
  cfg.telemetry = FullTelemetry();
  cfg.telemetry.provenance = cfg.telemetry.sample = cfg.telemetry.txprov = true;
  Experiment exp{cfg};
  exp.Run();

  std::string error;
  ASSERT_TRUE(WriteRunArtifacts(exp, dir_.string(), "telemetry_test", &error))
      << error;

  for (const char* name :
       {"manifest.json", "metrics.jsonl", "trace.json", "profile.jsonl",
        "provenance.bin", "timeseries.bin", "txprov.bin"})
    EXPECT_TRUE(std::filesystem::exists(dir_ / name)) << name;

  std::string manifest;
  ASSERT_TRUE(obs::ReadTextFile((dir_ / "manifest.json").string(), &manifest));
  obs::JsonValue doc;
  EXPECT_TRUE(obs::ParseJson(manifest, &doc)) << manifest;
  EXPECT_NE(manifest.find("\"schema\": \"ethsim-run-manifest-v1\""),
            std::string::npos);
  EXPECT_NE(manifest.find("\"tool\": \"telemetry_test\""), std::string::npos);
  EXPECT_NE(manifest.find(ToHex(ConfigDigest(cfg))), std::string::npos);
  EXPECT_NE(manifest.find(ToHex(DeterminismDigest(exp))), std::string::npos);

  // Every stream's file passes the run validator.
  const obs::ValidationResult result = obs::ValidateRunDir(dir_.string());
  EXPECT_EQ(result.exit_code(), 0)
      << (result.failures.empty() ? "" : result.failures.front());
}

TEST_F(ArtifactDirFixture, WriteRunArtifactsWithTelemetryOffStillWritesManifest) {
  ExperimentConfig cfg = TinyConfig();
  cfg.duration = Duration::Minutes(2);
  Experiment exp{cfg};
  exp.Run();

  std::string error;
  ASSERT_TRUE(WriteRunArtifacts(exp, dir_.string(), "telemetry_test", &error))
      << error;
  EXPECT_TRUE(std::filesystem::exists(dir_ / "manifest.json"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "metrics.jsonl"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "trace.json"));
}

TEST_F(ArtifactDirFixture, WriteRunArtifactsReportsFailingPath) {
  ExperimentConfig cfg = TinyConfig();
  cfg.duration = Duration::Minutes(2);
  Experiment exp{cfg};
  exp.Run();

  // A path under an existing *file* cannot be created as a directory.
  const std::filesystem::path blocker = dir_;
  std::filesystem::create_directories(blocker.parent_path());
  { std::ofstream out(blocker); out << "not a directory"; }
  const std::string target = (blocker / "sub").string();

  std::string error;
  EXPECT_FALSE(WriteRunArtifacts(exp, target, "telemetry_test", &error));
  EXPECT_NE(error.find(target), std::string::npos) << error;
}

}  // namespace
}  // namespace ethsim::core
