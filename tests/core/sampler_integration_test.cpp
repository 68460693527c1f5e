// End-to-end state-sampler contract tests:
//   * shape — a sampled run records the full probe set on the configured
//     cadence, baseline row included, as a pure function of config;
//   * artifacts — WriteRunArtifacts emits timeseries.bin beside the manifest,
//     the manifest carries telemetry.sample + per-series watermarks, and a
//     sampler-off manifest contains neither key (byte-compat rule);
//   * sweep merge — MergeSweepTimeSeries is invariant under the sweep's
//     thread count, like MergeSweepMetrics;
//   * fault alignment — a partitioned run records its executed partition
//     window in the manifest extras and the sampled series show the outage
//     (net.partition.active rises inside the window, stays zero outside).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/provenance.hpp"
#include "core/sweep.hpp"
#include "net/geo.hpp"

namespace ethsim::core {
namespace {

ExperimentConfig SampledConfig() {
  ExperimentConfig cfg = presets::SmallStudy(30);
  cfg.duration = Duration::Minutes(8);
  cfg.workload.rate_per_sec = 1.0;
  cfg.telemetry.sample = true;
  return cfg;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class SamplerArtifactFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ethsim_sampler_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// Recorded shape.

TEST(StateSamplerIntegration, RecordsConfiguredCadenceWithBaselineRow) {
  ExperimentConfig cfg = SampledConfig();
  cfg.telemetry.sample_interval_us = 500'000;
  Experiment exp{cfg};
  exp.Run();
  ASSERT_NE(exp.telemetry(), nullptr);
  const obs::StateSampler* sampler = exp.telemetry()->sampler();
  ASSERT_NE(sampler, nullptr);

  // 8 minutes at 500 ms -> 960 ticks + the t=0 baseline row.
  const obs::TimeSeriesLog& log = sampler->log();
  EXPECT_EQ(log.sample_count(), 961u);
  EXPECT_EQ(log.t_us.front(), 0);
  EXPECT_EQ(log.t_us.back(), cfg.duration.micros());
  for (std::size_t i = 1; i < log.sample_count(); ++i)
    ASSERT_EQ(log.t_us[i] - log.t_us[i - 1], 500'000) << "sample " << i;

  // The fleet-level probe set: present, and actually measuring something.
  for (const char* name :
       {"sim.queue.pending", "sim.arena.slots", "sim.arena.bytes",
        "net.inflight.msgs", "net.inflight.bytes", "txpool.pending.sum",
        "txpool.heads.sum", "chain.blocks.max", "chain.tree.bytes.sum",
        "chain.dag.bytes", "chain.txpool.bytes.sum", "chain.txstore.bytes",
        "eth.peers.sum", "eth.known.sum", "eth.known.bytes.sum",
        "measure.records.bytes", "miner.blocks_found",
        "miner.gateways.online"})
    EXPECT_NE(log.Find(name), obs::TimeSeriesLog::npos) << name;
  // No fault controller configured -> no fault series (series table is a
  // function of config, so the artifact shape stays seed-independent).
  EXPECT_EQ(log.Find("net.partition.active"), obs::TimeSeriesLog::npos);

  const auto blocks = log.Find("miner.blocks_found");
  ASSERT_NE(blocks, obs::TimeSeriesLog::npos);
  EXPECT_GT(log.values[blocks].back(), 0);
  EXPECT_EQ(static_cast<std::size_t>(log.values[blocks].back()),
            exp.minted().size());

  // The engine's slot chunks are never freed, so its bytes stay positive.
  EXPECT_GT(log.values[log.Find("sim.arena.bytes")].back(), 0);
  // The chain byte probes measure the views and the DAG they share.
  EXPECT_GT(log.values[log.Find("chain.tree.bytes.sum")].back(), 0);
  EXPECT_GT(log.values[log.Find("chain.dag.bytes")].back(), 0);
  // The tx byte probes measure the pools and the store whose ids they hold.
  // The store only grows, so its last sample is at most its final size.
  EXPECT_GT(log.values[log.Find("chain.txpool.bytes.sum")].back(), 0);
  const std::int64_t stored =
      log.values[log.Find("chain.txstore.bytes")].back();
  EXPECT_GT(stored, 0);
  EXPECT_LE(stored,
            static_cast<std::int64_t>(exp.tx_store().allocated_bytes()));
  // The vantage logs only grow, so the last sample (taken at the end time,
  // maybe before that instant's last arrivals) is positive and at most what
  // the vantages hold once the run is over.
  std::int64_t logged = 0;
  for (const auto& observer : exp.observers())
    logged += static_cast<std::int64_t>(observer->allocated_bytes());
  const std::int64_t sampled =
      log.values[log.Find("measure.records.bytes")].back();
  EXPECT_GT(sampled, 0);
  EXPECT_LE(sampled, logged);
}

TEST(StateSamplerIntegration, SamplerOffMeansNoSamplerObject) {
  ExperimentConfig cfg = SampledConfig();
  cfg.telemetry.sample = false;
  cfg.telemetry.metrics = true;  // telemetry exists, sampler must not
  Experiment exp{cfg};
  exp.Run();
  ASSERT_NE(exp.telemetry(), nullptr);
  EXPECT_EQ(exp.telemetry()->sampler(), nullptr);
}

// ---------------------------------------------------------------------------
// Artifacts + manifest folding.

TEST_F(SamplerArtifactFixture, WritesTimeseriesAndWatermarkedManifest) {
  ExperimentConfig cfg = SampledConfig();
  Experiment exp{cfg};
  exp.Run();
  std::string error;
  ASSERT_TRUE(WriteRunArtifacts(exp, dir_.string(), "sampler_test", &error))
      << error;

  obs::TimeSeriesLog loaded;
  ASSERT_TRUE(obs::TimeSeriesLog::ReadBinary(
      (dir_ / "timeseries.bin").string(), &loaded, &error))
      << error;
  EXPECT_EQ(loaded.names, exp.telemetry()->sampler()->log().names);
  EXPECT_EQ(loaded.values, exp.telemetry()->sampler()->log().values);

  const std::string manifest = ReadFile(dir_ / "manifest.json");
  EXPECT_NE(manifest.find("\"sample\": true"), std::string::npos);
  EXPECT_NE(manifest.find("\"watermarks\": {"), std::string::npos);
  EXPECT_NE(manifest.find("\"sim.queue.pending\": {\"peak\": "),
            std::string::npos);
  EXPECT_NE(manifest.find("\"sample_interval_us\": \"250000\""),
            std::string::npos);
  EXPECT_NE(manifest.find("\"samples\": \"1921\""), std::string::npos);
}

TEST_F(SamplerArtifactFixture, SamplerOffManifestHasNoSampleKeys) {
  ExperimentConfig cfg = SampledConfig();
  cfg.telemetry.sample = false;
  cfg.telemetry.metrics = true;
  Experiment exp{cfg};
  exp.Run();
  std::string error;
  ASSERT_TRUE(WriteRunArtifacts(exp, dir_.string(), "sampler_test", &error))
      << error;
  const std::string manifest = ReadFile(dir_ / "manifest.json");
  EXPECT_EQ(manifest.find("\"sample\""), std::string::npos);
  EXPECT_EQ(manifest.find("watermarks"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "timeseries.bin"));
}

// ---------------------------------------------------------------------------
// Sweep merge invariance.

TEST(MergeSweepTimeSeries, InvariantUnderThreadCount) {
  const ExperimentConfig cfg = SampledConfig();
  const auto seeds = ConsecutiveSeeds(cfg.seed, 4);

  SeedSweepRunner serial{{1}};
  SeedSweepRunner parallel{{4}};
  const auto runs_serial = serial.RunExperiments(cfg, seeds);
  const auto runs_parallel = parallel.RunExperiments(cfg, seeds);

  const obs::TimeSeriesLog a = MergeSweepTimeSeries(runs_serial);
  const obs::TimeSeriesLog b = MergeSweepTimeSeries(runs_parallel);
  ASSERT_GT(a.sample_count(), 0u);
  EXPECT_EQ(a.interval_us, b.interval_us);
  EXPECT_EQ(a.names, b.names);
  EXPECT_EQ(a.t_us, b.t_us);
  EXPECT_EQ(a.values, b.values);

  // The merge really pooled seeds: a merged extensive series (sum over
  // nodes, summed again over seeds) dominates any single member's.
  const auto known = a.Find("eth.known.sum");
  ASSERT_NE(known, obs::TimeSeriesLog::npos);
  const obs::TimeSeriesLog& first =
      runs_serial[0]->telemetry()->sampler()->log();
  EXPECT_GT(a.values[known].back(), first.values[known].back());
}

TEST(MergeSweepTimeSeries, PoolsRaggedMemberLengthsWithoutOverruns) {
  // Members that sampled for different spans (here: a duration sweep) must
  // still pool in strict vector order — sum over the shared time prefix,
  // keep the longest tail, never read past a shorter member's columns.
  std::vector<std::unique_ptr<Experiment>> runs;
  for (const int minutes : {2, 4, 3}) {  // longest member is in the middle
    ExperimentConfig cfg = presets::SmallStudy(12);
    cfg.duration = Duration::Minutes(minutes);
    cfg.workload.rate_per_sec = 1.0;
    cfg.telemetry.sample = true;
    runs.push_back(std::make_unique<Experiment>(cfg));
    runs.back()->Run();
  }
  const obs::TimeSeriesLog merged = MergeSweepTimeSeries(runs);
  const obs::TimeSeriesLog& m0 = runs[0]->telemetry()->sampler()->log();
  const obs::TimeSeriesLog& m1 = runs[1]->telemetry()->sampler()->log();
  const obs::TimeSeriesLog& m2 = runs[2]->telemetry()->sampler()->log();
  ASSERT_GT(m1.sample_count(), m2.sample_count());
  ASSERT_GT(m2.sample_count(), m0.sample_count());

  // The longest member defines the pooled time column and the table shape.
  EXPECT_EQ(merged.t_us, m1.t_us);
  EXPECT_EQ(merged.names, m0.names);
  for (std::size_t s = 0; s < merged.series_count(); ++s)
    for (std::size_t i = 0; i < merged.sample_count(); ++i) {
      std::int64_t want = 0;
      for (const obs::TimeSeriesLog* m : {&m0, &m1, &m2})
        if (i < m->sample_count()) want += m->values[s][i];
      ASSERT_EQ(merged.values[s][i], want)
          << merged.names[s] << " sample " << i;
    }
}

TEST(MergeSweepTimeSeries, EmptyWhenNoMemberSampled) {
  ExperimentConfig cfg = SampledConfig();
  cfg.telemetry.sample = false;
  cfg.duration = Duration::Minutes(2);
  SeedSweepRunner runner{{2}};
  const auto runs = runner.RunExperiments(cfg, ConsecutiveSeeds(cfg.seed, 2));
  const obs::TimeSeriesLog merged = MergeSweepTimeSeries(runs);
  EXPECT_EQ(merged.series_count(), 0u);
  EXPECT_EQ(merged.sample_count(), 0u);
}

// ---------------------------------------------------------------------------
// Fault-window alignment.

TEST_F(SamplerArtifactFixture, PartitionWindowShowsUpInSeriesAndManifest) {
  ExperimentConfig cfg = SampledConfig();
  const TimePoint start = TimePoint::FromMicros(cfg.duration.micros() / 3);
  const Duration window = Duration::Micros(cfg.duration.micros() / 3);
  const std::uint32_t apac_mask =
      (1u << static_cast<unsigned>(net::Region::EasternAsia)) |
      (1u << static_cast<unsigned>(net::Region::SoutheastAsia)) |
      (1u << static_cast<unsigned>(net::Region::Oceania));
  cfg.fault_plan.RegionalPartition(start, window, apac_mask);

  Experiment exp{cfg};
  exp.Run();
  const obs::TimeSeriesLog& log = exp.telemetry()->sampler()->log();
  const auto active = log.Find("net.partition.active");
  ASSERT_NE(active, obs::TimeSeriesLog::npos);
  // 0/1 gauge: zero before the window, one strictly inside, zero after.
  const std::int64_t end_us = start.micros() + window.micros();
  for (std::size_t i = 0; i < log.sample_count(); ++i) {
    const std::int64_t t = log.t_us[i];
    const bool inside = t > start.micros() && t < end_us;
    const bool outside = t < start.micros() || t > end_us;
    if (inside) {
      EXPECT_EQ(log.values[active][i], 1) << "t_us " << t;
    } else if (outside) {
      EXPECT_EQ(log.values[active][i], 0) << "t_us " << t;
    }
  }

  std::string error;
  ASSERT_TRUE(WriteRunArtifacts(exp, dir_.string(), "sampler_test", &error))
      << error;
  const std::string manifest = ReadFile(dir_ / "manifest.json");
  const std::string expected = "\"partition_window.0\": \"" +
                               std::to_string(start.micros()) + ".." +
                               std::to_string(end_us) + "\"";
  EXPECT_NE(manifest.find(expected), std::string::npos) << manifest;
}

}  // namespace
}  // namespace ethsim::core
