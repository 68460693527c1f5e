// Resilience scenario: a regional partition splits East Asia + Southeast
// Asia + Oceania from the rest of the overlay for the middle third of the
// run, then heals. The same (config, seed) runs once with the fault plan and
// once without; the resilience analysis slices both against the partition
// window and reports the fork-rate and propagation-p95 inflation the split
// caused — the quantitative form of the paper's §III-A2 argument that gossip
// redundancy is what buys partition tolerance.
//
// Env knobs (all optional):
//   ETHSIM_RESILIENCE_NODES    plain-node count          (default 60)
//   ETHSIM_RESILIENCE_MINUTES  simulated minutes         (default 30)
//   ETHSIM_RESILIENCE_SEED     experiment seed           (default 42)
//   ETHSIM_BENCH_JSON          write a machine-readable summary here
//   ETHSIM_METRICS/TRACE/...   standard telemetry gates (faulted run only)
#include <cstdio>
#include <string>

#include "analysis/forks.hpp"
#include "analysis/resilience.hpp"
#include "bench_util.hpp"
#include "fault/controller.hpp"

using namespace ethsim;

namespace {

void WriteJsonSummary(const analysis::ResilienceReport& report,
                      const fault::FaultStats& stats) {
  const char* env = std::getenv("ETHSIM_BENCH_JSON");
  if (env == nullptr || env[0] == '\0') return;
  std::FILE* f = std::fopen(env, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "resilience_partition: cannot write %s\n", env);
    return;
  }
  // A "resilience" section (not "benchmarks"): bench_compare.py skips it
  // until a baseline schema exists.
  std::fprintf(f,
               "{\n  \"resilience\": {\n"
               "    \"window_start_s\": %.0f,\n"
               "    \"window_end_s\": %.0f,\n"
               "    \"faulted\": {\"minted\": %zu, \"forked\": %zu, "
               "\"fork_rate\": %.4f, \"delay_p95_ms\": %.1f},\n"
               "    \"control\": {\"minted\": %zu, \"forked\": %zu, "
               "\"fork_rate\": %.4f, \"delay_p95_ms\": %.1f},\n"
               "    \"fork_rate_inflation\": %.3f,\n"
               "    \"delay_p95_inflation\": %.3f,\n"
               "    \"partitions_healed\": %llu\n"
               "  }\n}\n",
               report.faulted.start.seconds(), report.faulted.end.seconds(),
               report.faulted.blocks_minted, report.faulted.fork_blocks,
               report.faulted.fork_rate, report.faulted.delay_p95_ms,
               report.control.blocks_minted, report.control.fork_blocks,
               report.control.fork_rate, report.control.delay_p95_ms,
               report.fork_rate_inflation, report.delay_p95_inflation,
               static_cast<unsigned long long>(stats.partitions_healed));
  std::fclose(f);
  std::fprintf(stderr, "resilience_partition: wrote %s\n", env);
}

}  // namespace

int main() {
  bench::Banner banner{"Resilience - regional partition vs fault-free control"};

  const std::size_t nodes = bench::EnvSizeT("ETHSIM_RESILIENCE_NODES", 60);
  const std::size_t minutes = bench::EnvSizeT("ETHSIM_RESILIENCE_MINUTES", 30);
  const std::uint64_t seed = bench::EnvSizeT("ETHSIM_RESILIENCE_SEED", 42);

  core::ExperimentConfig cfg = core::presets::SmallStudy(nodes);
  cfg.duration = Duration::Minutes(static_cast<double>(minutes));
  cfg.seed = seed;

  // Partition window: the middle third of the run, Asia-Pacific vs the rest.
  const TimePoint start = TimePoint::FromMicros(cfg.duration.micros() / 3);
  const Duration window = Duration::Micros(cfg.duration.micros() / 3);
  const std::uint32_t apac_mask =
      (1u << static_cast<unsigned>(net::Region::EasternAsia)) |
      (1u << static_cast<unsigned>(net::Region::SoutheastAsia)) |
      (1u << static_cast<unsigned>(net::Region::Oceania));

  core::ExperimentConfig faulted_cfg = cfg;
  faulted_cfg.fault_plan.RegionalPartition(start, window, apac_mask);
  bench::ApplyTelemetryEnv(faulted_cfg);  // telemetry on the faulted run only

  std::printf("faulted run (partition [%.0f s, %.0f s), mask EA|SEA|OC)...\n",
              start.seconds(), (start + window).seconds());
  core::Experiment faulted{faulted_cfg};
  faulted.Run();
  bench::PrintRunSummary(faulted);

  std::printf("control run (identical config + seed, empty fault plan)...\n");
  core::Experiment control{cfg};
  control.Run();
  bench::PrintRunSummary(control);

  const analysis::ResilienceReport report = analysis::CompareResilience(
      check::MakeStudyInputs(faulted), check::MakeStudyInputs(control), start,
      start + window);
  std::printf("%s\n", analysis::RenderResilience(report).c_str());

  // Whole-run fork census for context (the window slice is the headline).
  const analysis::ForkCensus faulted_census =
      analysis::ComputeForkCensus(check::MakeStudyInputs(faulted));
  const analysis::ForkCensus control_census =
      analysis::ComputeForkCensus(check::MakeStudyInputs(control));
  std::printf(
      "whole-run fork share: faulted %.2f%% vs control %.2f%% "
      "(%zu vs %zu blocks)\n",
      (1.0 - faulted_census.main_share) * 100.0,
      (1.0 - control_census.main_share) * 100.0, faulted_census.total_blocks,
      control_census.total_blocks);

  const fault::FaultController* controller = faulted.fault();
  const fault::FaultStats& stats = controller->stats();
  std::printf("fault controller: %llu event(s) injected, %llu heal(s)\n",
              static_cast<unsigned long long>(stats.total_injected()),
              static_cast<unsigned long long>(stats.partitions_healed));
  const std::string drops = faulted.network().RenderDropReport();
  if (!drops.empty()) std::printf("faulted run %s\n", drops.c_str());

  std::printf(
      "\nexpected shape: blocks minted during the split fork at a multiple\n"
      "of the baseline rate (each side extends its own chain), and the\n"
      "cross-vantage p95 inflates because APAC vantages only hear the other\n"
      "side's blocks after the heal; the drop census attributes every lost\n"
      "message to the partition.\n");

  WriteJsonSummary(report, stats);
  bench::WriteBenchArtifacts(faulted, "resilience_partition");
  return 0;
}
