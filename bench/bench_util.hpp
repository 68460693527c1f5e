// Shared glue for the per-figure bench binaries: standard banner, timing,
// telemetry gates and artifacts. StudyInputs come from
// check::MakeStudyInputs.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "check/oracles.hpp"
#include "core/experiment.hpp"
#include "core/provenance.hpp"
#include "obs/telemetry.hpp"

namespace ethsim::bench {

// Unsigned env override with a default (used for sweep seed/thread counts).
inline std::size_t EnvSizeT(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  const long long parsed = std::atoll(value);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

// Reads the ETHSIM_METRICS / ETHSIM_TRACE / ETHSIM_PROFILE gates into the
// bench's config. Off by default; enabling them never changes the numbers a
// bench prints (the determinism contract, see DESIGN.md § "Telemetry").
inline void ApplyTelemetryEnv(core::ExperimentConfig& cfg) {
  cfg.telemetry = obs::TelemetryConfig::FromEnv();
}

// When any telemetry stream is enabled, writes manifest.json + the stream
// artifacts beside the bench output (ETHSIM_TELEMETRY_DIR or
// "<tool>-telemetry"). Silent no-op with telemetry off, warning on I/O
// failure — a bench's tables should not die because a disk filled up.
inline void WriteBenchArtifacts(const core::Experiment& exp,
                                const std::string& tool) {
  if (exp.telemetry() == nullptr) return;
  std::string dir = exp.config().telemetry.output_dir;
  if (dir.empty()) dir = tool + "-telemetry";
  std::string error;
  if (!core::WriteRunArtifacts(exp, dir, tool, &error))
    std::fprintf(stderr, "warning: telemetry artifacts: %s\n", error.c_str());
  else
    std::printf("telemetry -> %s/ (config %.16s, seed %llu)\n", dir.c_str(),
                ToHex(core::ConfigDigest(exp.config())).c_str(),
                static_cast<unsigned long long>(exp.config().seed));
}

class Banner {
 public:
  explicit Banner(const std::string& title) : start_(Clock::now()) {
    std::printf("\n############ %s ############\n\n", title.c_str());
  }
  ~Banner() {
    const double s =
        std::chrono::duration<double>(Clock::now() - start_).count();
    std::printf("[bench complete in %.1f s]\n", s);
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

inline void PrintRunSummary(core::Experiment& exp) {
  const auto& cfg = exp.config();
  std::printf(
      "run: %zu nodes + %zu vantages, %.1f sim-hours, %zu blocks minted, "
      "head height +%llu, %llu events\n\n",
      cfg.peer_nodes, cfg.vantages.size(), cfg.duration.seconds() / 3600.0,
      exp.minted().size(),
      static_cast<unsigned long long>(exp.reference_tree().head_number() -
                                      cfg.genesis_number),
      static_cast<unsigned long long>(exp.simulator().events_executed()));
}

}  // namespace ethsim::bench
