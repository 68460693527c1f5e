// Quickstart: build a small geo-distributed Ethereum overlay with the
// paper's mining-pool roster, run it for half a simulated hour, and print
// what the four vantage observers saw.
//
//   $ ./quickstart [minutes] [seed]
//
// Telemetry (optional, zero perturbation — same blocks either way), one
// command line:
//   $ ETHSIM_METRICS=1 ETHSIM_TRACE=block,mine ETHSIM_PROFILE=1
//     ETHSIM_PROVENANCE=1 ETHSIM_TELEMETRY_DIR=out ./quickstart
// writes out/metrics.jsonl, out/trace.json (load it in
// https://ui.perfetto.dev), out/profile.jsonl, out/provenance.bin (query it
// with ethsim_inspect) and out/manifest.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "analysis/geo.hpp"
#include "analysis/propagation.hpp"
#include "core/experiment.hpp"
#include "core/provenance.hpp"

using namespace ethsim;

int main(int argc, char** argv) {
  // 1. Configure. presets::SmallStudy gives a laptop-sized network with the
  //    paper's four vantages (NA, EA, WE, CE) and Fig 3 pool roster.
  core::ExperimentConfig cfg = core::presets::SmallStudy(/*nodes=*/80);
  cfg.duration = Duration::Minutes(argc > 1 ? std::atof(argv[1]) : 30.0);
  cfg.seed = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 1;
  cfg.workload.rate_per_sec = 0.5;  // transactions submitted network-wide
  cfg.telemetry = obs::TelemetryConfig::FromEnv();

  // 2. Run. The experiment wires the overlay, starts the PoW race and the
  //    transaction workload, and collects observer logs.
  core::Experiment exp{cfg};
  exp.Run();

  // 3. Inspect. Observer logs + the mint catalog feed the analysis library.
  std::printf("simulated %s: %zu blocks mined, head now at #%llu\n",
              FormatDuration(cfg.duration).c_str(), exp.minted().size(),
              static_cast<unsigned long long>(
                  exp.reference_tree().head_number()));
  std::printf("transactions submitted: %llu\n\n",
              static_cast<unsigned long long>(exp.workload().total_submitted()));

  analysis::ObserverSet observers;
  for (const auto& obs : exp.observers()) observers.push_back(obs.get());

  const auto propagation = analysis::BlockPropagationDelays(observers);
  std::printf("block propagation between vantages: median %.1f ms, p99 %.1f ms\n",
              propagation.median_ms, propagation.p99_ms);

  const auto geo = analysis::FirstObservationShares(observers);
  std::printf("first to observe new blocks:\n");
  for (std::size_t i = 0; i < geo.shares.size(); ++i) {
    const Duration offset = exp.observers()[i]->clock_offset();
    std::printf("  %-3s %5.1f%%  (clock offset %s)\n",
                geo.shares[i].vantage.c_str(), geo.shares[i].share * 100,
                FormatDuration(offset).c_str());
    // The §II caveat in action: a vantage that drew an NTP offset larger
    // than the typical propagation spread reports inflated/deflated shares.
    if (std::abs(offset.millis()) > 50.0)
      std::printf("      ^ NTP offset exceeds typical propagation spread — "
                  "this vantage's share is skewed (the paper's measurement-"
                  "error caveat)\n");
  }

  std::printf("\nEach vantage is an instrumented client (measure::Observer) "
              "whose log you can\nwalk directly:\n");
  const auto& ea = *exp.observers()[1];
  std::printf("  %s recorded %zu block messages and %zu transaction "
              "messages\n",
              ea.name().c_str(), ea.block_arrivals().size(),
              ea.tx_arrivals().size());

  // 4. Telemetry artifacts (only when any ETHSIM_* stream is enabled).
  if (exp.telemetry() != nullptr) {
    std::string dir = cfg.telemetry.output_dir;
    if (dir.empty()) dir = "quickstart-telemetry";
    std::string error;
    if (!core::WriteRunArtifacts(exp, dir, "quickstart", &error)) {
      std::fprintf(stderr, "error: telemetry artifacts: %s\n", error.c_str());
      return 1;
    }
    std::printf("\ntelemetry written to %s/ (trace.json loads in Perfetto; "
                "manifest.json pins config digest + seed)\n",
                dir.c_str());
    if (const obs::Tracer* tracer = exp.telemetry()->tracer())
      std::printf("  trace: %llu events emitted, %llu scrolled off the ring\n",
                  static_cast<unsigned long long>(tracer->emitted()),
                  static_cast<unsigned long long>(tracer->dropped()));
    if (const obs::ProvenanceRecorder* prov = exp.telemetry()->provenance())
      std::printf("  provenance: %llu relay edges, %llu invariant violations "
                  "(try: ethsim_inspect %s --block head --tree)\n",
                  static_cast<unsigned long long>(prov->edges_recorded()),
                  static_cast<unsigned long long>(prov->violations()),
                  dir.c_str());
  }
  return 0;
}
