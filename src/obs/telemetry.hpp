// Telemetry facade: one object bundling the six instruments —
//   * MetricsRegistry     (sim-clock, deterministic)      -> metrics.jsonl
//   * Tracer              (sim-clock, deterministic)      -> trace.json
//   * EngineProfiler      (wall-clock, nondeterministic)  -> profile.jsonl
//   * ProvenanceRecorder  (sim-clock, deterministic)      -> provenance.bin
//   * StateSampler        (sim-clock, deterministic)      -> timeseries.bin
//   * TxProvRecorder      (sim-clock, deterministic)      -> txprov.bin
// plus the config that gates them. Components accept a `Telemetry*`; a null
// pointer (or a facade with everything disabled) costs exactly one predicted
// branch on hot paths. Telemetry never draws from any Rng and never schedules
// events, so enabling it cannot perturb a run's event order or results.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance_dag.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "obs/tx_provenance.hpp"

namespace ethsim::obs {

struct TelemetryConfig {
  bool metrics = false;
  bool trace = false;
  bool profile = false;
  std::uint32_t trace_categories = kAllTraceCategories;
  // Ring capacity in events (64 bytes each): 1M events ≈ 64 MB, enough for
  // the tail of a month-scale run without OOM.
  std::size_t trace_capacity = 1u << 20;
  std::uint64_t profile_sample_every = 1u << 16;
  // Dissemination-provenance recorder (obs/provenance_dag): every gossip
  // edge into provenance.bin, with the runtime invariant checker riding the
  // stream. `provenance_strict` escalates invariant violations to abort.
  bool provenance = false;
  bool provenance_strict = false;
  // State-sampling flight recorder (obs/sampler): engine/backlog probes
  // sampled on a sim-clock cadence into timeseries.bin, watermarks folded
  // into the manifest. The cadence default (250 ms sim) gives ~5k rows per
  // simulated 20-minute smoke — fine-grained enough to see a partition
  // window, small enough to never dominate the artifact set.
  bool sample = false;
  std::int64_t sample_interval_us = 250'000;
  // Transaction-lifecycle flight recorder (obs/tx_provenance): every stage
  // transition of every transaction into txprov.bin, with the runtime
  // invariant checker riding the stream. `txprov_strict` escalates invariant
  // violations to abort.
  bool txprov = false;
  bool txprov_strict = false;
  // Artifact directory for WriteArtifacts-style helpers; empty = caller's
  // choice (entry points default next to their other outputs).
  std::string output_dir;

  bool any() const {
    return metrics || trace || profile || provenance || sample || txprov;
  }

  // Environment gates:
  //   ETHSIM_METRICS=1            enable the metrics registry
  //   ETHSIM_TRACE=1|block,net    enable tracing (value = category filter)
  //   ETHSIM_PROFILE=1            enable the wall-clock engine profiler
  //   ETHSIM_PROVENANCE=1|strict  record gossip provenance (strict: abort on
  //                               invariant violations)
  //   ETHSIM_TRACE_CAPACITY=N     ring capacity in events
  //   ETHSIM_SAMPLE=1|interval_ms state-sampling flight recorder (a numeric
  //                               value overrides the 250 ms cadence)
  //   ETHSIM_TXPROV=1|strict      record per-transaction lifecycle stages
  //                               (strict: abort on invariant violations)
  //   ETHSIM_TELEMETRY_DIR=path   artifact directory
  static TelemetryConfig FromEnv();
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config);
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  const TelemetryConfig& config() const { return config_; }

  // Null when the corresponding stream is disabled — hot paths branch on
  // these pointers exactly once.
  MetricsRegistry* metrics() { return metrics_.get(); }
  const MetricsRegistry* metrics() const { return metrics_.get(); }
  Tracer* tracer() { return tracer_.get(); }
  const Tracer* tracer() const { return tracer_.get(); }
  EngineProfiler* profiler() { return profiler_.get(); }
  const EngineProfiler* profiler() const { return profiler_.get(); }
  ProvenanceRecorder* provenance() { return provenance_.get(); }
  const ProvenanceRecorder* provenance() const { return provenance_.get(); }
  StateSampler* sampler() { return sampler_.get(); }
  const StateSampler* sampler() const { return sampler_.get(); }
  TxProvRecorder* txprov() { return txprov_.get(); }
  const TxProvRecorder* txprov() const { return txprov_.get(); }

  // Writes the enabled streams into `dir` (created if missing) as
  // metrics.jsonl / trace.json / profile.jsonl / provenance.bin /
  // timeseries.bin / txprov.bin. Returns
  // false and fills `error` (when non-null) with the failing path on I/O
  // errors. Writing provenance finishes the recorder; further recording
  // afterwards is a programming error.
  bool WriteArtifacts(const std::string& dir,
                      std::string* error = nullptr) const;

 private:
  TelemetryConfig config_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<EngineProfiler> profiler_;
  std::unique_ptr<ProvenanceRecorder> provenance_;
  std::unique_ptr<StateSampler> sampler_;
  std::unique_ptr<TxProvRecorder> txprov_;
};

}  // namespace ethsim::obs
