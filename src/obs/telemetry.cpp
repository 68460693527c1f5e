#include "obs/telemetry.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "obs/diag.hpp"

namespace ethsim::obs {

namespace {

bool EnvTruthy(const char* value) {
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

}  // namespace

TelemetryConfig TelemetryConfig::FromEnv() {
  TelemetryConfig cfg;
  const char* metrics = std::getenv("ETHSIM_METRICS");
  cfg.metrics = EnvTruthy(metrics);
  const char* trace = std::getenv("ETHSIM_TRACE");
  if (EnvTruthy(trace)) {
    cfg.trace = true;
    cfg.trace_categories = ParseTraceCategories(trace);
  }
  cfg.profile = EnvTruthy(std::getenv("ETHSIM_PROFILE"));
  if (const char* prov = std::getenv("ETHSIM_PROVENANCE"); EnvTruthy(prov)) {
    cfg.provenance = true;
    cfg.provenance_strict = std::string_view(prov) == "strict";
  }
  if (const char* sample = std::getenv("ETHSIM_SAMPLE"); EnvTruthy(sample)) {
    cfg.sample = true;
    // "1" means "on, default cadence"; any other positive number is an
    // interval override in sim-milliseconds.
    char* end = nullptr;
    const long long parsed_ms = std::strtoll(sample, &end, 10);
    if (end != sample && *end == '\0' && parsed_ms > 1)
      cfg.sample_interval_us = parsed_ms * 1000;
  }
  if (const char* txprov = std::getenv("ETHSIM_TXPROV"); EnvTruthy(txprov)) {
    cfg.txprov = true;
    cfg.txprov_strict = std::string_view(txprov) == "strict";
  }
  if (const char* cap = std::getenv("ETHSIM_TRACE_CAPACITY");
      cap != nullptr && cap[0] != '\0') {
    const long long parsed = std::atoll(cap);
    if (parsed > 0) cfg.trace_capacity = static_cast<std::size_t>(parsed);
  }
  if (const char* dir = std::getenv("ETHSIM_TELEMETRY_DIR");
      dir != nullptr && dir[0] != '\0') {
    cfg.output_dir = dir;
  }
  return cfg;
}

Telemetry::Telemetry(TelemetryConfig config) : config_(std::move(config)) {
  if (config_.metrics) metrics_ = std::make_unique<MetricsRegistry>();
  if (config_.trace)
    tracer_ = std::make_unique<Tracer>(config_.trace_categories,
                                       config_.trace_capacity);
  if (config_.profile)
    profiler_ = std::make_unique<EngineProfiler>(config_.profile_sample_every);
  if (config_.provenance) {
    ProvenanceConfig prov;
    prov.fatal_invariants = config_.provenance_strict;
    provenance_ = std::make_unique<ProvenanceRecorder>(prov);
    provenance_->AttachMetrics(metrics_.get());
  }
  if (config_.sample)
    sampler_ = std::make_unique<StateSampler>(config_.sample_interval_us);
  if (config_.txprov) {
    TxProvConfig tx;
    tx.fatal_invariants = config_.txprov_strict;
    txprov_ = std::make_unique<TxProvRecorder>(tx);
    txprov_->AttachMetrics(metrics_.get());
  }
}

bool Telemetry::WriteArtifacts(const std::string& dir,
                               std::string* error) const {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) *error = dir + ": " + ec.message();
    LogError("telemetry", "cannot create %s: %s", dir.c_str(),
             ec.message().c_str());
    return false;
  }
  const auto write = [&](const char* file, const auto& writer) {
    const std::string path = (fs::path(dir) / file).string();
    std::ofstream out(path);
    if (out) writer(out);
    if (!out.good()) {
      if (error != nullptr) *error = path;
      LogError("telemetry", "failed writing %s", path.c_str());
      return false;
    }
    return true;
  };
  if (metrics_ &&
      !write("metrics.jsonl",
             [&](std::ostream& out) { metrics_->WriteJsonl(out); }))
    return false;
  if (tracer_ && !write("trace.json", [&](std::ostream& out) {
        tracer_->WriteChromeTrace(out);
      }))
    return false;
  if (profiler_ && !write("profile.jsonl", [&](std::ostream& out) {
        profiler_->WriteJsonl(out);
      }))
    return false;
  const auto write_log = [&](const char* file, const auto& log) {
    std::string log_error;
    if (log.WriteBinary((fs::path(dir) / file).string(), &log_error))
      return true;
    if (error != nullptr) *error = log_error;
    LogError("telemetry", "failed writing %s", log_error.c_str());
    return false;
  };
  return (!provenance_ || write_log("provenance.bin", provenance_->Finish())) &&
         (!sampler_ || write_log("timeseries.bin", sampler_->log())) &&
         (!txprov_ || write_log("txprov.bin", txprov_->Finish()));
}

}  // namespace ethsim::obs
