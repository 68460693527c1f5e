#include "obs/run_manifest.hpp"

#include <fstream>
#include <sstream>

#include "obs/diag.hpp"
#include "obs/json.hpp"

#ifndef ETHSIM_GIT_SHA
#define ETHSIM_GIT_SHA "unknown"
#endif
#ifndef ETHSIM_BUILD_TYPE
#define ETHSIM_BUILD_TYPE "unknown"
#endif

namespace ethsim::obs {

namespace {

std::string CompilerId() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

}  // namespace

BuildInfo CurrentBuild() {
  BuildInfo info;
  info.git_sha = ETHSIM_GIT_SHA;
  info.build_type = ETHSIM_BUILD_TYPE;
  info.compiler = CompilerId();
  return info;
}

std::string ManifestToJson(const RunManifest& m) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": ";
  out << JsonString(m.schema);
  out << ",\n  \"tool\": ";
  out << JsonString(m.tool);
  out << ",\n  \"seed\": " << m.seed;
  out << ",\n  \"config_digest\": ";
  out << JsonString(m.config_digest);
  out << ",\n  \"determinism_digest\": ";
  out << JsonString(m.determinism_digest);
  out << ",\n  \"events_executed\": " << m.events_executed;
  out << ",\n  \"head_number\": " << m.head_number;
  out << ",\n  \"head_hash\": ";
  out << JsonString(m.head_hash);
  out << ",\n  \"sim_duration_s\": " << m.sim_duration_s;
  out << ",\n  \"telemetry\": {\"metrics\": " << (m.metrics_enabled ? "true" : "false")
      << ", \"trace\": " << (m.trace_enabled ? "true" : "false")
      << ", \"profile\": " << (m.profile_enabled ? "true" : "false")
      << ", \"provenance\": " << (m.provenance_enabled ? "true" : "false");
  if (m.sample_enabled) out << ", \"sample\": true";
  if (m.txprov_enabled) out << ", \"txprov\": true";
  out << "}";
  if (!m.watermarks.empty()) {
    out << ",\n  \"watermarks\": {";
    bool first = true;
    for (const SeriesWatermark& mark : m.watermarks) {
      if (!first) out << ", ";
      first = false;
      out << JsonString(mark.series);
      out << ": {\"peak\": " << mark.peak << ", \"at_us\": " << mark.at_us
          << "}";
    }
    out << "}";
  }
  out << ",\n  \"build\": {\"git_sha\": ";
  out << JsonString(m.build.git_sha);
  out << ", \"build_type\": ";
  out << JsonString(m.build.build_type);
  out << ", \"compiler\": ";
  out << JsonString(m.build.compiler);
  out << "}";
  if (!m.extra.empty()) {
    out << ",\n  \"extra\": {";
    bool first = true;
    for (const auto& [key, value] : m.extra) {
      if (!first) out << ", ";
      first = false;
      out << JsonString(key);
      out << ": ";
      out << JsonString(value);
    }
    out << "}";
  }
  out << "\n}\n";
  return out.str();
}

bool WriteManifest(const std::string& path, const RunManifest& manifest,
                   std::string* error) {
  std::ofstream out(path);
  if (out) out << ManifestToJson(manifest);
  if (!out.good()) {
    if (error != nullptr) *error = path;
    LogError("provenance", "failed writing manifest %s", path.c_str());
    return false;
  }
  return true;
}

}  // namespace ethsim::obs
