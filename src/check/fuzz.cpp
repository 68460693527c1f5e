#include "check/fuzz.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "check/metamorphic.hpp"
#include "check/shrink.hpp"
#include "common/types.hpp"
#include "core/experiment.hpp"
#include "core/provenance.hpp"
#include "obs/json.hpp"

namespace ethsim::check {

namespace {

struct ScenarioFate {
  bool failed = false;
  std::string kind;    // "oracle" | "relation"
  std::string name;    // which one
  std::string detail;  // first failure's description
};

// One JSONL line per scenario verdict (and a second per shrink result).
void ReportLine(std::ofstream& report, const Scenario& scenario,
                const core::ExperimentConfig& cfg, const ScenarioFate& fate) {
  report << "{\"scenario\": " << scenario.index
         << ", \"fuzz_seed\": " << scenario.fuzz_seed
         << ", \"config_seed\": " << cfg.seed << ", \"config_digest\": \""
         << ToHex(core::ConfigDigest(cfg)) << "\", \"nodes\": "
         << cfg.peer_nodes << ", \"duration_s\": "
         << cfg.duration.micros() / 1'000'000;
  if (!fate.failed) {
    report << ", \"status\": \"pass\"}\n";
    return;
  }
  report << ", \"status\": \"fail\", \"kind\": " << obs::JsonString(fate.kind)
         << ", \"name\": " << obs::JsonString(fate.name)
         << ", \"detail\": " << obs::JsonString(fate.detail) << "}\n";
}

std::string FirstOracleFailure(core::Experiment& exp,
                               const OracleOptions& options,
                               const std::string& oracle) {
  for (const OracleFailure& failure : RunOracles(exp, options))
    if (failure.oracle == oracle) return failure.detail;
  return {};
}

// Shrink probes: a candidate config "still fails" only when the *same*
// oracle (or relation) fires again — chasing a different failure would
// minimize toward a different bug.
FailureProbe OracleProbe(const OracleOptions& options,
                         const std::string& oracle) {
  return [options, oracle](const core::ExperimentConfig& cfg) -> std::string {
    core::Experiment exp{cfg};
    exp.Run();
    return FirstOracleFailure(exp, options, oracle);
  };
}

FailureProbe RelationProbe(const std::string& relation) {
  return [relation](const core::ExperimentConfig& cfg) -> std::string {
    const RelationResult result = RunRelation(cfg, relation);
    return result.passed ? std::string{} : result.detail;
  };
}

}  // namespace

FuzzOutcome RunFuzz(const FuzzOptions& options) {
  std::filesystem::create_directories(options.out_dir);
  FuzzOutcome outcome;
  outcome.report_path = options.out_dir + "/fuzz_report.jsonl";
  std::ofstream report(outcome.report_path, std::ios::trunc);

  for (std::size_t i = 0; i < options.runs; ++i) {
    const Scenario scenario =
        GenerateScenario(options.seed, i, options.scenario);
    std::fprintf(stderr,
                 "[fuzz] scenario %zu/%zu: %zu nodes, %" PRId64
                 " s, %zu fault events, %zu sources\n",
                 i + 1, options.runs, scenario.config.peer_nodes,
                 scenario.config.duration.micros() / 1'000'000,
                 scenario.config.fault_plan.events.size(),
                 scenario.config.workload_plan.sources.size());

    ScenarioFate fate;
    {
      core::Experiment exp{scenario.config};
      exp.Run();
      const std::vector<OracleFailure> failures =
          RunOracles(exp, options.oracles);
      if (!failures.empty()) {
        fate = {true, "oracle", failures.front().oracle,
                failures.front().detail};
      }
    }
    if (!fate.failed && options.metamorphic) {
      for (const RelationResult& result : RunMetamorphic(scenario.config)) {
        if (result.passed) continue;
        fate = {true, "relation", result.relation, result.detail};
        break;
      }
    }
    ++outcome.scenarios;
    ReportLine(report, scenario, scenario.config, fate);
    if (!fate.failed) continue;

    ++outcome.failures;
    std::fprintf(stderr, "[fuzz] FAIL scenario %zu: %s '%s' (%s)\n", i,
                 fate.kind.c_str(), fate.name.c_str(), fate.detail.c_str());

    const bool is_oracle = fate.kind == "oracle";
    const ShrinkResult shrunk =
        Shrink(scenario.config,
               is_oracle ? OracleProbe(options.oracles, fate.name)
                         : RelationProbe(fate.name),
               is_oracle ? options.shrink_evaluations
                         : options.shrink_evaluations / 2);

    ReproSpec spec;
    spec.fuzz_seed = scenario.fuzz_seed;
    spec.index = scenario.index;
    spec.kind = fate.kind;
    spec.name = fate.name;
    spec.config_digest = ToHex(core::ConfigDigest(shrunk.config));
    spec.scenario = options.scenario;
    spec.mutations = shrunk.mutations;
    const std::string repro_path =
        options.out_dir + "/repro-" + std::to_string(i) + ".json";
    std::string error;
    if (!WriteRepro(repro_path, spec, &error)) {
      std::fprintf(stderr, "[fuzz] cannot write repro: %s\n", error.c_str());
    } else {
      outcome.repro_paths.push_back(repro_path);
      report << "{\"scenario\": " << i << ", \"status\": \"shrunk\", "
             << "\"repro\": " << obs::JsonString(repro_path) << ", "
             << "\"shrunk_nodes\": " << shrunk.config.peer_nodes << ", "
             << "\"shrunk_duration_s\": "
             << shrunk.config.duration.micros() / 1'000'000 << ", "
             << "\"mutations\": " << shrunk.mutations.size() << ", "
             << "\"evaluations\": " << shrunk.evaluations << "}\n";
      std::fprintf(stderr,
                   "[fuzz] shrunk to %zu nodes / %" PRId64
                   " s in %zu evaluations\n"
                   "[fuzz] reproduce with: ethsim_fuzz --repro %s\n",
                   shrunk.config.peer_nodes,
                   shrunk.config.duration.micros() / 1'000'000,
                   shrunk.evaluations, repro_path.c_str());
    }
  }
  return outcome;
}

core::ExperimentConfig ReproConfig(const ReproSpec& spec) {
  Scenario scenario =
      GenerateScenario(spec.fuzz_seed, spec.index, spec.scenario);
  for (const std::string& mutation : spec.mutations)
    ApplyMutation(scenario.config, mutation);
  return std::move(scenario.config);
}

bool WriteRepro(const std::string& path, const ReproSpec& spec,
                std::string* error) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << "{\n"
      << "  \"fuzz_seed\": " << spec.fuzz_seed << ",\n"
      << "  \"index\": " << spec.index << ",\n"
      << "  \"kind\": " << obs::JsonString(spec.kind) << ",\n"
      << "  \"name\": " << obs::JsonString(spec.name) << ",\n"
      << "  \"config_digest\": " << obs::JsonString(spec.config_digest)
      << ",\n"
      << "  \"min_nodes\": " << spec.scenario.min_nodes << ",\n"
      << "  \"max_nodes\": " << spec.scenario.max_nodes << ",\n"
      << "  \"min_minutes\": " << spec.scenario.min_minutes << ",\n"
      << "  \"max_minutes\": " << spec.scenario.max_minutes << ",\n"
      << "  \"mutations\": [";
  for (std::size_t i = 0; i < spec.mutations.size(); ++i)
    out << (i == 0 ? "" : ", ") << obs::JsonString(spec.mutations[i]);
  out << "]\n}\n";
  out.flush();
  if (!out.good()) {
    if (error != nullptr) *error = "short write to " + path;
    return false;
  }
  return true;
}

namespace {

// Line-scraping JSON readers, the manifest-reader idiom: the writer above
// owns the exact shape, so a full JSON parser buys nothing.
bool ScrapeU64(const std::string& text, const std::string& key,
               std::uint64_t* value) {
  const auto pos = text.find("\"" + key + "\":");
  if (pos == std::string::npos) return false;
  const char* cursor = text.c_str() + pos + key.size() + 3;
  char* end = nullptr;
  *value = std::strtoull(cursor, &end, 10);
  return end != cursor;
}

bool ScrapeString(const std::string& text, const std::string& key,
                  std::string* value) {
  const auto pos = text.find("\"" + key + "\":");
  if (pos == std::string::npos) return false;
  const auto open = text.find('"', pos + key.size() + 3);
  if (open == std::string::npos) return false;
  const auto close = text.find('"', open + 1);
  if (close == std::string::npos) return false;
  *value = text.substr(open + 1, close - open - 1);
  return true;
}

}  // namespace

bool ReadRepro(const std::string& path, ReproSpec* spec, std::string* error) {
  std::string text;
  if (!obs::ReadTextFile(path, &text, error)) return false;

  std::uint64_t u = 0;
  if (!ScrapeU64(text, "fuzz_seed", &spec->fuzz_seed) ||
      !ScrapeU64(text, "index", &spec->index) ||
      !ScrapeString(text, "kind", &spec->kind) ||
      !ScrapeString(text, "name", &spec->name)) {
    if (error != nullptr) *error = path + " is not a repro file";
    return false;
  }
  ScrapeString(text, "config_digest", &spec->config_digest);
  if (ScrapeU64(text, "min_nodes", &u)) spec->scenario.min_nodes = u;
  if (ScrapeU64(text, "max_nodes", &u)) spec->scenario.max_nodes = u;
  if (ScrapeU64(text, "min_minutes", &u))
    spec->scenario.min_minutes = static_cast<std::int64_t>(u);
  if (ScrapeU64(text, "max_minutes", &u))
    spec->scenario.max_minutes = static_cast<std::int64_t>(u);

  spec->mutations.clear();
  const auto list_pos = text.find("\"mutations\":");
  if (list_pos != std::string::npos) {
    const auto open = text.find('[', list_pos);
    const auto close = text.find(']', list_pos);
    if (open != std::string::npos && close != std::string::npos) {
      std::size_t cursor = open;
      while (true) {
        const auto quote = text.find('"', cursor + 1);
        if (quote == std::string::npos || quote > close) break;
        const auto end_quote = text.find('"', quote + 1);
        if (end_quote == std::string::npos || end_quote > close) break;
        spec->mutations.push_back(text.substr(quote + 1, end_quote - quote - 1));
        cursor = end_quote;
      }
    }
  }
  return true;
}

int RunRepro(const ReproSpec& spec, const OracleOptions& oracles) {
  const core::ExperimentConfig cfg = ReproConfig(spec);
  std::fprintf(stderr,
               "[repro] scenario %" PRIu64 " of seed %" PRIu64
               ", %zu mutations -> %zu nodes, %" PRId64 " s; checking %s '%s'\n",
               spec.index, spec.fuzz_seed, spec.mutations.size(),
               cfg.peer_nodes, cfg.duration.micros() / 1'000'000,
               spec.kind.c_str(), spec.name.c_str());
  std::string detail;
  if (spec.kind == "relation") {
    const RelationResult result = RunRelation(cfg, spec.name);
    if (!result.passed) detail = result.detail;
  } else {
    core::Experiment exp{cfg};
    exp.Run();
    detail = FirstOracleFailure(exp, oracles, spec.name);
  }
  if (detail.empty()) {
    std::fprintf(stderr, "[repro] %s '%s' passes now\n", spec.kind.c_str(),
                 spec.name.c_str());
    return 0;
  }
  std::fprintf(stderr, "[repro] still failing: %s\n", detail.c_str());
  return 1;
}

}  // namespace ethsim::check
