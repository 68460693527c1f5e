#include "check/fuzz.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <type_traits>
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

std::string FirstOracleFailure(const core::Experiment& exp,
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

// Reads member `key` of a repro document into `out`: a string, a list of
// strings, or an unsigned integer. False when the member has the wrong type,
// or is absent and `required`.
template <typename T>
bool ReadMember(const obs::JsonValue& doc, const char* key, bool required,
                T* out) {
  const obs::JsonValue* value = doc.Find(key);
  if (value == nullptr) return !required;
  if constexpr (std::is_same_v<T, std::string>) {
    if (!value->is_string()) return false;
    *out = value->string;
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    if (value->type != obs::JsonValue::Type::kArray) return false;
    for (const obs::JsonValue& item : value->items) {
      if (!item.is_string()) return false;
      out->push_back(item.string);
    }
  } else {
    if (!value->is_uint()) return false;
    *out = static_cast<T>(value->uinteger);
  }
  return true;
}

}  // namespace

bool ReadRepro(const std::string& path, ReproSpec* spec, std::string* error) {
  std::string text;
  if (!obs::ReadTextFile(path, &text, error)) return false;
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = path + " is not a repro file: " + why;
    return false;
  };
  obs::JsonValue doc;
  std::string why;
  if (!obs::ParseJson(text, &doc, &why)) return fail(why);
  if (!doc.is_object()) return fail("not a JSON object");

  const char* bad = nullptr;
  const auto read = [&](const char* key, bool required, auto* out) {
    if (bad == nullptr && !ReadMember(doc, key, required, out)) bad = key;
  };
  read("fuzz_seed", true, &spec->fuzz_seed);
  read("index", true, &spec->index);
  read("kind", true, &spec->kind);
  read("name", true, &spec->name);
  read("config_digest", false, &spec->config_digest);
  read("min_nodes", false, &spec->scenario.min_nodes);
  read("max_nodes", false, &spec->scenario.max_nodes);
  read("min_minutes", false, &spec->scenario.min_minutes);
  read("max_minutes", false, &spec->scenario.max_minutes);
  spec->mutations.clear();
  read("mutations", false, &spec->mutations);
  if (bad != nullptr) return fail(std::string("bad or missing \"") + bad + '"');
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
