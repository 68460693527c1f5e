// End-to-end fuzz pipeline under the test-only injection hook: a synthetic
// invariant break must be caught by the named oracle, land in the JSONL
// report, get shrunk to a small repro config, and the written repro file
// must replay — still failing with the hook armed, recovered without it.
#include "check/fuzz.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/scenario.hpp"

namespace ethsim::check {
namespace {

TEST(FuzzPipeline, InjectedFailureIsCaughtShrunkAndReplayable) {
  FuzzOptions options;
  options.seed = 1;
  options.runs = 1;
  options.out_dir = testing::TempDir() + "ethsim_fuzz_pipeline";
  options.scenario.min_nodes = 8;
  options.scenario.max_nodes = 8;
  options.scenario.min_minutes = 4;
  options.scenario.max_minutes = 4;
  options.metamorphic = false;
  options.shrink_evaluations = 4;
  options.oracles.inject_failure = "chain-invariants";

  const FuzzOutcome outcome = RunFuzz(options);
  EXPECT_EQ(outcome.scenarios, 1u);
  EXPECT_EQ(outcome.failures, 1u);
  ASSERT_EQ(outcome.repro_paths.size(), 1u);

  std::ifstream report(outcome.report_path);
  ASSERT_TRUE(report.good()) << outcome.report_path;
  std::stringstream buffer;
  buffer << report.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("\"status\": \"fail\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"name\": \"chain-invariants\""), std::string::npos);
  EXPECT_NE(text.find("\"config_digest\""), std::string::npos);
  EXPECT_NE(text.find("\"status\": \"shrunk\""), std::string::npos);

  ReproSpec spec;
  std::string error;
  ASSERT_TRUE(ReadRepro(outcome.repro_paths.front(), &spec, &error)) << error;
  EXPECT_EQ(spec.kind, "oracle");
  EXPECT_EQ(spec.name, "chain-invariants");
  EXPECT_EQ(spec.fuzz_seed, 1u);
  EXPECT_EQ(spec.index, 0u);

  const core::ExperimentConfig shrunk = ReproConfig(spec);
  EXPECT_LE(shrunk.peer_nodes, 8u);
  EXPECT_EQ(shrunk.Validate(), "");

  // The repro still fires while the synthetic bug is armed, and reports
  // recovery once it is gone.
  EXPECT_EQ(RunRepro(spec, options.oracles), 1);
  EXPECT_EQ(RunRepro(spec), 0);
}

TEST(ReproRoundTrip, WriteThenReadPreservesEveryField) {
  ReproSpec spec;
  spec.fuzz_seed = 11;
  spec.index = 4;
  spec.kind = "relation";
  spec.name = "telemetry-parity";
  spec.config_digest = "deadbeef";
  spec.scenario.min_nodes = 5;
  spec.scenario.max_nodes = 9;
  spec.scenario.min_minutes = 3;
  spec.scenario.max_minutes = 7;
  spec.mutations = {"halve-nodes", "drop-vantage"};

  const std::string path = testing::TempDir() + "ethsim_fuzz_repro.json";
  std::string error;
  ASSERT_TRUE(WriteRepro(path, spec, &error)) << error;
  ReproSpec loaded;
  ASSERT_TRUE(ReadRepro(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.fuzz_seed, 11u);
  EXPECT_EQ(loaded.index, 4u);
  EXPECT_EQ(loaded.kind, "relation");
  EXPECT_EQ(loaded.name, "telemetry-parity");
  EXPECT_EQ(loaded.config_digest, "deadbeef");
  EXPECT_EQ(loaded.scenario.min_nodes, 5u);
  EXPECT_EQ(loaded.scenario.max_nodes, 9u);
  EXPECT_EQ(loaded.scenario.min_minutes, 3);
  EXPECT_EQ(loaded.scenario.max_minutes, 7);
  EXPECT_EQ(loaded.mutations, spec.mutations);
}

TEST(ReproRoundTrip, FullRangeSeedRoundTrips) {
  ReproSpec spec;
  spec.fuzz_seed = 18446744073709551615u;
  spec.name = "chain-invariants";
  const std::string path = testing::TempDir() + "ethsim_fuzz_max_seed.json";
  std::string error;
  ASSERT_TRUE(WriteRepro(path, spec, &error)) << error;
  ReproSpec loaded;
  ASSERT_TRUE(ReadRepro(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.fuzz_seed, 18446744073709551615u);
}

// Writes `text` to a scratch repro path and returns that path.
std::string WriteText(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + name;
  std::ofstream(path, std::ios::trunc) << text;
  return path;
}

TEST(ReproRoundTrip, ReadsAnyValidJsonLayout) {
  const std::string path = WriteText(
      "ethsim_fuzz_spaced.json",
      R"({ "fuzz_seed" : 7 , "index" : 2, "kind" : "oracle",
           "name" : "drop-census", "mutations" : [ "halve-nodes" ] })");
  ReproSpec spec;
  std::string error;
  ASSERT_TRUE(ReadRepro(path, &spec, &error)) << error;
  EXPECT_EQ(spec.fuzz_seed, 7u);
  EXPECT_EQ(spec.index, 2u);
  EXPECT_EQ(spec.name, "drop-census");
  EXPECT_EQ(spec.mutations, std::vector<std::string>{"halve-nodes"});
}

TEST(ReproRoundTrip, RejectsMalformedFiles) {
  const std::string members =
      R"("fuzz_seed": 1, "index": 0, "kind": "oracle", "name": "x")";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"trailing bytes", "{" + members + "} trailing"},
      {"missing key", R"({"fuzz_seed": 1, "index": 0, "kind": "oracle"})"},
      {"wrong type", R"({"fuzz_seed": "1", "index": 0, "kind": "oracle",
                         "name": "x"})"},
      {"not JSON", members},
  };
  for (const auto& [what, text] : cases) {
    const std::string path = WriteText("ethsim_fuzz_bad.json", text);
    ReproSpec spec;
    std::string error;
    EXPECT_FALSE(ReadRepro(path, &spec, &error)) << what;
    EXPECT_NE(error.find("is not a repro file"), std::string::npos) << what;
  }
}

TEST(ReproRoundTrip, MissingFileFailsWithError) {
  ReproSpec spec;
  std::string error;
  EXPECT_FALSE(
      ReadRepro(testing::TempDir() + "no-such-dir/nope.json", &spec, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace ethsim::check
