// Cross-module invariant oracles run against a finished experiment. Each
// oracle reconciles two independent implementations of the same truth —
// workload counters vs analysis/demand, observer logs vs the provenance edge
// log, the block tree's structural audit vs its public accessors — so a
// disagreement localizes a bug to one side without a golden file.
#pragma once

#include <string>
#include <vector>

#include "analysis/inputs.hpp"
#include "core/experiment.hpp"

namespace ethsim::check {

struct OracleFailure {
  std::string oracle;  // stable name, e.g. "tx-conservation"
  std::string detail;  // the violated equation with both sides
};

struct OracleOptions {
  // Test-only hook: the named oracle reports a deliberate failure regardless
  // of the run. Lets the shrinker and the CI pipeline prove, end to end,
  // that a failing oracle is caught, reported and minimized — without
  // planting a real bug.
  std::string inject_failure;
};

// Stable names of every oracle, in evaluation order.
std::vector<std::string> OracleNames();

// Runs every oracle; returns all failures (empty = the run is clean).
std::vector<OracleFailure> RunOracles(const core::Experiment& experiment,
                                      const OracleOptions& options = {});

// The analysis-input bundle of a finished experiment (shared by the oracles,
// the metamorphic relations and tests).
analysis::StudyInputs MakeStudyInputs(const core::Experiment& experiment);

}  // namespace ethsim::check
