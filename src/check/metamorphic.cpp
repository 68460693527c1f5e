#include "check/metamorphic.hpp"

#include <cstdio>
#include <utility>

#include "analysis/demand.hpp"
#include "analysis/propagation.hpp"
#include "check/oracles.hpp"
#include "common/types.hpp"
#include "core/experiment.hpp"
#include "core/provenance.hpp"
#include "workload/generator.hpp"

namespace ethsim::check {

namespace {

Hash32 RunDigest(core::ExperimentConfig cfg) {
  core::Experiment exp{std::move(cfg)};
  exp.Run();
  return core::DeterminismDigest(exp);
}

RelationResult Pass(const char* relation, std::string detail = {}) {
  return {relation, true, std::move(detail)};
}

RelationResult FailDigests(const char* relation, const Hash32& a,
                           const Hash32& b) {
  return {relation, false, ToHex(a) + " vs " + ToHex(b)};
}

// Two runs of the same (config, seed) must be bit-identical — the
// determinism contract every other relation builds on.
RelationResult ReplayDeterminism(const core::ExperimentConfig& base) {
  const Hash32 first = RunDigest(base);
  const Hash32 second = RunDigest(base);
  if (!(first == second))
    return FailDigests("replay-determinism", first, second);
  return Pass("replay-determinism");
}

// Telemetry records; it never steers. Flipping all six stream gates must
// leave the determinism digest untouched (the generalized form of the golden
// "recording does not perturb the run" tests). The sampler's own ticks add
// engine events, which the digest deliberately excludes.
RelationResult TelemetryParity(const core::ExperimentConfig& base) {
  core::ExperimentConfig on = base;
  on.telemetry.metrics = true;
  on.telemetry.trace = true;
  on.telemetry.profile = true;
  on.telemetry.provenance = true;
  on.telemetry.sample = true;
  on.telemetry.txprov = true;
  core::ExperimentConfig off = base;
  off.telemetry = obs::TelemetryConfig{};
  const Hash32 digest_on = RunDigest(std::move(on));
  const Hash32 digest_off = RunDigest(std::move(off));
  if (!(digest_on == digest_off))
    return FailDigests("telemetry-parity", digest_on, digest_off);
  return Pass("telemetry-parity");
}

// An armed fault plan whose events all fire after the horizon must be
// bit-identical to an empty plan: the controller is constructed, its RNG
// stream forked and its events scheduled, yet nothing executed may differ —
// the generalized form of the "empty plan is bit-inert" golden.
RelationResult EmptyFaultPlanInertness(const core::ExperimentConfig& base) {
  core::ExperimentConfig empty = base;
  empty.fault_plan.events.clear();
  core::ExperimentConfig post_horizon = empty;
  const auto after_end =
      TimePoint::FromMicros(base.duration.micros() + Duration::Minutes(1).micros());
  post_horizon.fault_plan.NodeCrash(after_end, Duration::Seconds(30), 2)
      .RegionalPartition(after_end + Duration::Minutes(2), Duration::Minutes(1),
                         1u << 0)
      .DegradeLinks(after_end + Duration::Minutes(4), Duration::Minutes(1),
                    1u << 1, 2.0, 1.5);
  const Hash32 digest_empty = RunDigest(std::move(empty));
  const Hash32 digest_post = RunDigest(std::move(post_horizon));
  if (!(digest_empty == digest_post))
    return FailDigests("empty-fault-plan-inertness", digest_empty, digest_post);
  return Pass("empty-fault-plan-inertness");
}

// Stretching every link uniformly can only slow the propagation wave: the
// cross-vantage p50 under latency_scale x4 must not undercut the base run's.
// Mining and gossip re-randomize under the changed event order, so the
// relation is only sharp with a large factor; runs with too few samples on
// either side pass vacuously.
RelationResult LatencyScaleMonotone(const core::ExperimentConfig& base) {
  constexpr double kFactor = 4.0;
  constexpr std::size_t kMinSamples = 8;
  core::ExperimentConfig scaled = base;
  scaled.net_params.latency_scale *= kFactor;

  core::Experiment base_exp{base};
  base_exp.Run();
  core::Experiment scaled_exp{std::move(scaled)};
  scaled_exp.Run();
  const analysis::PropagationResult base_prop =
      analysis::BlockPropagationDelays(MakeStudyInputs(base_exp).observers);
  const analysis::PropagationResult scaled_prop =
      analysis::BlockPropagationDelays(MakeStudyInputs(scaled_exp).observers);
  if (base_prop.items < kMinSamples || scaled_prop.items < kMinSamples)
    return Pass("latency-scale-monotone", "too few samples; vacuous");
  if (scaled_prop.median_ms < base_prop.median_ms) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "p50 %.3f ms at x%.1f latency < p50 %.3f ms at x1",
                  scaled_prop.median_ms, kFactor, base_prop.median_ms);
    return {"latency-scale-monotone", false, buf};
  }
  return Pass("latency-scale-monotone");
}

// Region labels are bucketing keys, not behavior: permuting the submission
// tags (a pure relabeling of the demand input) must permute the per-region
// table the same way and leave every total untouched.
RelationResult RegionPermutationEquivariance(const core::ExperimentConfig& base) {
  core::Experiment exp{base};
  exp.Run();
  const analysis::StudyInputs inputs = MakeStudyInputs(exp);
  const std::vector<workload::SubmittedTx>& submitted =
      exp.workload().submitted();
  std::vector<workload::SubmittedTx> rotated = submitted;
  for (workload::SubmittedTx& tx : rotated)
    if (tx.region != workload::kNoRegion)
      tx.region = static_cast<std::uint8_t>((tx.region + 1) % net::kRegionCount);

  const analysis::DemandResult original =
      analysis::AnalyzeDemand(inputs, submitted, exp.workload().plan());
  const analysis::DemandResult permuted =
      analysis::AnalyzeDemand(inputs, rotated, exp.workload().plan());

  if (permuted.offered_total != original.offered_total ||
      permuted.included_total != original.included_total ||
      permuted.committed_total != original.committed_total)
    return {"region-permutation-equivariance", false,
            "totals changed under a pure region relabeling"};
  for (std::size_t r = 0; r < net::kRegionCount; ++r) {
    const std::size_t target = (r + 1) % net::kRegionCount;
    const analysis::RegionDemand& before = original.per_region[r];
    const analysis::RegionDemand& after = permuted.per_region[target];
    if (before.offered != after.offered ||
        before.included != after.included ||
        before.committed != after.committed) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "region %zu row did not move to region %zu intact", r,
                    target);
      return {"region-permutation-equivariance", false, buf};
    }
  }
  return Pass("region-permutation-equivariance");
}

}  // namespace

std::vector<std::string> RelationNames() {
  return {"replay-determinism", "telemetry-parity",
          "empty-fault-plan-inertness", "latency-scale-monotone",
          "region-permutation-equivariance"};
}

RelationResult RunRelation(const core::ExperimentConfig& base,
                           const std::string& relation) {
  if (relation == "replay-determinism") return ReplayDeterminism(base);
  if (relation == "telemetry-parity") return TelemetryParity(base);
  if (relation == "empty-fault-plan-inertness")
    return EmptyFaultPlanInertness(base);
  if (relation == "latency-scale-monotone") return LatencyScaleMonotone(base);
  if (relation == "region-permutation-equivariance")
    return RegionPermutationEquivariance(base);
  return {relation, false, "unknown relation"};
}

std::vector<RelationResult> RunMetamorphic(const core::ExperimentConfig& base) {
  std::vector<RelationResult> results;
  for (const std::string& name : RelationNames())
    results.push_back(RunRelation(base, name));
  return results;
}

}  // namespace ethsim::check
