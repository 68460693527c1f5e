#include "check/oracles.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "analysis/commit.hpp"
#include "analysis/demand.hpp"
#include "analysis/dissemination.hpp"
#include "analysis/redundancy.hpp"
#include "net/network.hpp"
#include "obs/provenance_dag.hpp"
#include "obs/tx_provenance.hpp"

namespace ethsim::check {

namespace {

using Failures = std::vector<OracleFailure>;

void Fail(Failures& failures, const char* oracle, std::string detail) {
  failures.push_back({oracle, std::move(detail)});
}

std::string Eq(const char* what, std::uint64_t lhs, std::uint64_t rhs) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s: %" PRIu64 " vs %" PRIu64, what, lhs,
                rhs);
  return buf;
}

// The reference tree's structural audit plus the fork-choice postcondition
// the audit cannot see from inside: total difficulty strictly increases
// along the canonical chain (heaviest-chain fork choice would be meaningless
// otherwise). No fault kind injects invalid blocks, so an honest world mints
// only valid ones: any consensus rejection at import is a minting bug.
void ChainOracle(const core::Experiment& exp, Failures& failures) {
  const chain::BlockTree& tree = exp.reference_tree();
  if (!tree.CheckInvariants())
    Fail(failures, "chain-invariants",
         "reference tree CheckInvariants() failed (see stderr)");
  const auto canonical = tree.CanonicalChain();
  for (std::size_t i = 1; i < canonical.size(); ++i) {
    const std::uint64_t parent_td =
        tree.TotalDifficulty(canonical[i - 1]->hash);
    const std::uint64_t child_td = tree.TotalDifficulty(canonical[i]->hash);
    if (child_td <= parent_td) {
      Fail(failures, "chain-invariants",
           Eq("canonical total difficulty must be strictly increasing",
              child_td, parent_td));
      break;
    }
  }
  for (const auto& node : exp.nodes()) {
    if (!node->tree().CheckInvariants()) {
      Fail(failures, "chain-invariants",
           "a node tree failed CheckInvariants() (see stderr)");
      break;
    }
  }
  std::uint64_t invalid = 0;
  for (const auto& node : exp.nodes()) invalid += node->invalid_blocks();
  if (invalid != 0)
    Fail(failures, "chain-invariants",
         Eq("blocks rejected as invalid at import (summed over nodes)",
            invalid, 0));
}

// submitted ⊇ admitted ⊇ included ⊇ committed, reconciled across three
// independent implementations: the workload generator's own counters, the
// demand analysis, and the commit-time analysis.
void TxConservationOracle(const core::Experiment& exp, Failures& failures) {
  const analysis::StudyInputs inputs = MakeStudyInputs(exp);
  const analysis::CommitTimeResult commit =
      analysis::TransactionCommitTimes(inputs);
  const analysis::DemandResult demand = analysis::AnalyzeDemand(
      inputs, exp.workload().submitted(), exp.workload().plan());

  const std::uint64_t submitted = exp.workload().total_submitted();
  if (demand.offered_total != submitted)
    Fail(failures, "tx-conservation",
         Eq("demand offered_total vs workload total_submitted",
            demand.offered_total, submitted));
  if (demand.included_total > demand.offered_total)
    Fail(failures, "tx-conservation",
         Eq("included_total exceeds offered_total", demand.included_total,
            demand.offered_total));
  if (demand.committed_total > demand.included_total)
    Fail(failures, "tx-conservation",
         Eq("committed_total exceeds included_total", demand.committed_total,
            demand.included_total));
  if (demand.committed_total != commit.committed_txs)
    Fail(failures, "tx-conservation",
         Eq("demand committed_total vs commit-time committed_txs",
            demand.committed_total, commit.committed_txs));
  if (demand.unattributed_committed != 0)
    Fail(failures, "tx-conservation",
         Eq("committed txs with no submission record",
            demand.unattributed_committed, 0));

  std::uint64_t src_offered = 0, src_included = 0, src_committed = 0;
  for (const analysis::SourceDemand& src : demand.per_source) {
    src_offered += src.offered;
    src_included += src.included;
    src_committed += src.committed;
    if (src.included > src.offered)
      Fail(failures, "tx-conservation",
           Eq(("source '" + src.name + "' included exceeds offered").c_str(),
              src.included, src.offered));
  }
  if (src_offered != demand.offered_total)
    Fail(failures, "tx-conservation",
         Eq("per-source offered does not sum to offered_total", src_offered,
            demand.offered_total));
  if (src_included != demand.included_total)
    Fail(failures, "tx-conservation",
         Eq("per-source included does not sum to included_total", src_included,
            demand.included_total));
  if (src_committed != demand.committed_total)
    Fail(failures, "tx-conservation",
         Eq("per-source committed does not sum to committed_total",
            src_committed, demand.committed_total));

  // Region attribution never invents traffic. Legacy-mode submissions carry
  // no region tag, so the regional sum may undershoot but must never exceed.
  std::uint64_t region_offered = 0;
  for (const analysis::RegionDemand& region : demand.per_region)
    region_offered += region.offered;
  if (region_offered > demand.offered_total)
    Fail(failures, "tx-conservation",
         Eq("per-region offered exceeds offered_total", region_offered,
            demand.offered_total));
}

bool StatsEqual(const analysis::RedundancyStats& a,
                const analysis::RedundancyStats& b) {
  return std::memcmp(&a.mean, &b.mean, sizeof(double)) == 0 &&
         std::memcmp(&a.median, &b.median, sizeof(double)) == 0 &&
         std::memcmp(&a.top10, &b.top10, sizeof(double)) == 0 &&
         std::memcmp(&a.top1, &b.top1, sizeof(double)) == 0;
}

// The Table II reconciliation contract at every vantage: the redundancy
// computed from the provenance edge log must equal the observer-log
// computation bitwise.
void RedundancyOracle(const core::Experiment& exp, Failures& failures) {
  if (exp.telemetry() == nullptr || exp.telemetry()->provenance() == nullptr)
    return;
  const obs::ProvenanceLog& log = exp.telemetry()->provenance()->Finish();
  for (const auto& observer : exp.observers()) {
    const analysis::RedundancyResult from_log =
        analysis::BlockReceptionRedundancy(*observer);
    const analysis::RedundancyResult from_prov =
        analysis::RedundancyFromProvenance(log, observer->node()->host());
    if (from_log.blocks != from_prov.blocks) {
      Fail(failures, "redundancy-reconciliation",
           Eq(("vantage " + observer->name() + " settled blocks").c_str(),
              from_log.blocks, from_prov.blocks));
      continue;
    }
    if (!StatsEqual(from_log.announcements, from_prov.announcements) ||
        !StatsEqual(from_log.whole_blocks, from_prov.whole_blocks) ||
        !StatsEqual(from_log.combined, from_prov.combined))
      Fail(failures, "redundancy-reconciliation",
           "vantage " + observer->name() +
               ": observer-log and provenance-log statistics differ");
  }
}

// Every censored message is attributed exactly once, in both census tables
// (by reason, and by kind x region); with provenance on, the edge log's
// per-reason drop counts match the network's.
void DropCensusOracle(const core::Experiment& exp, Failures& failures) {
  const net::Network& network = exp.network();
  const std::uint64_t total = network.messages_dropped();
  std::uint64_t by_reason = 0;
  for (std::size_t r = 0; r < net::kDropReasonCount; ++r)
    by_reason += network.dropped_by(static_cast<net::DropReason>(r));
  if (by_reason != total)
    Fail(failures, "drop-census",
         Eq("per-reason drop counts vs messages_dropped", by_reason, total));
  std::uint64_t by_cell = 0;
  for (std::size_t k = 0; k < obs::kMsgKindCount; ++k)
    for (std::size_t r = 0; r < net::kRegionCount; ++r)
      by_cell += network.dropped_by(static_cast<obs::MsgKind>(k),
                                    static_cast<net::Region>(r));
  if (by_cell != total)
    Fail(failures, "drop-census",
         Eq("kind x region drop counts vs messages_dropped", by_cell, total));

  if (exp.telemetry() != nullptr && exp.telemetry()->provenance() != nullptr) {
    const obs::ProvenanceLog& log = exp.telemetry()->provenance()->Finish();
    std::uint64_t edge_drops[obs::kEdgeDropCount] = {};
    for (std::size_t i = 0; i < log.size(); ++i) ++edge_drops[log.drop[i]];
    const struct {
      obs::EdgeDrop edge;
      net::DropReason reason;
    } pairs[] = {
        {obs::EdgeDrop::kRandomLoss, net::DropReason::kRandomLoss},
        {obs::EdgeDrop::kPartitioned, net::DropReason::kPartitioned},
        {obs::EdgeDrop::kDegraded, net::DropReason::kDegraded},
        {obs::EdgeDrop::kOffline, net::DropReason::kOffline},
    };
    for (const auto& pair : pairs) {
      const std::uint64_t from_log =
          edge_drops[static_cast<std::size_t>(pair.edge)];
      const std::uint64_t from_census = network.dropped_by(pair.reason);
      if (from_log != from_census)
        Fail(failures, "drop-census",
             Eq((std::string("provenance vs census drops, reason ") +
                 std::string(obs::EdgeDropName(pair.edge)))
                    .c_str(),
                from_log, from_census));
    }
  }
}

// The streaming invariant checkers that rode the run must have stayed
// silent, and the lifecycle log must open with exactly one kSubmitted record
// per workload submission (stage conservation at the source).
void TelemetryCleanOracle(const core::Experiment& exp, Failures& failures) {
  if (exp.telemetry() == nullptr) return;
  if (const obs::ProvenanceRecorder* prov = exp.telemetry()->provenance())
    if (prov->violations() != 0)
      Fail(failures, "provenance-clean",
           Eq("gossip-provenance invariant violations", prov->violations(), 0));
  if (const obs::TxProvRecorder* txprov = exp.telemetry()->txprov()) {
    if (txprov->violations() != 0)
      Fail(failures, "txprov-clean",
           Eq("tx-lifecycle invariant violations", txprov->violations(), 0));
    const obs::TxProvLog& log = txprov->Finish();
    std::uint64_t submitted_records = 0;
    for (std::size_t i = 0; i < log.size(); ++i)
      if (static_cast<obs::TxStage>(log.stage[i]) == obs::TxStage::kSubmitted)
        ++submitted_records;
    if (submitted_records != exp.workload().total_submitted())
      Fail(failures, "txprov-clean",
           Eq("kSubmitted records vs workload total_submitted",
              submitted_records, exp.workload().total_submitted()));
  }
}

}  // namespace

analysis::StudyInputs MakeStudyInputs(const core::Experiment& experiment) {
  analysis::StudyInputs inputs;
  for (const auto& observer : experiment.observers())
    inputs.observers.push_back(observer.get());
  inputs.minted = &experiment.minted();
  inputs.pools = &experiment.config().pools;
  inputs.reference = &experiment.reference_tree();
  return inputs;
}

std::vector<std::string> OracleNames() {
  return {"chain-invariants",          "tx-conservation", "redundancy-reconciliation",
          "drop-census",               "provenance-clean", "txprov-clean"};
}

std::vector<OracleFailure> RunOracles(const core::Experiment& experiment,
                                      const OracleOptions& options) {
  Failures failures;
  ChainOracle(experiment, failures);
  TxConservationOracle(experiment, failures);
  RedundancyOracle(experiment, failures);
  DropCensusOracle(experiment, failures);
  TelemetryCleanOracle(experiment, failures);
  if (!options.inject_failure.empty())
    Fail(failures, options.inject_failure.c_str(),
         "injected failure (test-only hook)");
  return failures;
}

}  // namespace ethsim::check
