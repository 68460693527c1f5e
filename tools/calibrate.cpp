// Calibration probe: runs a mid-sized study and prints the headline numbers
// the presets are tuned against. Not part of the shipped benches; kept for
// re-tuning when model parameters change.
//
// Usage: calibrate [hours] [seed] [sweep_seeds]
// With sweep_seeds > 1 the run fans out over SeedSweepRunner (consecutive
// seeds) and the headline numbers are merged across seeds; the per-block
// diagnostics at the bottom always describe the first seed's run.
#include <array>
#include <chrono>
#include <unordered_map>
#include <cstdio>
#include <cstdlib>

#include "analysis/forks.hpp"
#include "analysis/geo.hpp"
#include "analysis/merge.hpp"
#include "analysis/ordering.hpp"
#include "analysis/propagation.hpp"
#include "analysis/redundancy.hpp"
#include "check/oracles.hpp"
#include "core/experiment.hpp"
#include "core/provenance.hpp"
#include "core/sweep.hpp"
#include "obs/diag.hpp"

using namespace ethsim;

int main(int argc, char** argv) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(150);
  cfg.duration = Duration::Hours(2);
  cfg.workload.rate_per_sec = 1.0;
  if (argc > 1) cfg.duration = Duration::Hours(std::atof(argv[1]));
  if (argc > 2) cfg.seed = static_cast<std::uint64_t>(std::atoll(argv[2]));
  std::size_t seed_count = 1;
  if (argc > 3 && std::atoll(argv[3]) > 0)
    seed_count = static_cast<std::size_t>(std::atoll(argv[3]));
  // ETHSIM_METRICS/ETHSIM_TRACE/ETHSIM_PROFILE gate telemetry; sweep members
  // each own a registry, merged below in seed order.
  cfg.telemetry = obs::TelemetryConfig::FromEnv();

  core::SeedSweepRunner runner{};
  const auto seeds = core::ConsecutiveSeeds(cfg.seed, seed_count);
  const auto t0 = std::chrono::steady_clock::now();
  const auto runs = runner.RunExperiments(cfg, seeds);
  const auto wall =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0).count();

  std::uint64_t events = 0;
  std::size_t minted = 0;
  for (const auto& run : runs) {
    events += run->simulator().events_executed();
    minted += run->minted().size();
  }
  std::printf("wall=%lldms seeds=%zu threads=%zu events=%llu minted=%zu head=%llu\n",
              static_cast<long long>(wall), seeds.size(), runner.threads(),
              static_cast<unsigned long long>(events), minted,
              static_cast<unsigned long long>(
                  runs[0]->reference_tree().head_number() - cfg.genesis_number));
  std::printf("config_digest=%.16s determinism_digest[seed %llu]=%.16s\n",
              ToHex(core::ConfigDigest(cfg)).c_str(),
              static_cast<unsigned long long>(seeds[0]),
              ToHex(core::DeterminismDigest(*runs[0])).c_str());

  // Telemetry artifacts: thread-count-invariant merged metrics plus the
  // first seed's full artifact set.
  if (runs[0]->telemetry() != nullptr) {
    std::string dir = cfg.telemetry.output_dir;
    if (dir.empty()) dir = "calibrate-telemetry";
    std::string error;
    if (!core::WriteRunArtifacts(*runs[0], dir, "calibrate", &error)) {
      obs::LogError("calibrate", "telemetry artifacts: %s", error.c_str());
      return 1;
    }
    if (runs[0]->telemetry()->metrics() != nullptr) {
      const obs::MetricsRegistry merged = core::MergeSweepMetrics(runs);
      std::printf("telemetry -> %s/ (merged registry: %zu instruments over "
                  "%zu seeds)\n",
                  dir.c_str(), merged.size(), runs.size());
    }
  }
  for (const auto& run : runs) {
    if (const std::string drops = run->network().RenderDropReport();
        !drops.empty())
      std::printf("seed %llu: %s\n",
                  static_cast<unsigned long long>(run->config().seed),
                  drops.c_str());
  }

  std::vector<analysis::StudyInputs> all_inputs;
  for (const auto& run : runs) all_inputs.push_back(check::MakeStudyInputs(*run));

  std::vector<analysis::PropagationResult> prop_parts, txprop_parts;
  std::vector<analysis::GeoResult> geo_parts;
  std::vector<analysis::ForkCensus> census_parts;
  for (const auto& inputs : all_inputs) {
    prop_parts.push_back(analysis::BlockPropagationDelays(inputs.observers));
    txprop_parts.push_back(analysis::TxPropagationDelays(inputs.observers));
    geo_parts.push_back(analysis::FirstObservationShares(inputs.observers));
    census_parts.push_back(analysis::ComputeForkCensus(inputs));
  }
  std::vector<analysis::OneMinerForkCensus> omf_parts;
  for (std::size_t i = 0; i < all_inputs.size(); ++i)
    omf_parts.push_back(
        analysis::ComputeOneMinerForks(all_inputs[i], census_parts[i]));

  const auto prop = analysis::MergePropagation(prop_parts);
  std::printf("fig1 block prop: median=%.1fms mean=%.1fms p95=%.1fms p99=%.1fms n=%zu (paper 74/109/211/317)\n",
              prop.median_ms, prop.mean_ms, prop.p95_ms, prop.p99_ms,
              prop.delays_ms.count());

  const auto txprop = analysis::MergePropagation(txprop_parts);
  std::printf("tx prop: median=%.1fms mean=%.1fms n=%zu\n", txprop.median_ms,
              txprop.mean_ms, txprop.delays_ms.count());

  const auto geo = analysis::MergeGeoResults(geo_parts);
  std::printf("fig2 first-obs:");
  for (const auto& share : geo.shares)
    std::printf(" %s=%.1f%%(±%.1f)", share.vantage.c_str(), share.share * 100,
                share.uncertain_share * 100);
  std::printf("  (paper EA~40 NA~10)\n");

  const auto census = analysis::MergeForkCensus(census_parts);
  std::printf("forks: total_blocks=%zu main=%.2f%% recognized=%.2f%% unrecognized=%.2f%% events=%zu (paper 92.81/6.97/0.22)\n",
              census.total_blocks, census.main_share * 100,
              census.recognized_share * 100, census.unrecognized_share * 100,
              census.fork_events);
  for (const auto& row : census.by_length)
    std::printf("  len=%zu total=%zu recognized=%zu\n", row.length, row.total,
                row.recognized);

  const auto omf = analysis::MergeOneMinerForks(omf_parts, census);
  std::printf("one-miner forks: events=%zu share_of_forks=%.1f%% recognized=%.0f%% same_txset=%.0f%% (paper 11%%/98%%/56%%)\n",
              omf.events, omf.share_of_all_forks * 100,
              omf.recognized_extra_share * 100, omf.same_txset_share * 100);

  // Ordering has no cross-seed merge (delay sets are per-commit-path); report
  // the first seed's run, which matches the historical single-run probe.
  const core::Experiment& exp = *runs[0];
  const analysis::StudyInputs& inputs = all_inputs[0];
  const auto ordering = analysis::TransactionOrdering(inputs);
  std::printf("ordering[seed %llu]: committed=%zu ooo=%.2f%% med_in=%.0fs med_ooo=%.0fs (paper 11.54%%, 189/192)\n",
              static_cast<unsigned long long>(seeds[0]),
              ordering.committed_txs, ordering.out_of_order_share * 100,
              ordering.in_order_delay_s.empty() ? 0 : ordering.in_order_delay_s.Median(),
              ordering.out_of_order_delay_s.empty() ? 0 : ordering.out_of_order_delay_s.Median());

  // Diagnostic: origin-region x winning-vantage matrix. Requires access to
  // the release gateway's region; approximate with the pool's weighted-top
  // gateway region via the mint record's pool index.
  {
    std::printf("observer peers:");
    for (const auto& obs : exp.observers())
      std::printf(" %s=%zu", obs->name().c_str(), obs->node()->peer_count());
    std::printf("\n");

    // winner per block hash
    std::unordered_map<Hash32, std::size_t> winner;
    for (const auto& record : *inputs.minted) {
      TimePoint best;
      bool any = false;
      std::size_t who = 0;
      for (std::size_t i = 0; i < inputs.observers.size(); ++i) {
        const auto& m = inputs.observers[i]->first_block_arrival();
        const auto it = m.find(record.block->hash);
        if (it == m.end()) continue;
        if (!any || it->second < best) { best = it->second; who = i; any = true; }
      }
      if (any) winner[record.block->hash] = who;
    }
    // per-pool wins
    std::vector<std::array<int,5>> table(cfg.pools.size(), {0,0,0,0,0});
    for (const auto& record : *inputs.minted) {
      auto it = winner.find(record.block->hash);
      if (it == winner.end()) continue;
      table[record.pool_index][it->second]++;
      table[record.pool_index][4]++;
    }
    for (std::size_t p = 0; p < cfg.pools.size(); ++p) {
      if (table[p][4] < 5) continue;
      std::printf("pool %-18s n=%3d  NA=%2d EA=%2d WE=%2d CE=%2d\n",
                  cfg.pools[p].name.c_str(), table[p][4], table[p][0],
                  table[p][1], table[p][2], table[p][3]);
    }
  }
  // Gateway adjacency to observers.
  {
    std::size_t idx = 0;
    for (const auto& pool : cfg.pools) {
      for (const auto& gw : pool.gateways) {
        const auto& node = exp.nodes()[idx++];
        std::printf("gw %-18s %-3s peers=%2zu adj:", pool.name.c_str(),
                    net::RegionShortName(gw.region).data(), node->peer_count());
        for (const auto& obs : exp.observers())
          std::printf(" %s=%d", obs->name().c_str(),
                      node->ConnectedTo(*obs->node()) ? 1 : 0);
        std::printf("\n");
      }
    }
  }
  return 0;
}
