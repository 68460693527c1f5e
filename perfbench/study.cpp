// One study of the benchmark, in this process: builds a named workload's
// world through core::Experiment, runs it until the workload's input targets
// are met, runs the analysis pipeline and the oracles, and prints one JSON
// line of timings, memory figures, counts and the determinism digest.
// perfbench/run.py starts one of these per study, one at a time, so VmHWM
// belongs to one study.
//
//   ethsim_study --workload NAME --seed N [--traced SPANS.json]
//                [--inject-oracle-failure ORACLE]
//
// --traced   also enable the metrics registry and the engine profiler, run
//            the replay probes after the study, and write the spans to
//            SPANS.json. Timed runs leave every telemetry stream off.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/commit.hpp"
#include "analysis/forks.hpp"
#include "analysis/geo.hpp"
#include "analysis/propagation.hpp"
#include "check/oracles.hpp"
#include "core/experiment.hpp"
#include "core/provenance.hpp"
#include "p2p/kademlia.hpp"
#include "probe.hpp"

extern char** environ;

namespace {

using namespace ethsim;

// The workloads. Each is presets::SmallStudy(n): the paper's pool roster and
// four vantages at n/2 peers. A study runs until a fixed amount of input has
// entered the world (transactions submitted, blocks minted), not for a fixed
// simulated interval: the input processes are Poisson, so a fixed interval
// would give every seed a different amount of work. Why each workload exists
// is recorded in BENCHMARK.json.
struct Workload {
  const char* name;
  std::size_t nodes;
  double tx_per_s;
  std::uint64_t until_txs;
  std::uint64_t until_blocks;
  double churn_leaves_per_min;  // 0 = no fault plan
};

constexpr Workload kWorkloads[] = {
    // 7.9 tx/s is the paper's rate; 1,100 txs overfill every per-peer
    // known_txs cache (cap 1,024).
    {"tx_flood_300", 300, 7.9, 1100, 0, 0},
    // No txs: even a 0.05 tx/s trickle took ~40% of a block-relay run, and
    // its bursty count moved run time and peak memory from seed to seed.
    {"block_relay_1k", 1000, 0.0, 0, 200, 0},
    // Setup (the n^2 routing-table fill) is about a third of this study.
    // No txs: at 5,000 nodes a tx costs ~57k events, and with a 40-tx target
    // the event count varied by +-10% from seed to seed. 36 blocks and one
    // churn window vary it by under 1%.
    {"world_5k_churn", 5000, 0.0, 0, 36, 20},
};

// The churn window opens 5 s in and lasts 4 minutes; a churn study runs at
// least until it closes, so every seed draws the window's leaves in full.
constexpr TimePoint kChurnStart = TimePoint::FromMicros(5'000'000);
constexpr Duration kChurnWindow = Duration::Minutes(4);
// Simulated time after which a study that has not met its targets fails.
constexpr TimePoint kSimulatedLimit = TimePoint::FromMicros(21'600'000'000);
constexpr Duration kStep = Duration::Millis(250);

bool TargetsMet(const Workload& w, const core::Experiment& exp) {
  return exp.workload().total_submitted() >= w.until_txs &&
         exp.minted().size() >= w.until_blocks &&
         (w.churn_leaves_per_min == 0 ||
          exp.simulator().Now() >= kChurnStart + kChurnWindow);
}

core::ExperimentConfig MakeConfig(const Workload& w, std::uint64_t seed,
                                  bool traced) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(w.nodes);
  cfg.seed = seed;
  // Run() only builds the world and fires the t=0 events; the study then
  // steps the simulator until TargetsMet.
  cfg.duration = Duration{};
  cfg.workload.rate_per_sec = w.tx_per_s;
  // Every pool releases through its primary gateway. A pool assembles blocks
  // from the primary gateway's txpool but switches to its own new block at
  // once; a block released through another gateway reaches the primary only
  // by relay, so a second block found within that window includes the same
  // transactions again, and the tx-conservation oracle fails (a few percent
  // of seeds). Gateway count, regions and hashrate shares are unchanged.
  for (miner::PoolSpec& pool : cfg.pools)
    for (std::size_t g = 1; g < pool.gateways.size(); ++g)
      pool.gateways[g].weight = 0;
  if (w.churn_leaves_per_min > 0)
    cfg.fault_plan.PoissonChurn(kChurnStart, kChurnWindow,
                                w.churn_leaves_per_min, Duration::Seconds(30));
  cfg.telemetry = obs::TelemetryConfig{};
  cfg.telemetry.metrics = traced;
  cfg.telemetry.profile = traced;
  return cfg;
}

[[noreturn]] void Fail(const char* fmt, const char* arg) {
  std::fprintf(stderr, "ethsim_study: ");
  std::fprintf(stderr, fmt, arg);
  std::fputc('\n', stderr);
  std::exit(2);
}

double MbOrFail(const char* key) {
  const auto mb = perfbench::ReadSelfStatusMb(key);
  if (!mb) Fail("cannot read %s from /proc/self/status", key);
  return *mb;
}

// JSON object builder for the single output line.
class JsonLine {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    Raw(key, buf);
  }
  void Int(const std::string& key, std::uint64_t v) {
    Raw(key, std::to_string(v));
  }
  void Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' ? ' ' : c);
    }
    Raw(key, quoted + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    text_ += text_.empty() ? '{' : ',';
    text_.append("\"").append(key).append("\":").append(json);
  }
  std::string Close() const { return text_.empty() ? "{}" : text_ + "}"; }

 private:
  std::string text_;
};

std::uint64_t CounterSum(const obs::MetricsRegistry& registry,
                         const std::string& base, const std::string& label,
                         const std::vector<std::string>& values) {
  std::uint64_t sum = 0;
  for (const std::string& value : values) {
    const obs::Counter* c =
        registry.FindCounter(base + "{" + label + "=" + value + "}");
    if (c != nullptr) sum += c->value();
  }
  return sum;
}

// Replay probes: time public layer functions on this study's own inputs.
// They run only in the traced run, after the study.
void RunReplayProbes(const core::Experiment& exp, perfbench::SpanLog& spans,
                     JsonLine& timings) {
  // chain: every minted block, in mint order, into a fresh tree.
  {
    const int span = spans.Begin("replay.chain.tree_add");
    chain::BlockTree tree{exp.genesis()};
    for (const miner::MintRecord& record : exp.minted())
      tree.Add(record.block, record.mined_at);
    const double s = spans.End(span);
    const std::size_t adds = exp.minted().size();
    spans.Count(span, "adds", static_cast<double>(adds));
    timings.Num("chain.tree_add_us", adds == 0 ? 0 : s * 1e6 / adds);
  }

  // p2p: one routing table per node filled with every node ID, as
  // Experiment::BuildTopology does, then lookups over those tables.
  std::vector<p2p::NodeId> ids;
  for (const auto& node : exp.nodes()) ids.push_back(node->id());
  std::map<p2p::NodeId, p2p::RoutingTable> tables;
  {
    const int span = spans.Begin("replay.p2p.table_fill");
    for (const p2p::NodeId& id : ids) {
      p2p::RoutingTable table{id};
      for (const p2p::NodeId& other : ids) table.Add(other);
      tables.emplace(id, std::move(table));
    }
    timings.Num("p2p.table_fill_s", spans.End(span));
    spans.Count(span, "adds", static_cast<double>(ids.size() * ids.size()));
  }
  {
    constexpr std::size_t kLookups = 2000;
    const int span = spans.Begin("replay.p2p.lookup");
    Rng rng{exp.config().seed};
    const auto query = [&](const p2p::NodeId& node, const p2p::NodeId& target) {
      return tables.at(node).Closest(target, p2p::kBucketSize);
    };
    std::size_t found = 0;
    for (std::size_t i = 0; i < kLookups; ++i) {
      const p2p::RoutingTable& from = tables.at(ids[rng.NextBounded(ids.size())]);
      found += p2p::IterativeFindNode(from, p2p::RandomNodeId(rng),
                                      p2p::kBucketSize, query)
                   .size();
    }
    const double s = spans.End(span);
    spans.Count(span, "lookups", kLookups);
    spans.Count(span, "found", static_cast<double>(found));
    timings.Num("p2p.lookup_us", s * 1e6 / kLookups);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Experiment::Run and several layers read ETHSIM_* gates by themselves
  // (progress, audits); any of them would change what a timed run measures.
  for (char** env = environ; *env != nullptr; ++env)
    if (std::strncmp(*env, "ETHSIM_", 7) == 0)
      Fail("refusing to run with %s set", *env);

  std::string workload_name, traced_path, inject;
  std::uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != argv[i] && *end == '\0';
      if (!have_seed) Fail("bad --seed %s", argv[i]);
    } else if (arg == "--traced" && has_value) {
      traced_path = argv[++i];
    } else if (arg == "--inject-oracle-failure" && has_value) {
      inject = argv[++i];
    } else {
      Fail("unknown or incomplete argument %s", arg.c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (workload_name == w.name) workload = &w;
  if (workload == nullptr) Fail("unknown --workload '%s'", workload_name.c_str());
  if (!have_seed) Fail("%s", "--seed is required");
  const bool traced = !traced_path.empty();

  using Clock = perfbench::SpanLog::Clock;
  perfbench::SpanLog spans;
  JsonLine out, timings;
  // Simulated counts: identical in every study of one workload and seed.
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  out.Str("workload", workload->name);
  out.Int("seed", seed);

  // Setup ends at the first simulated event: a no-op scheduled at t=0 before
  // Build() schedules anything, so it fires first (and adds one event).
  core::ExperimentConfig cfg = MakeConfig(*workload, seed, traced);
  const int study_span = spans.Begin("study");
  const int setup_span = spans.Begin("setup");
  // Released, not destroyed, at exit: teardown is not part of any metric.
  auto exp = std::make_unique<core::Experiment>(std::move(cfg));
  double setup_s = 0, setup_rss_mb = 0;
  int run_span = -1;
  Clock::time_point run_start;
  exp->simulator().ScheduleAt(TimePoint{}, [&] {
    setup_s = spans.End(setup_span);
    setup_rss_mb = MbOrFail("VmRSS");
    run_span = spans.Begin("run");
    run_start = Clock::now();
  });
  exp->Run();
  sim::Simulator& simulator = exp->simulator();
  while (!TargetsMet(*workload, *exp)) {
    if (simulator.Now() >= kSimulatedLimit)
      Fail("%s did not meet its targets in the simulated limit", workload->name);
    simulator.RunUntil(simulator.Now() + kStep);
  }
  const double run_s =
      std::chrono::duration<double>(Clock::now() - run_start).count();
  spans.End(run_span);
  const double peak_rss_mb = MbOrFail("VmHWM");
  if (exp->telemetry() != nullptr && !traced)
    Fail("%s", "telemetry is on in a timed run");
  out.Num("setup_s", setup_s);
  out.Num("setup_rss_mb", setup_rss_mb);
  out.Num("run_s", run_s);
  out.Num("peak_rss_mb", peak_rss_mb);

  // The Fig 1-4 and Table III analyses: what a researcher waits for.
  const analysis::StudyInputs inputs = check::MakeStudyInputs(*exp);
  std::uint64_t samples = 0;
  const auto analyse = [&](const char* name, auto&& call) {
    const int span = spans.Begin(name);
    samples += call();
    spans.End(span);
  };
  const int analysis_span = spans.Begin("analysis");
  analyse("analysis.block_propagation", [&] {
    return analysis::BlockPropagationDelays(inputs.observers).items;
  });
  analyse("analysis.tx_propagation", [&] {
    return analysis::TxPropagationDelays(inputs.observers).items;
  });
  analyse("analysis.first_observation", [&] {
    return analysis::FirstObservationShares(inputs.observers).total_blocks;
  });
  analyse("analysis.pool_first_observation", [&] {
    return analysis::PoolFirstObservation(inputs).rows.size();
  });
  analyse("analysis.commit_times", [&] {
    return analysis::TransactionCommitTimes(inputs).committed_txs;
  });
  analyse("analysis.fork_census", [&] {
    return analysis::ComputeForkCensus(inputs).total_blocks;
  });
  const double analysis_s = spans.End(analysis_span);
  spans.End(study_span);
  out.Num("study_s", setup_s + run_s + analysis_s);
  timings.Num("analysis.pipeline_s", analysis_s);
  counts.emplace_back("analysis.samples", samples);

  // Correctness, outside study_s.
  const int oracle_span = spans.Begin("check.oracles");
  check::OracleOptions options;
  options.inject_failure = inject;
  const std::vector<check::OracleFailure> failures =
      check::RunOracles(*exp, options);
  timings.Num("check.oracles_s", spans.End(oracle_span));
  std::string failure_list = "[";
  for (const check::OracleFailure& f : failures) {
    JsonLine item;
    item.Str("oracle", f.oracle);
    item.Str("detail", f.detail);
    failure_list += (failure_list.size() > 1 ? "," : "") + item.Close();
  }
  out.Raw("oracle_failures", failure_list + "]");
  out.Str("digest", ToHex(core::DeterminismDigest(*exp)));

  // Public accessors, read after every run: simulated counts that a pure
  // speed-up must leave identical.
  std::uint64_t peer_links = 0, known = 0, pending = 0, records = 0;
  for (const auto& node : exp->nodes()) {
    peer_links += node->peer_count();
    known += node->known_cache_entries();
    pending += node->pool().pending_count();
  }
  for (const auto& observer : exp->observers())
    records += observer->block_arrivals().size() + observer->tx_arrivals().size();
  counts.insert(
      counts.end(),
      {{"sim.events", simulator.events_executed()},
       {"sim.end_us", static_cast<std::uint64_t>(simulator.Now().micros())},
       {"net.drops", exp->network().messages_dropped()},
       {"eth.peer_links", peer_links},
       {"eth.known_entries", known},
       {"chain.blocks", exp->reference_tree().block_count()},
       {"chain.txpool_pending", pending},
       {"miner.blocks_minted", exp->minted().size()},
       {"workload.submitted", exp->workload().total_submitted()},
       {"measure.records", records},
       {"fault.churn_leaves",
        exp->fault() != nullptr ? exp->fault()->stats().churn_leaves : 0},
       {"nodes", exp->nodes().size()}});

  if (traced) {
    const obs::Telemetry& telemetry = *exp->telemetry();
    const obs::MetricsRegistry& registry = *telemetry.metrics();
    timings.Num("sim.handler_s",
                telemetry.profiler()->callback_total_ns() / 1e9);
    counts.emplace_back("sim.heap_high_water",
                        simulator.Snapshot().heap_high_water);
    std::vector<std::string> kinds, regions;
    for (std::size_t k = 0; k < obs::kMsgKindCount; ++k) {
      kinds.emplace_back(obs::MsgKindName(static_cast<obs::MsgKind>(k)));
      counts.emplace_back(
          "net.msgs." + kinds.back(),
          CounterSum(registry, "net.msg.sent", "kind", {kinds.back()}));
    }
    for (const net::Region region : net::AllRegions())
      regions.emplace_back(net::RegionShortName(region));
    counts.emplace_back(
        "net.bytes", CounterSum(registry, "net.msg.sent_bytes", "kind", kinds));
    counts.emplace_back(
        "eth.tx_received",
        CounterSum(registry, "eth.tx.received", "region", regions));
    counts.emplace_back(
        "eth.blocks_imported",
        CounterSum(registry, "eth.block.imported", "region", regions));
    for (const auto& [name, value] : counts)
      spans.Count(run_span, name, static_cast<double>(value));
    RunReplayProbes(*exp, spans, timings);

    std::ofstream trace_file(traced_path);
    spans.WriteChromeTrace(trace_file);
    if (!trace_file) Fail("cannot write %s", traced_path.c_str());
  }

  JsonLine count_json;
  for (const auto& [name, value] : counts) count_json.Int(name, value);
  out.Raw("counts", count_json.Close());
  out.Raw("timings", timings.Close());
  std::printf("%s\n", out.Close().c_str());
  std::fflush(stdout);
  (void)exp.release();
  return 0;
}
