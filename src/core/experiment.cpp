#include "core/experiment.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "net/geo.hpp"
#include "obs/diag.hpp"
#include "obs/progress.hpp"
#include "p2p/kademlia.hpp"

namespace ethsim::core {

Experiment::Experiment(ExperimentConfig config) : config_(std::move(config)) {}

void Experiment::Build() {
  if (built_) return;
  built_ = true;

  // Reject structurally invalid configs up front (negative probabilities
  // would otherwise flow into Rng::NextBool unchecked), and surface the one
  // legal-but-surprising setting: rate 0 with no plan means no transactions
  // are ever submitted.
  if (const std::string problem = config_.Validate(); !problem.empty()) {
    obs::LogError("config", "invalid experiment config: %s", problem.c_str());
    throw std::invalid_argument("ExperimentConfig: " + problem);
  }
  if (config_.workload_plan.empty() && config_.workload.rate_per_sec <= 0)
    obs::LogWarn("config",
                 "workload.rate_per_sec <= 0 with an empty workload plan: "
                 "no transactions will be submitted this run");

  // Telemetry first: every component below attaches to it during
  // construction. A fully-disabled config keeps the pointer null, so the
  // attach calls become no-ops and hot paths pay one predicted branch.
  if (config_.telemetry.any())
    telemetry_ = std::make_unique<obs::Telemetry>(config_.telemetry);

  Rng master{config_.seed};
  net_ = std::make_unique<net::Network>(sim_, master.Fork("network"),
                                        config_.net_params);
  net_->AttachTelemetry(telemetry_.get());
  if (telemetry_ != nullptr) sim_.set_profiler(telemetry_->profiler());

  // Genesis difficulty pins the initial pace to the target interval.
  chain::Block genesis;
  genesis.header.number = config_.genesis_number;
  genesis.header.difficulty = static_cast<std::uint64_t>(
      config_.mining.total_hashrate * config_.mining.target_interval.seconds());
  genesis.Seal();
  genesis_ = arena_.Adopt(std::move(genesis));
  dag_.emplace(genesis_);

  Rng ids = master.Fork("node-ids");
  Rng placement = master.Fork("placement");
  Rng node_rngs = master.Fork("node-rngs");

  auto add_node = [&](net::Region region, double bandwidth,
                      const eth::NodeConfig& node_cfg) -> eth::EthNode* {
    const net::HostId host = net_->AddHost({region, bandwidth});
    nodes_.push_back(std::make_unique<eth::EthNode>(
        sim_, *net_, txs_, *dag_, host, p2p::RandomNodeId(ids),
        node_cfg, node_rngs.Fork(nodes_.size())));
    nodes_.back()->AttachTelemetry(
        telemetry_.get(), static_cast<std::uint32_t>(nodes_.size() - 1));
    return nodes_.back().get();
  };

  // 1. Pool gateways (well-provisioned hosts), one node per declared
  //    gateway, in spec order so release weights line up.
  coordinator_ = std::make_unique<miner::MiningCoordinator>(
      sim_, arena_, master.Fork("mining"), config_.mining, config_.pools);
  coordinator_->AttachTelemetry(telemetry_.get());
  for (std::size_t p = 0; p < config_.pools.size(); ++p) {
    for (const auto& gw : config_.pools[p].gateways) {
      eth::EthNode* node = add_node(gw.region, 1e9, config_.gateway_config);
      coordinator_->AddGateway(p, node);
    }
  }

  // 2. Plain overlay nodes, placed by the region weight vector.
  const std::vector<double> region_weights(config_.node_region_weights.begin(),
                                           config_.node_region_weights.end());
  AliasSampler region_sampler{region_weights};
  for (std::size_t i = 0; i < config_.peer_nodes; ++i) {
    const auto region =
        static_cast<net::Region>(region_sampler.Sample(placement));
    eth::NodeConfig node_cfg = config_.node_config;
    node_cfg.validation_speed_factor = std::clamp(
        placement.NextLogNormal(config_.plain_validation_mu,
                                config_.plain_validation_sigma),
        0.3, 12.0);
    add_node(region, 100e6, node_cfg);
  }

  // 3. Vantage observers (§II: backbone-grade links, instrumented client).
  net::ClockModel clocks{master.Fork("ntp")};
  for (const auto& vantage : config_.vantages) {
    eth::EthNode* node = add_node(vantage.region, 8e9, config_.observer_config);
    observers_.push_back(std::make_unique<measure::Observer>(
        vantage.name, vantage.region, sim_, clocks.SampleOffset()));
    observers_.back()->Attach(*node);
  }

  BuildTopology(master.Fork("topology"));

  // 4. Transaction workload submits through plain nodes (not gateways, not
  //    observers — vantages are passive, like the paper's).
  std::vector<eth::EthNode*> frontends;
  const std::size_t gateway_count = nodes_.size() - observers_.size() -
                                    config_.peer_nodes;
  for (std::size_t i = gateway_count; i < gateway_count + config_.peer_nodes; ++i)
    frontends.push_back(nodes_[i].get());
  if (frontends.empty())  // degenerate configs: fall back to gateways
    for (std::size_t i = 0; i < gateway_count; ++i)
      frontends.push_back(nodes_[i].get());
  workload_ = std::make_unique<workload::WorkloadGenerator>(
      sim_, master.Fork("workload"), config_.workload, config_.workload_plan,
      frontends);
  workload_->AttachTelemetry(telemetry_.get());

  // 5. Fault controller — only when the plan is non-empty, so a fault-free
  //    config builds the exact object graph (and RNG stream set) it always
  //    did. Fork("fault") is keyed off the master seed alone, so armed fault
  //    schedules are independent of every other stream.
  if (!config_.fault_plan.empty()) {
    fault_ = std::make_unique<fault::FaultController>(
        sim_, master.Fork("fault"), config_.fault_plan);
    fault::FaultController::Bindings bindings;
    bindings.network = net_.get();
    bindings.nodes.reserve(nodes_.size());
    for (const auto& node : nodes_) bindings.nodes.push_back(node.get());
    bindings.gateway_count = gateway_count;
    bindings.observer_start = nodes_.size() - observers_.size();
    bindings.coordinator = coordinator_.get();
    for (const auto& observer : observers_)
      bindings.observers.push_back(observer.get());
    for (std::size_t p = 0; p < config_.pools.size(); ++p)
      for (std::size_t g = 0; g < config_.pools[p].gateways.size(); ++g)
        bindings.gateway_pool.push_back(p);
    fault_->Bind(std::move(bindings));
    fault_->AttachTelemetry(telemetry_.get());
    fault_->Arm();
  }

  // 6. State-sampler probes, registered last so every probed component
  //    exists. Registration fixes the series table (a function of config
  //    alone); nothing is scheduled until Run.
  if (telemetry_ != nullptr && telemetry_->sampler() != nullptr)
    RegisterSamplerProbes();

  // 7. Tx-lifecycle recorder roles: the reference view (pool 0's primary
  //    gateway — nodes_[0], built first) anchors inclusion/commit stages;
  //    vantage observers record first-seen. Marked after every node has
  //    registered its host in AttachTelemetry.
  if (telemetry_ != nullptr && telemetry_->txprov() != nullptr) {
    obs::TxProvRecorder* txprov = telemetry_->txprov();
    txprov->MarkAnchor(nodes_.front()->host());
    const std::size_t observer_start = nodes_.size() - observers_.size();
    for (std::size_t i = observer_start; i < nodes_.size(); ++i)
      txprov->MarkVantage(nodes_[i]->host());
  }
}

void Experiment::RegisterSamplerProbes() {
  obs::StateSampler* s = telemetry_->sampler();
  const auto i64 = [](auto v) { return static_cast<std::int64_t>(v); };

  // Engine: event-queue depth and slot-arena occupancy.
  s->AddProbe("sim.queue.pending", [this, i64] { return i64(sim_.pending()); });
  s->AddProbe("sim.arena.slots",
              [this, i64] { return i64(sim_.Snapshot().slots_allocated); });
  s->AddProbe("sim.arena.free",
              [this, i64] { return i64(sim_.Snapshot().free_slots); });

  // Network: transit backlog plus per-reason drop deltas (the mutable `last`
  // capture turns the cumulative census into per-interval deltas; probe
  // state, not simulation state).
  net::Network* net = net_.get();
  s->AddProbe("net.inflight.msgs",
              [net, i64] { return i64(net->inflight_messages()); });
  s->AddProbe("net.inflight.bytes",
              [net, i64] { return i64(net->inflight_bytes()); });
  for (std::size_t r = 0; r < net::kDropReasonCount; ++r) {
    const auto reason = static_cast<net::DropReason>(r);
    s->AddProbe("net.drops." + std::string(net::DropReasonName(reason)),
                [net, reason, last = std::int64_t{0}]() mutable {
                  const auto now =
                      static_cast<std::int64_t>(net->dropped_by(reason));
                  const std::int64_t delta = now - last;
                  last = now;
                  return delta;
                });
  }

  // Chain + eth state, aggregated over the node fleet (sum for backlog mass,
  // max for the worst straggler).
  const auto* nodes = &nodes_;
  const auto fleet = [nodes, i64](auto&& per_node, bool want_max) {
    std::int64_t sum = 0, peak = 0;
    for (const auto& node : *nodes) {
      const std::int64_t v = i64(per_node(*node));
      sum += v;
      peak = std::max(peak, v);
    }
    return want_max ? peak : sum;
  };
  s->AddProbe("txpool.pending.sum", [fleet] {
    return fleet([](const eth::EthNode& n) { return n.pool().pending_count(); },
                 false);
  });
  s->AddProbe("txpool.pending.max", [fleet] {
    return fleet([](const eth::EthNode& n) { return n.pool().pending_count(); },
                 true);
  });
  s->AddProbe("txpool.queued.sum", [fleet] {
    return fleet([](const eth::EthNode& n) { return n.pool().queued_count(); },
                 false);
  });
  s->AddProbe("txpool.heads.sum", [fleet] {
    return fleet([](const eth::EthNode& n) { return n.pool().heads_count(); },
                 false);
  });
  s->AddProbe("chain.blocks.max", [fleet] {
    return fleet([](const eth::EthNode& n) { return n.tree().block_count(); },
                 true);
  });
  s->AddProbe("chain.orphans.sum", [fleet] {
    return fleet([](const eth::EthNode& n) { return n.tree().orphan_count(); },
                 false);
  });
  // Chain-state bytes: the per-node views, and the world DAG they share.
  s->AddProbe("chain.tree.bytes.sum", [fleet] {
    return fleet(
        [](const eth::EthNode& n) { return n.tree().allocated_bytes(); },
        false);
  });
  const chain::BlockDag* dag = &*dag_;
  s->AddProbe("chain.dag.bytes",
              [dag, i64] { return i64(dag->allocated_bytes()); });
  // Tx-state bytes: the per-node pools, and the world store whose ids they
  // hold.
  s->AddProbe("chain.txpool.bytes.sum", [fleet] {
    return fleet(
        [](const eth::EthNode& n) { return n.pool().allocated_bytes(); },
        false);
  });
  const chain::TxStore* store = &txs_;
  s->AddProbe("chain.txstore.bytes",
              [store, i64] { return i64(store->allocated_bytes()); });
  s->AddProbe("eth.peers.sum", [fleet] {
    return fleet([](const eth::EthNode& n) { return n.peer_count(); }, false);
  });
  s->AddProbe("eth.known.sum", [fleet] {
    return fleet(
        [](const eth::EthNode& n) { return n.known_cache_entries(); }, false);
  });
  s->AddProbe("eth.known.bytes.sum", [fleet] {
    return fleet(
        [](const eth::EthNode& n) { return n.known_cache_bytes(); }, false);
  });
  const auto* observers = &observers_;
  s->AddProbe("measure.records.bytes", [observers, i64] {
    std::size_t total = 0;
    for (const auto& observer : *observers)
      total += observer->allocated_bytes();
    return i64(total);
  });
  s->AddProbe("eth.offline.nodes", [fleet] {
    return fleet([](const eth::EthNode& n) { return n.online() ? 0 : 1; },
                 false);
  });

  // Demand side: cumulative offered load plus a per-interval delta. The
  // closed-loop/replacement series exist exactly when a traffic plan does
  // (series table = pure function of config, like the fault markers below).
  const workload::WorkloadGenerator* wl = workload_.get();
  s->AddProbe("workload.submitted.total",
              [wl, i64] { return i64(wl->total_submitted()); });
  s->AddProbe("workload.offered.delta",
              [wl, last = std::int64_t{0}]() mutable {
                const auto now = static_cast<std::int64_t>(wl->total_submitted());
                const std::int64_t delta = now - last;
                last = now;
                return delta;
              });
  if (!config_.workload_plan.empty()) {
    s->AddProbe("workload.closed_loop.in_flight",
                [wl, i64] { return i64(wl->closed_loop_in_flight()); });
    s->AddProbe("workload.tracked.in_flight",
                [wl, i64] { return i64(wl->tracked_in_flight()); });
    s->AddProbe("workload.replacements.total",
                [wl, i64] { return i64(wl->replacements_issued()); });
  }

  // Mining-pool gateway state.
  const miner::MiningCoordinator* coord = coordinator_.get();
  s->AddProbe("miner.blocks_found",
              [coord, i64] { return i64(coord->blocks_found()); });
  s->AddProbe("miner.gateways.online",
              [coord, i64] { return i64(coord->online_gateways()); });
  s->AddProbe("miner.releases.parked",
              [coord, i64] { return i64(coord->parked_releases()); });

  // Fault-window markers, present exactly when a fault plan is (so the
  // series table stays a pure function of config). These let the inspect
  // tool line a partition window up against the backlog series.
  if (fault_ != nullptr) {
    s->AddProbe("net.partition.active",
                [net] { return net->partition_active() ? 1 : 0; });
    s->AddProbe("net.degradation.active",
                [net] { return net->degradation_active() ? 1 : 0; });
    const fault::FaultController* fc = fault_.get();
    s->AddProbe("fault.injected",
                [fc, i64] { return i64(fc->stats().total_injected()); });
  }
}

void Experiment::ScheduleSamplerTick(obs::StateSampler* sampler,
                                     TimePoint end) {
  const TimePoint next = sim_.Now() + Duration::Micros(sampler->interval_us());
  if (next.micros() > end.micros()) return;
  sim_.ScheduleAt(next, [this, sampler, end] {
    sampler->SampleNow(sim_.Now().micros());
    ScheduleSamplerTick(sampler, end);
  });
}

void Experiment::BuildTopology(Rng rng) {
  // Discovery: every node's routing table is filled from three random
  // bootstrap nodes via iterative FindNode lookups against the global id
  // registry, then the node dials lookup results — geography-blind, as in
  // devp2p. Observers dial `connect_peers` peers; plain nodes dial
  // `dials_per_node` and accept the rest.
  const std::size_t n = nodes_.size();
  assert(n >= 2);

  std::unordered_map<Hash32, std::size_t> index_of;
  std::vector<p2p::NodeId> all_ids;
  all_ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    index_of.emplace(nodes_[i]->id(), i);
    all_ids.push_back(nodes_[i]->id());
  }

  // Every node's full table (the steady-state content of a long-running
  // discovery daemon), held once; freed when the build returns.
  const p2p::Registry registry{all_ids};
  const auto query = [&](const p2p::NodeId& node, const p2p::NodeId& target) {
    return registry.Closest(index_of.at(node), target, p2p::kBucketSize);
  };

  const std::size_t observer_start = n - observers_.size();
  std::size_t gateway_count = 0;
  for (const auto& pool : config_.pools) gateway_count += pool.gateways.size();
  for (std::size_t i = 0; i < n; ++i) {
    eth::EthNode& node = *nodes_[i];
    const bool is_observer = i >= observer_start;
    const bool is_gateway = i < gateway_count;
    const std::size_t want_dials =
        is_observer ? config_.vantages[i - observer_start].connect_peers
        : is_gateway ? config_.gateway_dials
                     : config_.dials_per_node;

    // Local table seeded with 3 bootstrap nodes.
    p2p::RoutingTable local{node.id()};
    for (int b = 0; b < 3; ++b)
      local.Add(all_ids[rng.NextBounded(all_ids.size())]);

    // Observers optionally skip gateway nodes (a small-world scale
    // correction; see ExperimentConfig::observers_avoid_gateways).
    std::unordered_map<Hash32, char> gateway_ids;
    if (is_observer && config_.observers_avoid_gateways)
      for (std::size_t g = 0; g < gateway_count; ++g)
        gateway_ids.emplace(nodes_[g]->id(), 0);
    auto dialable = [&](const p2p::NodeId& candidate) {
      return !gateway_ids.contains(candidate);
    };

    std::size_t dialed = 0;
    int lookups = 0;
    const int max_lookups = static_cast<int>(want_dials) + 32;
    while (dialed < want_dials && lookups < max_lookups) {
      ++lookups;
      const p2p::NodeId target = p2p::RandomNodeId(rng);
      const auto found =
          p2p::IterativeFindNode(local, target, p2p::kBucketSize, query);
      for (const auto& candidate : found) {
        if (dialed >= want_dials) break;
        if (candidate == node.id() || !dialable(candidate)) continue;
        eth::EthNode* other = nodes_[index_of.at(candidate)].get();
        if (eth::EthNode::Connect(node, *other)) ++dialed;
        local.Add(candidate);
      }
    }
    // Fallback for saturated neighborhoods: random dials.
    int attempts = 0;
    while (dialed < want_dials && attempts < 20 * static_cast<int>(n)) {
      ++attempts;
      eth::EthNode* other = nodes_[rng.NextBounded(n)].get();
      if (!dialable(other->id())) continue;
      if (eth::EthNode::Connect(node, *other)) ++dialed;
    }
  }
}

void Experiment::Run() {
  if (ran_) return;
  ran_ = true;
  Build();

  const TimePoint end = TimePoint::FromMicros(config_.duration.micros());

  // Sampling cadence: one baseline row at t=0 (before any event fires), then
  // a self-rescheduling tick every interval. Gate off -> nothing scheduled,
  // zero RNG draws, goldens byte-identical.
  obs::StateSampler* sampler =
      telemetry_ != nullptr ? telemetry_->sampler() : nullptr;
  if (sampler != nullptr) {
    sampler->SampleNow(0);
    ScheduleSamplerTick(sampler, end);
  }

  coordinator_->Start();
  workload_->Start();

  const obs::ProgressConfig progress_cfg = obs::ProgressConfig::FromEnv();
  if (progress_cfg.enabled) {
    // Chunked RunUntil is execution-order-identical to a single call (events
    // with ts <= boundary fire, the clock snaps to the boundary, and nothing
    // runs between chunks), but the silent path below stays one call so the
    // default configuration is trivially untouched.
    obs::ProgressReporter progress(progress_cfg, "experiment",
                                   config_.duration.micros());
    const std::int64_t total = config_.duration.micros();
    const std::int64_t chunk = std::max<std::int64_t>(total / 128, 1);
    for (std::int64_t t = chunk; t < total; t += chunk) {
      sim_.RunUntil(TimePoint::FromMicros(t));
      progress.Report(sim_.Now().micros(), sim_.events_executed());
    }
    sim_.RunUntil(end);
    progress.Finish(sim_.Now().micros(), sim_.events_executed());
  } else {
    sim_.RunUntil(end);
  }

  // Pin the provenance artifact's cutoff: edges scheduled past the end of
  // the run were still in flight and must not count as delivered.
  if (telemetry_ != nullptr) {
    if (obs::ProvenanceRecorder* prov = telemetry_->provenance())
      prov->SetEndTime(sim_.Now().micros());
    if (obs::TxProvRecorder* txprov = telemetry_->txprov())
      txprov->SetEndTime(sim_.Now().micros());
  }

  // One top-level span covering the whole simulated interval, so a loaded
  // trace shows the run envelope even with aggressive category filters.
  if (telemetry_ != nullptr) {
    if (obs::Tracer* tracer = telemetry_->tracer();
        tracer != nullptr && tracer->enabled(obs::TraceCategory::kSim)) {
      obs::TraceEvent event;
      event.name = "experiment.run";
      event.ts_us = 0;
      event.dur_us = sim_.Now().micros();
      event.arg_num = sim_.events_executed();
      event.cat = obs::TraceCategory::kSim;
      event.phase = 'X';
      tracer->Emit(event);
    }
  }
}

}  // namespace ethsim::core
