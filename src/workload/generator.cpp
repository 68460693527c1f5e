#include "workload/generator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/diag.hpp"
#include "obs/metrics.hpp"

namespace ethsim::workload {

namespace {
constexpr double kTwoPi = 6.283185307179586;
constexpr std::uint64_t kMaxGasPrice = 10'000;
}  // namespace

WorkloadGenerator::WorkloadGenerator(sim::Simulator& simulator, Rng rng,
                                     TxWorkloadParams legacy_params,
                                     WorkloadPlan plan,
                                     std::vector<eth::EthNode*> frontends)
    : sim_(simulator),
      rng_(rng),
      params_(legacy_params),
      plan_(std::move(plan)),
      frontends_(std::move(frontends)) {
  assert(!frontends_.empty());
  base_height_ = frontends_.front()->tree().head()->header.number;

  if (plan_.empty()) {
    // Legacy mode: the historical account table and per-account nonces.
    assert(params_.accounts > 0);
    next_nonce_.assign(params_.accounts, 0);
    account_addr_.reserve(params_.accounts);
    for (std::size_t i = 0; i < params_.accounts; ++i)
      account_addr_.push_back(AccountAddress(i));
    return;
  }

  source_submitted_.assign(plan_.sources.size(), 0);
  source_included_.assign(plan_.sources.size(), 0);
  sources_.reserve(plan_.sources.size());
  for (std::size_t i = 0; i < plan_.sources.size(); ++i) {
    const TrafficSource& src = plan_.sources[i];
    SourceState st{rng_.Fork(i)};
    st.last_scanned = base_height_;

    // Frontend affinity: the region's frontends, or (if the fleet has none
    // there, or no affinity is set) everyone.
    if (src.region != kAnyRegion) {
      for (std::uint32_t f = 0; f < frontends_.size(); ++f)
        if (static_cast<std::int32_t>(frontends_[f]->region()) == src.region)
          st.frontends.push_back(f);
    }
    if (st.frontends.empty()) {
      st.frontends.resize(frontends_.size());
      for (std::uint32_t f = 0; f < frontends_.size(); ++f) st.frontends[f] = f;
    }

    // Zipf CDF over the account range: account k has weight (k+1)^-s.
    if (src.zipf_exponent > 0 && src.accounts > 1) {
      st.zipf_cdf.reserve(src.accounts);
      double total = 0;
      for (std::size_t k = 0; k < src.accounts; ++k) {
        total += std::pow(static_cast<double>(k + 1), -src.zipf_exponent);
        st.zipf_cdf.push_back(total);
      }
      for (double& c : st.zipf_cdf) c /= total;
    }

    if (src.kind == SourceKind::kClosedLoop) {
      st.clients.resize(src.clients);
      for (std::size_t c = 0; c < src.clients; ++c)
        st.clients[c].account = src.account_offset + c;
    }

    // Pre-intern the sender addresses so inclusion scans resolve without
    // hashing, and overlapping ranges land on identical Address values.
    for (std::size_t k = 0; k < src.accounts; ++k) {
      const std::uint64_t global = src.account_offset + k;
      if (plan_addr_.contains(global)) continue;
      const Address addr = AccountAddress(global);
      plan_addr_.emplace(global, addr);
      addr_index_.emplace(addr, global);
    }

    sources_.push_back(std::move(st));
  }
}

void WorkloadGenerator::AttachTelemetry(obs::Telemetry* telemetry) {
  if (telemetry == nullptr) return;
  txprov_ = telemetry->txprov();
  obs::MetricsRegistry* metrics = telemetry->metrics();
  if (metrics == nullptr) return;
  submitted_counter_ = metrics->GetCounter("workload.submitted");
  if (plan_.empty()) return;
  replaced_counter_ = metrics->GetCounter("workload.replacements");
  source_counters_.reserve(plan_.sources.size());
  source_included_counters_.reserve(plan_.sources.size());
  for (const TrafficSource& src : plan_.sources) {
    source_counters_.push_back(metrics->GetCounter(
        obs::LabeledName("workload.submitted", {{"source", src.name}})));
    source_included_counters_.push_back(metrics->GetCounter(
        obs::LabeledName("workload.included", {{"source", src.name}})));
  }
}

void WorkloadGenerator::Start() {
  if (plan_.empty()) {
    if (params_.rate_per_sec <= 0) return;
    LegacyScheduleNext();
    return;
  }
  for (std::size_t i = 0; i < plan_.sources.size(); ++i) StartSource(i);
}

// ---------------------------------------------------------------------------
// Legacy mode — the historical core::TxWorkload, draw-for-draw. Any change
// to the RNG consumption order here moves every golden in
// tests/integration/chain_golden_replay_test.cpp.

void WorkloadGenerator::LegacyScheduleNext() {
  const Duration wait =
      Duration::Seconds(rng_.NextExponential(1.0 / params_.rate_per_sec));
  sim_.Schedule(wait, [this] { LegacySubmitOne(); });
}

chain::Transaction WorkloadGenerator::LegacyBuildTx(std::size_t account) {
  const std::uint64_t nonce = next_nonce_[account]++;
  std::uint32_t payload = 0;
  if (params_.payload_mean_bytes > 0)
    payload = static_cast<std::uint32_t>(
        rng_.NextExponential(params_.payload_mean_bytes));
  // Gas prices 1..100 gwei-ish; spread exercises the pool's price ordering.
  const std::uint64_t gas_price = 1 + rng_.NextBounded(100);
  const Address to = AccountAddress(rng_.NextBounded(params_.accounts));
  return chain::MakeTransaction(account_addr_[account], nonce, to,
                                /*value=*/1 + rng_.NextBounded(1'000'000),
                                gas_price, payload);
}

void WorkloadGenerator::LegacySubmitOne() {
  const std::size_t account = rng_.NextBounded(params_.accounts);
  const std::size_t frontend = rng_.NextBounded(frontends_.size());

  const chain::Transaction tx = LegacyBuildTx(account);
  const bool burst = rng_.NextBool(params_.burst_prob);

  if (!burst) {
    Record(tx, sim_.Now(), 0, 0, static_cast<std::uint32_t>(frontend), false,
           false);
    frontends_[frontend]->SubmitTransaction(tx);
    LegacyScheduleNext();
    return;
  }

  // A burst: the follow-up nonce leaves from a different frontend. Normally
  // it trails by a few ms (two gossip waves race; the higher nonce sometimes
  // wins at a vantage — §III-C2). In an *inversion*, the lower nonce is the
  // one stuck behind a slow frontend for seconds, so the higher nonce
  // provably propagates first and must wait in every txpool's queued bucket.
  //
  // With a single frontend there is no "different frontend": both legs leave
  // from the same node, the two gossip waves collapse into one, and the
  // out-of-order race cannot happen. Surface that once instead of silently
  // degrading the scenario (the `other` draw still happens, preserving the
  // historical stream).
  if (frontends_.size() == 1 && !warned_single_frontend_) {
    warned_single_frontend_ = true;
    obs::LogWarn("workload",
                 "burst follow-up reuses the only frontend: with a single "
                 "frontend the SIII-C2 out-of-order race cannot occur");
  }
  const chain::Transaction follow = LegacyBuildTx(account);
  std::size_t other = rng_.NextBounded(frontends_.size());
  if (frontends_.size() > 1 && other == frontend)
    other = (other + 1) % frontends_.size();

  Duration first_delay = Duration::Micros(0);
  Duration follow_delay = Duration::Millis(
      1 + static_cast<std::int64_t>(rng_.NextBounded(40)));
  if (rng_.NextBool(params_.inversion_prob)) {
    first_delay =
        Duration::Seconds(rng_.NextExponential(params_.inversion_delay_mean_s));
    follow_delay = Duration::Micros(0);
  }

  Record(tx, sim_.Now() + first_delay, 0, 0,
         static_cast<std::uint32_t>(frontend), false, true);
  Record(follow, sim_.Now() + follow_delay, 0, 0,
         static_cast<std::uint32_t>(other), false, true);
  sim_.Schedule(first_delay, [this, frontend, tx] {
    frontends_[frontend]->SubmitTransaction(tx);
  });
  sim_.Schedule(follow_delay, [this, other, follow] {
    frontends_[other]->SubmitTransaction(follow);
  });

  LegacyScheduleNext();
}

// ---------------------------------------------------------------------------
// Plan mode.

void WorkloadGenerator::StartSource(std::size_t source) {
  const TrafficSource& src = plan_.sources[source];
  const bool active = src.kind == SourceKind::kClosedLoop
                          ? src.clients > 0
                          : src.rate_per_sec > 0;
  // A disabled source consumes nothing: no RNG draw, no event — its Fork(i)
  // stream stays untouched, so every other source is bit-identical with or
  // without it (the isolation contract the unit tests pin).
  if (!active) return;

  if (NeedsTracking(src)) SchedulePoll(source);
  if (src.kind == SourceKind::kClosedLoop) {
    for (std::size_t c = 0; c < sources_[source].clients.size(); ++c)
      ScheduleClientSubmit(source, c);
  } else {
    ScheduleArrival(source);
  }
}

double WorkloadGenerator::PeakRate(const TrafficSource& src) const {
  switch (src.kind) {
    case SourceKind::kDiurnal:
      return src.rate_per_sec * (1.0 + src.diurnal_amplitude);
    case SourceKind::kFlashCrowd:
      return src.rate_per_sec * src.surge_multiplier;
    default:
      return src.rate_per_sec;
  }
}

double WorkloadGenerator::RateAt(const TrafficSource& src,
                                 TimePoint now) const {
  switch (src.kind) {
    case SourceKind::kDiurnal: {
      // The simulation clock starts at UTC midnight; the source's local hour
      // is offset by its region's coarse UTC offset.
      const double hour = std::fmod(
          now.micros() / 3.6e9 +
              RegionUtcOffsetHours(static_cast<net::Region>(src.region)) + 24.0,
          24.0);
      const double phase = kTwoPi * (hour - src.peak_hour) / 24.0;
      return src.rate_per_sec * (1.0 + src.diurnal_amplitude * std::cos(phase));
    }
    case SourceKind::kFlashCrowd: {
      const std::int64_t t = now.micros();
      const bool inside = t >= src.surge_at.micros() &&
                          t < src.surge_at.micros() + src.surge_window.micros();
      return inside ? src.rate_per_sec * src.surge_multiplier
                    : src.rate_per_sec;
    }
    default:
      return src.rate_per_sec;
  }
}

void WorkloadGenerator::ScheduleArrival(std::size_t source) {
  // Thinning (non-homogeneous Poisson): draw candidate arrivals at the peak
  // rate, accept each with probability rate(t)/peak. Flat Poisson sources
  // skip the acceptance draw entirely.
  const double peak = PeakRate(plan_.sources[source]);
  const Duration wait =
      Duration::Seconds(sources_[source].rng.NextExponential(1.0 / peak));
  sim_.Schedule(wait, [this, source] {
    const TrafficSource& src = plan_.sources[source];
    bool accept = true;
    if (src.kind != SourceKind::kPoisson) {
      const double ratio = RateAt(src, sim_.Now()) / PeakRate(src);
      accept = sources_[source].rng.NextBool(ratio);
    }
    if (accept) SubmitFromSource(source, -1);
    ScheduleArrival(source);
  });
}

std::uint64_t WorkloadGenerator::PickAccount(std::size_t source) {
  const TrafficSource& src = plan_.sources[source];
  SourceState& st = sources_[source];
  if (st.zipf_cdf.empty())
    return src.account_offset + st.rng.NextBounded(src.accounts);
  const double u = st.rng.NextDouble();
  const auto it = std::lower_bound(st.zipf_cdf.begin(), st.zipf_cdf.end(), u);
  const std::size_t k = std::min<std::size_t>(
      static_cast<std::size_t>(it - st.zipf_cdf.begin()), src.accounts - 1);
  return src.account_offset + k;
}

std::uint32_t WorkloadGenerator::PickFrontend(std::size_t source) {
  SourceState& st = sources_[source];
  return st.frontends[st.rng.NextBounded(st.frontends.size())];
}

std::uint64_t WorkloadGenerator::DrawGasPrice(std::size_t source) {
  const FeeModel& fee = plan_.sources[source].fee;
  const double raw = sources_[source].rng.NextLogNormal(fee.gas_price_mu,
                                                        fee.gas_price_sigma);
  const double clamped =
      std::clamp(raw, 1.0, static_cast<double>(kMaxGasPrice));
  return static_cast<std::uint64_t>(clamped);
}

chain::Transaction WorkloadGenerator::PlanBuildTx(std::size_t source,
                                                  std::uint64_t account,
                                                  std::uint64_t nonce,
                                                  std::uint64_t gas_price) {
  const TrafficSource& src = plan_.sources[source];
  SourceState& st = sources_[source];
  std::uint32_t payload = 0;
  if (src.payload_mean_bytes > 0)
    payload = static_cast<std::uint32_t>(
        st.rng.NextExponential(src.payload_mean_bytes));
  const std::uint64_t to_index =
      src.account_offset + st.rng.NextBounded(src.accounts);
  return chain::MakeTransaction(plan_addr_.at(account), nonce,
                                plan_addr_.at(to_index),
                                /*value=*/1 + st.rng.NextBounded(1'000'000),
                                gas_price, payload);
}

void WorkloadGenerator::SubmitFromSource(std::size_t source,
                                         std::int32_t client) {
  const TrafficSource& src = plan_.sources[source];
  SourceState& st = sources_[source];
  const std::uint64_t account = client >= 0
                                    ? st.clients[client].account
                                    : PickAccount(source);
  const std::uint32_t frontend = PickFrontend(source);
  // Nonces are global per account: sources sharing an account range contend
  // on the same stream, so their consecutive nonces race through different
  // frontends — the hot-account out-of-order shape.
  const std::uint64_t nonce = plan_next_nonce_[account]++;
  const std::uint64_t gas_price = DrawGasPrice(source);
  const chain::Transaction tx = PlanBuildTx(source, account, nonce, gas_price);
  frontends_[frontend]->SubmitTransaction(tx);
  Record(tx, sim_.Now(), source, 0, frontend, client >= 0, false);

  if (!NeedsTracking(src)) return;
  PendingTrack track;
  track.nonce = nonce;
  track.hash = tx.hash;
  track.gas_price = gas_price;
  track.submitted_at = sim_.Now();
  track.frontend = frontend;
  track.client = client;
  track.account = account;
  st.tracked[tx.sender].push_back(track);
  ++tracked_in_flight_;
  if (client >= 0) {
    st.clients[client].in_flight = true;
    ++closed_loop_in_flight_;
  }
  if (src.fee.replacement_deadline.micros() > 0)
    ScheduleReplacement(source, tx.sender, nonce);
}

void WorkloadGenerator::ScheduleReplacement(std::size_t source, Address sender,
                                            std::uint64_t nonce) {
  sim_.Schedule(plan_.sources[source].fee.replacement_deadline,
                [this, source, sender, nonce] {
    SourceState& st = sources_[source];
    const auto it = st.tracked.find(sender);
    if (it == st.tracked.end()) return;
    auto entry = std::find_if(
        it->second.begin(), it->second.end(),
        [nonce](const PendingTrack& t) { return t.nonce == nonce; });
    if (entry == it->second.end()) return;  // included before the deadline
    const TrafficSource& src = plan_.sources[source];
    if (entry->replacement >= src.fee.max_replacements) return;

    // Replace-by-fee: same (sender, nonce), escalated price. The pool treats
    // the higher-priced tx as the replacement; the original becomes dust.
    const std::uint64_t escalated = std::max<std::uint64_t>(
        entry->gas_price + 1,
        static_cast<std::uint64_t>(
            static_cast<double>(entry->gas_price) * src.fee.escalation_factor));
    entry->replacement += 1;
    entry->gas_price = std::min(escalated, kMaxGasPrice);
    const chain::Transaction tx =
        PlanBuildTx(source, entry->account, nonce, entry->gas_price);
    entry->hash = tx.hash;
    frontends_[entry->frontend]->SubmitTransaction(tx);
    Record(tx, sim_.Now(), source, entry->replacement, entry->frontend,
           entry->client >= 0, false);
    ++replacements_issued_;
    if (replaced_counter_ != nullptr) replaced_counter_->Add();
    ScheduleReplacement(source, sender, nonce);
  });
}

void WorkloadGenerator::SchedulePoll(std::size_t source) {
  sim_.Schedule(plan_.sources[source].poll_interval, [this, source] {
    PollInclusions(source);
    SchedulePoll(source);
  });
}

void WorkloadGenerator::PollInclusions(std::size_t source) {
  const TrafficSource& src = plan_.sources[source];
  SourceState& st = sources_[source];
  // The source's clients all watch one representative frontend's chain view
  // (deterministic: the first frontend of the affinity list). Closed-loop
  // clients wait for commit_depth confirmations; replacement tracking
  // resolves at inclusion (depth 0).
  const chain::BlockTree& tree = frontends_[st.frontends.front()]->tree();
  const std::uint64_t depth =
      src.kind == SourceKind::kClosedLoop ? src.commit_depth : 0;
  const std::uint64_t head = tree.head_number();
  if (head < depth) return;
  const std::uint64_t confirmed = head - depth;
  for (std::uint64_t h = st.last_scanned + 1; h <= confirmed; ++h) {
    const chain::BlockPtr block = tree.Get(tree.CanonicalAt(h));
    if (block == nullptr) break;
    for (const chain::Transaction& tx : block->transactions)
      ResolveInclusion(source, tx);
    st.last_scanned = h;
  }
}

void WorkloadGenerator::ResolveInclusion(std::size_t source,
                                         const chain::Transaction& tx) {
  SourceState& st = sources_[source];
  const auto it = st.tracked.find(tx.sender);
  if (it == st.tracked.end()) return;
  auto& entries = it->second;
  for (std::size_t i = 0; i < entries.size();) {
    // An included nonce resolves its own entry and any lower one (nonce
    // monotonicity: lower nonces were necessarily executed earlier).
    if (entries[i].nonce > tx.nonce) {
      ++i;
      continue;
    }
    const PendingTrack entry = entries[i];
    entries[i] = entries.back();
    entries.pop_back();
    --tracked_in_flight_;
    ++source_included_[source];
    if (!source_included_counters_.empty() &&
        source_included_counters_[source] != nullptr)
      source_included_counters_[source]->Add();
    if (entry.client >= 0) {
      st.clients[entry.client].in_flight = false;
      --closed_loop_in_flight_;
      ++closed_loop_completed_;
      ScheduleClientSubmit(source, static_cast<std::size_t>(entry.client));
    }
  }
  if (entries.empty()) st.tracked.erase(it);
}

void WorkloadGenerator::ScheduleClientSubmit(std::size_t source,
                                             std::size_t client) {
  const TrafficSource& src = plan_.sources[source];
  SourceState& st = sources_[source];
  // First submissions stagger clients across one think interval; follow-ups
  // think after seeing the previous tx commit.
  const Duration think = Duration::Seconds(
      st.rng.NextExponential(src.think_time_mean.seconds()));
  sim_.Schedule(think, [this, source, client] {
    if (sources_[source].clients[client].in_flight) return;
    SubmitFromSource(source, static_cast<std::int32_t>(client));
  });
}

void WorkloadGenerator::Record(const chain::Transaction& tx, TimePoint at,
                               std::size_t source, std::uint16_t replacement,
                               std::uint32_t frontend, bool closed_loop,
                               bool burst) {
  SubmittedTx rec;
  rec.hash = tx.hash;
  rec.sender = tx.sender;
  rec.nonce = tx.nonce;
  rec.submitted_at = at;
  rec.part_of_burst = burst;
  rec.source = static_cast<std::uint16_t>(source);
  rec.replacement = replacement;
  rec.region = static_cast<std::uint8_t>(frontends_[frontend]->region());
  rec.closed_loop = closed_loop;
  rec.gas_price = tx.gas_price;
  submitted_.push_back(rec);
  // Stamped with the submission time `at` (legacy bursts record at
  // scheduling time), so the stage timeline lines up with SubmittedTx rows.
  if (txprov_ != nullptr) [[unlikely]]
    txprov_->RecordSubmitted(tx.hash, at.micros(), frontends_[frontend]->host(),
                             static_cast<std::uint16_t>(source), tx.gas_price,
                             replacement);
  if (!source_submitted_.empty()) ++source_submitted_[source];
  if (submitted_counter_ != nullptr) submitted_counter_->Add();
  if (!source_counters_.empty() && source_counters_[source] != nullptr)
    source_counters_[source]->Add();
}

}  // namespace ethsim::workload
