#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace ethsim::net {

std::string_view DropReasonName(DropReason reason) {
  switch (reason) {
    case DropReason::kRandomLoss: return "random_loss";
    case DropReason::kPartitioned: return "partitioned";
    case DropReason::kDegraded: return "degraded";
    case DropReason::kOffline: return "offline";
  }
  return "?";
}

namespace {

// Home slot of a FIFO pair key in a table of 1 << bits slots (Fibonacci
// hashing: the top bits of key * 2^64/phi).
std::size_t PairHome(std::uint64_t key, unsigned bits) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                  (64 - bits));
}

}  // namespace

Network::Network(sim::Simulator& simulator, Rng rng, NetworkParams params)
    : sim_(simulator), rng_(rng), params_(params) {}

HostId Network::AddHost(HostSpec spec) {
  hosts_.push_back(spec);
  return static_cast<HostId>(hosts_.size() - 1);
}

Duration Network::SampleDelay(HostId from, HostId to, std::size_t bytes) {
  assert(from < hosts_.size() && to < hosts_.size());
  const HostSpec& src = hosts_[from];
  const HostSpec& dst = hosts_[to];

  const Duration base = BaseOneWayLatency(src.region, dst.region);
  // Lognormal with median 1.0: multiplicative jitter never goes negative and
  // has the heavy right tail real paths show.
  double jitter = rng_.NextLogNormal(0.0, params_.jitter_sigma);
  if (params_.slow_path_prob > 0 && rng_.NextBool(params_.slow_path_prob))
    jitter *= rng_.NextRange(2.0, params_.slow_path_factor_max);
  double latency_us = static_cast<double>(base.micros()) *
                      params_.latency_scale * jitter;

  double bw = std::min(src.bandwidth_bps, dst.bandwidth_bps);
  // Degradation window (fault layer): stretch latency / shrink bandwidth on
  // links touching the scoped regions. Applied after every RNG draw above,
  // so activating a window never shifts the jitter stream itself.
  if (degradation_active_) [[unlikely]] {
    const std::uint32_t touched =
        (1u << static_cast<unsigned>(src.region)) |
        (1u << static_cast<unsigned>(dst.region));
    if ((touched & degradation_.region_mask) != 0) {
      latency_us *= degradation_.latency_factor;
      bw /= degradation_.bandwidth_factor;
    }
  }
  const double transfer_us = static_cast<double>(bytes) * 8.0 / bw * 1e6;

  return Duration::Micros(static_cast<std::int64_t>(latency_us + transfer_us)) +
         params_.per_message_overhead;
}

void Network::AttachTelemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  tracer_ = nullptr;
  // In-flight accounting exists for the sampler's probes alone; without one
  // Send schedules the raw callback and the counters stay untouched.
  track_inflight_ = telemetry != nullptr && telemetry->sampler() != nullptr;
  sent_count_.fill(nullptr);
  sent_bytes_.fill(nullptr);
  for (auto& row : drop_count_) row.fill(nullptr);
  delay_hist_ = nullptr;
  if (telemetry_ == nullptr) return;

  if (obs::Tracer* tracer = telemetry_->tracer();
      tracer != nullptr && tracer->enabled(obs::TraceCategory::kNet)) {
    tracer_ = tracer;
  }

  obs::MetricsRegistry* metrics = telemetry_->metrics();
  if (metrics == nullptr) {
    // No registry: keep only the tracer (if any). The always-on census still
    // records drops.
    if (tracer_ == nullptr) telemetry_ = nullptr;
    return;
  }

  // Register every (kind) and (kind, region) combination up front so the
  // registry contents — and therefore the metrics.jsonl stream — are a fixed
  // function of the config, not of which messages happened to flow.
  for (std::size_t k = 0; k < obs::kMsgKindCount; ++k) {
    const auto kind = static_cast<obs::MsgKind>(k);
    const std::string_view kind_name = obs::MsgKindName(kind);
    sent_count_[k] = metrics->GetCounter(
        obs::LabeledName("net.msg.sent", {{"kind", kind_name}}));
    sent_bytes_[k] = metrics->GetCounter(
        obs::LabeledName("net.msg.sent_bytes", {{"kind", kind_name}}));
    for (Region region : AllRegions()) {
      drop_count_[k][static_cast<std::size_t>(region)] = metrics->GetCounter(
          obs::LabeledName("net.msg.dropped",
                           {{"kind", kind_name},
                            {"region", RegionShortName(region)}}));
    }
  }
  for (std::size_t r = 0; r < kDropReasonCount; ++r)
    drop_reason_count_[r] = metrics->GetCounter(obs::LabeledName(
        "net.msg.dropped_reason",
        {{"reason", DropReasonName(static_cast<DropReason>(r))}}));
  delay_hist_ =
      metrics->GetHistogram("net.delay_us", obs::LatencyBucketsUs());
}

void Network::SetPartition(std::uint32_t side_a_region_mask) {
  partition_active_ = true;
  partition_mask_ = side_a_region_mask;
}

void Network::ClearPartition() {
  partition_active_ = false;
  partition_mask_ = 0;
}

void Network::SetDegradation(const LinkDegradation& degradation) {
  degradation_active_ = true;
  degradation_ = degradation;
}

void Network::ClearDegradation() {
  degradation_active_ = false;
  degradation_ = LinkDegradation{};
}

void Network::CountDrop(obs::MsgKind kind, Region region, DropReason reason) {
  // Cold path: drops are rare by construction, so the census (and the
  // optional registry counters) cost nothing on the common path.
  ++dropped_;
  ++drop_census_[static_cast<std::size_t>(reason)]
                [static_cast<std::size_t>(kind)]
                [static_cast<std::size_t>(region)];
  if (telemetry_ != nullptr) [[unlikely]] {
    if (obs::Counter* c = drop_count_[static_cast<std::size_t>(kind)]
                                     [static_cast<std::size_t>(region)])
      c->Add();
    if (obs::Counter* c = drop_reason_count_[static_cast<std::size_t>(reason)])
      c->Add();
  }
}

void Network::NoteOfflineDrop(obs::MsgKind kind, Region target_region) {
  CountDrop(kind, target_region, DropReason::kOffline);
}

std::int64_t& Network::FifoLastUs(HostId from, HostId to) {
  if (2 * fifo_pairs_ >= fifo_slots_.size()) GrowFifo();
  const std::uint64_t key = (std::uint64_t{from} << 32) | to;
  const std::size_t mask = fifo_slots_.size() - 1;
  std::size_t slot = PairHome(key, fifo_bits_);
  while (fifo_slots_[slot].last_us != kNeverSent &&
         fifo_slots_[slot].key != key)
    slot = (slot + 1) & mask;
  FifoSlot& entry = fifo_slots_[slot];
  if (entry.last_us == kNeverSent) {
    entry.key = key;
    ++fifo_pairs_;
  }
  return entry.last_us;
}

void Network::GrowFifo() {
  const std::vector<FifoSlot> old = std::move(fifo_slots_);
  fifo_bits_ = old.empty() ? 6 : fifo_bits_ + 1;
  fifo_slots_.assign(std::size_t{1} << fifo_bits_, FifoSlot{});
  const std::size_t mask = fifo_slots_.size() - 1;
  for (const FifoSlot& entry : old) {
    if (entry.last_us == kNeverSent) continue;
    std::size_t slot = PairHome(entry.key, fifo_bits_);
    while (fifo_slots_[slot].last_us != kNeverSent) slot = (slot + 1) & mask;
    fifo_slots_[slot] = entry;
  }
}

SendOutcome Network::Send(HostId from, HostId to, std::size_t bytes,
                          obs::MsgKind kind, sim::EventFn deliver) {
  // Partition gate first: deterministic (no RNG), so an armed partition
  // cannot perturb the jitter/drop streams of surviving intra-side traffic.
  if (partition_active_) [[unlikely]] {
    const std::uint32_t side_from =
        (partition_mask_ >> static_cast<unsigned>(hosts_[from].region)) & 1u;
    const std::uint32_t side_to =
        (partition_mask_ >> static_cast<unsigned>(hosts_[to].region)) & 1u;
    if (side_from != side_to) {
      CountDrop(kind, hosts_[from].region, DropReason::kPartitioned);
      return {DropReason::kPartitioned, {}};
    }
  }
  if (params_.drop_prob > 0 && rng_.NextBool(params_.drop_prob)) {
    CountDrop(kind, hosts_[from].region, DropReason::kRandomLoss);
    return {DropReason::kRandomLoss, {}};
  }
  // Degradation loss draws RNG only while a window is active; outside a
  // window this branch is bit-for-bit free.
  if (degradation_active_ && degradation_.extra_drop_prob > 0) [[unlikely]] {
    const std::uint32_t touched =
        (1u << static_cast<unsigned>(hosts_[from].region)) |
        (1u << static_cast<unsigned>(hosts_[to].region));
    if ((touched & degradation_.region_mask) != 0 &&
        rng_.NextBool(degradation_.extra_drop_prob)) {
      CountDrop(kind, hosts_[from].region, DropReason::kDegraded);
      return {DropReason::kDegraded, {}};
    }
  }
  const Duration delay = SampleDelay(from, to, bytes);
  TimePoint arrival = sim_.Now() + delay;

  std::int64_t& last_us = FifoLastUs(from, to);
  // TCP stream semantics: a later send on the same connection can never
  // arrive before an earlier one.
  if (last_us != kNeverSent && arrival.micros() < last_us)
    arrival = TimePoint::FromMicros(last_us);
  last_us = arrival.micros();

  // Record-only instrumentation: nothing below samples rng_ or schedules
  // events, so an attached run replays the detached run exactly.
  if (telemetry_ != nullptr) [[unlikely]] {
    const auto k = static_cast<std::size_t>(kind);
    if (sent_count_[k] != nullptr) {
      sent_count_[k]->Add();
      sent_bytes_[k]->Add(bytes);
      delay_hist_->Observe(arrival.micros() - sim_.Now().micros());
    }
    if (tracer_ != nullptr) {
      obs::TraceEvent event;
      event.name = "net.send";
      event.arg_kind = obs::MsgKindName(kind).data();
      event.ts_us = sim_.Now().micros();
      event.dur_us = arrival.micros() - sim_.Now().micros();
      event.arg_num = bytes;
      event.pid = from;
      event.tid = to;
      event.cat = obs::TraceCategory::kNet;
      event.phase = 'X';
      tracer_->Emit(event);
    }
  }

  if (track_inflight_) [[unlikely]] {
    ++inflight_msgs_;
    inflight_bytes_ += bytes;
    // The wrapper exceeds the Callback SBO and heap-allocates — acceptable
    // on the sampled path, never taken on the default one. Decrement happens
    // before the payload runs so a probe firing at the same instant sees the
    // message as delivered, matching the engine's (time, seq) order.
    sim_.ScheduleAt(arrival, sim::EventFn(
        [this, bytes, fn = std::move(deliver)]() mutable {
          --inflight_msgs_;
          inflight_bytes_ -= bytes;
          fn();
        }));
    return {std::nullopt, arrival};
  }
  sim_.ScheduleAt(arrival, std::move(deliver));
  return {std::nullopt, arrival};
}

std::vector<DropRecord> Network::DropReport() const {
  std::vector<DropRecord> report;
  for (std::size_t reason = 0; reason < kDropReasonCount; ++reason) {
    for (std::size_t k = 0; k < obs::kMsgKindCount; ++k) {
      for (std::size_t r = 0; r < kRegionCount; ++r) {
        const std::uint64_t count = drop_census_[reason][k][r];
        if (count == 0) continue;
        report.push_back(DropRecord{static_cast<obs::MsgKind>(k),
                                    static_cast<Region>(r),
                                    static_cast<DropReason>(reason), count});
      }
    }
  }
  return report;
}

std::string Network::RenderDropReport() const {
  const std::vector<DropRecord> report = DropReport();
  if (report.empty()) return {};
  std::ostringstream out;
  out << "dropped " << dropped_ << " message(s): ";
  bool first = true;
  for (const DropRecord& record : report) {
    if (!first) out << ", ";
    first = false;
    out << obs::MsgKindName(record.kind) << '/'
        << RegionShortName(record.source_region) << " ["
        << DropReasonName(record.reason) << "]: " << record.count;
  }
  return out.str();
}

Duration ClockModel::SampleOffset() {
  // Mixture fitted to the paper's NTP envelope: 90% under 10 ms, 99% under
  // 100 ms, worst cases bounded by 250 ms.
  const double u = rng_.NextDouble();
  double magnitude_ms;
  if (u < 0.90) {
    magnitude_ms = rng_.NextRange(0.0, 10.0);
  } else if (u < 0.99) {
    magnitude_ms = rng_.NextRange(10.0, 100.0);
  } else {
    magnitude_ms = rng_.NextRange(100.0, 250.0);
  }
  const double sign = rng_.NextBool(0.5) ? 1.0 : -1.0;
  return Duration::Micros(static_cast<std::int64_t>(sign * magnitude_ms * 1000.0));
}

}  // namespace ethsim::net
