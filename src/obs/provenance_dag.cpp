// Implementation of the dissemination-provenance recorder. See the header
// for the recording protocol; the notes here cover the two subtle pieces:
//
// First-seen determinism. A receiver's first-seen record is updated at
// *schedule* time (FinalizeScheduled) with min-arrival-wins semantics, not at
// ingress. That is safe to read at relay time because the Network FIFO-clamps
// each (from,to) pair and a node only relays an object after its own copy
// arrived: any edge staged by the node at sim-time T has T >= its first-seen
// arrival, and no later schedule can lower a minimum that already admitted an
// arrival <= T. So hop depths are a pure function of the event stream.
//
// Late drop attribution. Network::Send finalizes an edge as scheduled before
// anyone can know the receiver will be crashed at arrival time. The receiving
// node's ingress hook (ResolveDelivery) pops the per-pair FIFO and, when the
// node is offline, patches that row into an `offline` drop. Edges still
// pending at Finish were in flight at cutoff and stay kNone with
// arrival > end_us.
#include "obs/provenance_dag.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/columns.hpp"
#include "obs/diag.hpp"
#include "obs/metrics.hpp"

namespace ethsim::obs {

namespace {

constexpr std::uint8_t kUnknownRegion = 0xff;

// How many individual violations get a log line before we go quiet (the
// counters keep the full tally either way).
constexpr std::uint64_t kMaxLoggedViolations = 16;

std::uint64_t PairKey(std::uint32_t from, std::uint32_t to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

}  // namespace

std::string_view EdgeKindName(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kOrigin:
      return "origin";
    case EdgeKind::kNewBlock:
      return "new_block";
    case EdgeKind::kAnnouncement:
      return "announcement";
    case EdgeKind::kGetBlock:
      return "get_block";
    case EdgeKind::kBlockResponse:
      return "block_response";
    case EdgeKind::kTransactions:
      return "transactions";
  }
  return "unknown";
}

std::string_view EdgeDropName(EdgeDrop drop) {
  switch (drop) {
    case EdgeDrop::kNone:
      return "none";
    case EdgeDrop::kRandomLoss:
      return "random_loss";
    case EdgeDrop::kPartitioned:
      return "partitioned";
    case EdgeDrop::kDegraded:
      return "degraded";
    case EdgeDrop::kOffline:
      return "offline";
  }
  return "unknown";
}

std::string_view InvariantCheckName(InvariantCheck check) {
  switch (check) {
    case InvariantCheck::kDuplicateFirstSeen:
      return "duplicate_first_seen";
    case InvariantCheck::kRelayWithoutReceive:
      return "relay_without_receive";
    case InvariantCheck::kFetchWithoutAnnounce:
      return "fetch_without_announce";
    case InvariantCheck::kDeliveryWhileOffline:
      return "delivery_while_offline";
    case InvariantCheck::kNonMonotoneHop:
      return "non_monotone_hop";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// ProvenanceLog

void ProvenanceLog::Append(const EdgeRecord& record) {
  send_us.push_back(record.send_us);
  arrival_us.push_back(record.arrival_us);
  from.push_back(record.from);
  to.push_back(record.to);
  object.push_back(record.object);
  parent.push_back(record.parent);
  number.push_back(record.number);
  bytes.push_back(record.bytes);
  hop.push_back(record.hop);
  kind.push_back(static_cast<std::uint8_t>(record.kind));
  drop.push_back(static_cast<std::uint8_t>(record.drop));
}

bool ProvenanceLog::WriteBinary(const std::string& path,
                                std::string* error) const {
  ColumnWriter out;
  out.AddScalar("end_us", end_us);
  out.Add("host_region", host_region);
  out.Add("send_us", send_us);
  out.Add("arrival_us", arrival_us);
  out.Add("from", from);
  out.Add("to", to);
  out.Add("object", object);
  out.Add("parent", parent);
  out.Add("number", number);
  out.Add("bytes", bytes);
  out.Add("hop", hop);
  out.Add("kind", kind);
  out.Add("drop", drop);
  return out.Write(path, error);
}

bool ProvenanceLog::ReadBinary(const std::string& path, ProvenanceLog* out,
                               std::string* error) {
  ColumnReader in;
  if (!in.Open(path, error) || !in.TakeScalar("end_us", &out->end_us, error) ||
      !in.Take("host_region", &out->host_region, error) ||
      !in.Take("send_us", &out->send_us, error))
    return false;
  const std::uint64_t n = out->send_us.size();
  if (!in.Take("arrival_us", &out->arrival_us, error, n) ||
      !in.Take("from", &out->from, error, n) ||
      !in.Take("to", &out->to, error, n) ||
      !in.Take("object", &out->object, error, n) ||
      !in.Take("parent", &out->parent, error, n) ||
      !in.Take("number", &out->number, error, n) ||
      !in.Take("bytes", &out->bytes, error, n) ||
      !in.Take("hop", &out->hop, error, n) ||
      !in.Take("kind", &out->kind, error, n) ||
      !in.Take("drop", &out->drop, error, n))
    return false;
  for (std::size_t i = 0; i < n; ++i) {
    const auto fail = [&](const char* what) {
      return in.Fail(error, "row " + std::to_string(i) + ": " + what);
    };
    if (out->kind[i] >= kEdgeKindCount) return fail("kind out of range");
    if (out->drop[i] >= kEdgeDropCount) return fail("drop reason out of range");
    // A censored edge carries no arrival; a scheduled one carries one.
    if (out->drop[i] != 0 ? out->arrival_us[i] != -1 : out->arrival_us[i] < -1)
      return fail("arrival disagrees with the drop reason");
    if (i > 0 && out->send_us[i - 1] > out->send_us[i])
      return fail("not in send order");
  }
  return true;
}

// ---------------------------------------------------------------------------
// InvariantChecker

InvariantChecker::InvariantChecker(bool fatal) : fatal_(fatal) {}

void InvariantChecker::AttachMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  for (std::size_t i = 0; i < kInvariantCheckCount; ++i) {
    const auto check = static_cast<InvariantCheck>(i);
    counters_[i] = metrics->GetCounter(LabeledName(
        "provenance.violation", {{"check", InvariantCheckName(check)}}));
  }
}

void InvariantChecker::Violate(InvariantCheck check, std::string detail) {
  ++total_;
  ++by_check_[static_cast<std::size_t>(check)];
  if (Counter* c = counters_[static_cast<std::size_t>(check)]) c->Add();
  if (handler_) {
    handler_(check, detail);
    return;
  }
  if (total_ <= kMaxLoggedViolations) {
    LogWarn("provenance", "invariant %s violated: %s",
            std::string(InvariantCheckName(check)).c_str(), detail.c_str());
    if (total_ == kMaxLoggedViolations) {
      LogWarn("provenance",
              "further invariant violations will be counted but not logged");
    }
  }
  if (fatal_) {
    LogError("provenance", "aborting on invariant violation (%s): %s",
             std::string(InvariantCheckName(check)).c_str(), detail.c_str());
    std::abort();
  }
}

void InvariantChecker::OnOrigin(std::uint32_t host, std::uint64_t object,
                                bool already_seen) {
  if (already_seen) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "host %u re-originated object %016" PRIx64, host, object);
    Violate(InvariantCheck::kDuplicateFirstSeen, buf);
  }
}

void InvariantChecker::OnBlockRelayStage(
    EdgeKind kind, std::uint32_t from, std::uint64_t object,
    bool sender_has_first_seen, std::int64_t send_us,
    std::int64_t sender_first_seen_arrival_us) {
  if (!sender_has_first_seen) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "host %u relayed (%s) object %016" PRIx64
                  " it never received",
                  from, std::string(EdgeKindName(kind)).c_str(), object);
    Violate(InvariantCheck::kRelayWithoutReceive, buf);
    return;
  }
  if (send_us < sender_first_seen_arrival_us) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "host %u relayed object %016" PRIx64 " at t=%" PRId64
                  "us before its own copy arrived (t=%" PRId64 "us)",
                  from, object, send_us, sender_first_seen_arrival_us);
    Violate(InvariantCheck::kNonMonotoneHop, buf);
  }
}

void InvariantChecker::OnFetchStage(std::uint32_t from, std::uint64_t object,
                                    bool heard, bool parent_known) {
  if (!heard && !parent_known) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "host %u fetched object %016" PRIx64
                  " without a prior announce or orphan-parent knowledge",
                  from, object);
    Violate(InvariantCheck::kFetchWithoutAnnounce, buf);
  }
}

void InvariantChecker::OnDelivery(std::uint32_t to, bool node_online,
                                  bool host_marked_down) {
  if (node_online && host_marked_down) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "delivery processed at host %u while the fault layer "
                  "has it marked down",
                  to);
    Violate(InvariantCheck::kDeliveryWhileOffline, buf);
  }
}

// ---------------------------------------------------------------------------
// ProvenanceRecorder

ProvenanceRecorder::ProvenanceRecorder(ProvenanceConfig config)
    : checker_(config.fatal_invariants) {}

void ProvenanceRecorder::AttachMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  for (std::size_t i = 0; i < kEdgeKindCount; ++i) {
    const auto kind = static_cast<EdgeKind>(i);
    edge_count_[i] = metrics->GetCounter(
        LabeledName("provenance.edge", {{"kind", EdgeKindName(kind)}}));
  }
  checker_.AttachMetrics(metrics);
}

void ProvenanceRecorder::RegisterHost(std::uint32_t host, std::uint8_t region) {
  if (host >= log_.host_region.size()) {
    log_.host_region.resize(host + 1, kUnknownRegion);
  }
  log_.host_region[host] = region;
  if (host >= hosts_.size()) hosts_.resize(host + 1);
}

ProvenanceRecorder::HostState& ProvenanceRecorder::Host(std::uint32_t host) {
  if (host >= hosts_.size()) hosts_.resize(host + 1);
  return hosts_[host];
}

void ProvenanceRecorder::NoteFirstSeen(std::uint32_t host,
                                       std::uint64_t object,
                                       std::int64_t arrival_us,
                                       std::uint16_t depth) {
  auto& first = objects_[object].first_seen;
  auto [it, inserted] = first.try_emplace(host, FirstSeen{arrival_us, depth});
  if (!inserted && arrival_us < it->second.arrival_us) {
    it->second.arrival_us = arrival_us;
    it->second.depth = depth;
  }
}

bool ProvenanceRecorder::FirstSeenDepth(std::uint32_t host,
                                        std::uint64_t object,
                                        std::uint16_t* depth_out) const {
  auto obj = objects_.find(object);
  if (obj == objects_.end()) return false;
  auto it = obj->second.first_seen.find(host);
  if (it == obj->second.first_seen.end()) return false;
  if (depth_out != nullptr) *depth_out = it->second.depth;
  return true;
}

void ProvenanceRecorder::RecordOrigin(std::uint32_t host, const Hash32& hash,
                                      const Hash32& parent,
                                      std::uint64_t number,
                                      std::int64_t now_us) {
  const std::uint64_t object = hash.prefix_u64();
  auto& first = objects_[object].first_seen;
  const bool already_seen = first.count(host) != 0;
  checker_.OnOrigin(host, object, already_seen);
  if (!already_seen) first.emplace(host, FirstSeen{now_us, 0});
  Host(host).known_parents.insert(parent.prefix_u64());

  EdgeRecord record;
  record.send_us = now_us;
  record.arrival_us = now_us;
  record.from = host;
  record.to = host;
  record.object = object;
  record.parent = parent.prefix_u64();
  record.number = number;
  record.bytes = 0;
  record.hop = 0;
  record.kind = EdgeKind::kOrigin;
  record.drop = EdgeDrop::kNone;
  log_.Append(record);
  if (Counter* c = edge_count_[static_cast<std::size_t>(EdgeKind::kOrigin)]) {
    c->Add();
  }
}

void ProvenanceRecorder::StageBlockEdge(std::uint32_t from, std::uint32_t to,
                                        EdgeKind kind, const Hash32& hash,
                                        std::uint64_t number,
                                        const Hash32* parent,
                                        std::size_t bytes,
                                        std::int64_t now_us) {
  if (staged_active_) {
    // A previous stage was never finalized — the Network call it bracketed
    // did not happen (should not occur; keep counting so tests can assert).
    ++resync_warnings_;
    staged_active_ = false;
  }
  const std::uint64_t object = hash.prefix_u64();

  staged_ = EdgeRecord{};
  staged_.send_us = now_us;
  staged_.from = from;
  staged_.to = to;
  staged_.object = object;
  staged_.parent = parent != nullptr ? parent->prefix_u64() : 0;
  staged_.number = number;
  staged_.bytes = static_cast<std::uint32_t>(bytes);
  staged_.kind = kind;
  staged_.drop = EdgeDrop::kNone;

  // Hop depth: sender's first-seen depth + 1. Fetches ask for an object the
  // sender does *not* have yet — their hop is the depth the request leaves
  // from, not a relay depth, so they also use sender-depth + 1 relative to
  // the announce that triggered them (the sender's first-seen record for the
  // announced hash, when present).
  auto obj = objects_.find(object);
  const bool sender_seen =
      obj != objects_.end() && obj->second.first_seen.count(from) != 0;
  std::int64_t seen_arrival = 0;
  std::uint16_t seen_depth = 0;
  if (sender_seen) {
    const FirstSeen& fs = obj->second.first_seen.at(from);
    seen_arrival = fs.arrival_us;
    seen_depth = fs.depth;
  }
  staged_.hop = sender_seen ? static_cast<std::uint16_t>(seen_depth + 1) : 1;

  if (kind == EdgeKind::kGetBlock) {
    const bool parent_known =
        Host(from).known_parents.count(object) != 0;
    checker_.OnFetchStage(from, object, sender_seen, parent_known);
  } else {
    checker_.OnBlockRelayStage(kind, from, object, sender_seen, now_us,
                               seen_arrival);
  }
  staged_active_ = true;
}

void ProvenanceRecorder::StageTxEdge(std::uint32_t from, std::uint32_t to,
                                     std::size_t tx_count, std::size_t bytes,
                                     std::int64_t now_us) {
  if (staged_active_) {
    ++resync_warnings_;
    staged_active_ = false;
  }
  staged_ = EdgeRecord{};
  staged_.send_us = now_us;
  staged_.from = from;
  staged_.to = to;
  staged_.object = 0;
  staged_.parent = 0;
  staged_.number = tx_count;
  staged_.bytes = static_cast<std::uint32_t>(bytes);
  staged_.hop = 0;
  staged_.kind = EdgeKind::kTransactions;
  staged_.drop = EdgeDrop::kNone;
  staged_active_ = true;
}

void ProvenanceRecorder::CommitStaged(std::int64_t arrival_us, EdgeDrop drop) {
  staged_.arrival_us = arrival_us;
  staged_.drop = drop;
  staged_active_ = false;
  if (Counter* c = edge_count_[static_cast<std::size_t>(staged_.kind)]) {
    c->Add();
  }
  log_.Append(staged_);
}

void ProvenanceRecorder::FinalizeScheduled(std::uint32_t from,
                                           std::uint32_t to,
                                           std::int64_t arrival_us) {
  if (!staged_active_ || staged_.from != from || staged_.to != to) {
    // Send without a stage: a message the eth layer does not instrument.
    ++resync_warnings_;
    staged_active_ = false;
    return;
  }
  // Receiver learns the object at (predicted) arrival — min-arrival wins.
  if (staged_.kind == EdgeKind::kNewBlock ||
      staged_.kind == EdgeKind::kAnnouncement ||
      staged_.kind == EdgeKind::kBlockResponse) {
    NoteFirstSeen(to, staged_.object, arrival_us, staged_.hop);
    if (staged_.kind != EdgeKind::kAnnouncement && staged_.parent != 0) {
      // Full block bodies teach the receiver the parent hash (orphan fetch
      // justification); announces carry only the hash itself.
      Host(to).known_parents.insert(staged_.parent);
    }
  }
  pending_[PairKey(from, to)].push_back(PendingDelivery{log_.size()});
  CommitStaged(arrival_us, EdgeDrop::kNone);
}

void ProvenanceRecorder::FinalizeDropped(std::uint32_t from, std::uint32_t to,
                                         EdgeDrop reason) {
  if (!staged_active_ || staged_.from != from || staged_.to != to) {
    ++resync_warnings_;
    staged_active_ = false;
    return;
  }
  CommitStaged(-1, reason);
}

void ProvenanceRecorder::ResolveDelivery(std::uint32_t from, std::uint32_t to,
                                         bool online, std::int64_t now_us) {
  auto it = pending_.find(PairKey(from, to));
  if (it == pending_.end() || it->second.empty()) {
    ++resync_warnings_;
    return;
  }
  const PendingDelivery delivery = it->second.front();
  it->second.pop_front();
  if (!online) {
    // The message reached a crashed node: re-attribute as an offline drop.
    log_.drop[delivery.row] = static_cast<std::uint8_t>(EdgeDrop::kOffline);
    log_.arrival_us[delivery.row] = -1;
    return;
  }
  checker_.OnDelivery(to, online, Host(to).marked_down);
  (void)now_us;
}

void ProvenanceRecorder::NoteHostOnline(std::uint32_t host, bool online) {
  Host(host).marked_down = !online;
}

const ProvenanceLog& ProvenanceRecorder::Finish() {
  if (finished_) return log_;
  finished_ = true;
  if (resync_warnings_ > 0) {
    LogWarn("provenance",
            "%" PRIu64 " stage/finalize/resolve resyncs during recording "
            "(uninstrumented sends?)",
            resync_warnings_);
  }
  return log_;
}

}  // namespace ethsim::obs
