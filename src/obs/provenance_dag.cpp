// Implementation of the dissemination-provenance recorder. See the header
// for the recording order; the notes here cover the two subtle pieces:
//
// First-seen determinism. A receiver's first-seen record is updated when the
// edge is recorded (at send time, with the scheduled arrival) with
// min-arrival-wins semantics, not at ingress. That is safe to read at relay
// time because the Network FIFO-clamps each (from,to) pair and a node only
// relays an object after its own copy arrived: any edge the node sends at
// sim-time T has T >= its first-seen arrival, and no later schedule can lower
// a minimum that already admitted an arrival <= T. So hop depths are a pure
// function of the event stream.
//
// Late drop attribution. Network::Send schedules a copy before anyone can
// know the receiver will be crashed at arrival time. The receiving node's
// ingress hook (ResolveDelivery) pops the per-pair FIFO and, when the node is
// offline, patches that row into an `offline` drop. Edges still pending at
// Finish were in flight at cutoff and stay kNone with arrival > end_us.
#include "obs/provenance_dag.hpp"

#include <cinttypes>

#include "obs/columns.hpp"
#include "obs/metrics.hpp"

namespace ethsim::obs {

namespace {

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
// ProvenanceRecorder

ProvenanceRecorder::ProvenanceRecorder(ProvenanceConfig config)
    : checker_("provenance", InvariantCheckName, config.fatal_invariants) {}

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
  SetHostRegion(log_.host_region, host, region);
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

const ProvenanceRecorder::FirstSeen* ProvenanceRecorder::FindFirstSeen(
    std::uint32_t host, std::uint64_t object) const {
  auto obj = objects_.find(object);
  if (obj == objects_.end()) return nullptr;
  auto it = obj->second.first_seen.find(host);
  return it == obj->second.first_seen.end() ? nullptr : &it->second;
}

bool ProvenanceRecorder::FirstSeenDepth(std::uint32_t host,
                                        std::uint64_t object,
                                        std::uint16_t* depth_out) const {
  const FirstSeen* seen = FindFirstSeen(host, object);
  if (seen == nullptr) return false;
  if (depth_out != nullptr) *depth_out = seen->depth;
  return true;
}

void ProvenanceRecorder::RecordOrigin(std::uint32_t host, const Hash32& hash,
                                      const Hash32& parent,
                                      std::uint64_t number,
                                      std::int64_t now_us) {
  const std::uint64_t object = hash.prefix_u64();
  auto& first = objects_[object].first_seen;
  if (first.count(host) != 0)
    checker_.Violate(InvariantCheck::kDuplicateFirstSeen,
                     "host %u re-originated object %016" PRIx64, host, object);
  else
    first.emplace(host, FirstSeen{now_us, 0});
  Host(host).known_parents.insert(parent.prefix_u64());

  EdgeRecord record;
  record.send_us = now_us;
  record.arrival_us = now_us;
  record.from = host;
  record.to = host;
  record.object = object;
  record.parent = parent.prefix_u64();
  record.number = number;
  record.kind = EdgeKind::kOrigin;
  log_.Append(record);
  if (Counter* c = edge_count_[static_cast<std::size_t>(EdgeKind::kOrigin)]) {
    c->Add();
  }
}

void ProvenanceRecorder::RecordBlockEdge(std::uint32_t from, std::uint32_t to,
                                         EdgeKind kind, const Hash32& hash,
                                         std::uint64_t number,
                                         const Hash32* parent,
                                         std::size_t bytes,
                                         std::int64_t send_us,
                                         EdgeOutcome outcome) {
  EdgeRecord edge;
  edge.send_us = send_us;
  edge.from = from;
  edge.to = to;
  edge.object = hash.prefix_u64();
  edge.parent = parent != nullptr ? parent->prefix_u64() : 0;
  edge.number = number;
  edge.bytes = static_cast<std::uint32_t>(bytes);
  edge.kind = kind;

  // Hop depth: sender's first-seen depth + 1. Fetches ask for an object the
  // sender does *not* have yet — their hop is the depth the request leaves
  // from, not a relay depth, so they also use sender-depth + 1 relative to
  // the announce that triggered them (the sender's first-seen record for the
  // announced hash, when present).
  const FirstSeen* seen = FindFirstSeen(from, edge.object);
  edge.hop = seen != nullptr ? static_cast<std::uint16_t>(seen->depth + 1) : 1;

  if (kind == EdgeKind::kGetBlock) {
    if (seen == nullptr && Host(from).known_parents.count(edge.object) == 0)
      checker_.Violate(InvariantCheck::kFetchWithoutAnnounce,
                       "host %u fetched object %016" PRIx64
                       " without a prior announce or orphan-parent knowledge",
                       from, edge.object);
  } else if (seen == nullptr) {
    checker_.Violate(InvariantCheck::kRelayWithoutReceive,
                     "host %u relayed (%s) object %016" PRIx64
                     " it never received",
                     from, EdgeKindName(kind).data(), edge.object);
  } else if (send_us < seen->arrival_us) {
    checker_.Violate(InvariantCheck::kNonMonotoneHop,
                     "host %u relayed object %016" PRIx64 " at t=%" PRId64
                     "us before its own copy arrived (t=%" PRId64 "us)",
                     from, edge.object, send_us, seen->arrival_us);
  }
  Append(edge, outcome);
}

void ProvenanceRecorder::RecordTxEdge(std::uint32_t from, std::uint32_t to,
                                      std::size_t tx_count, std::size_t bytes,
                                      std::int64_t send_us,
                                      EdgeOutcome outcome) {
  EdgeRecord edge;
  edge.send_us = send_us;
  edge.from = from;
  edge.to = to;
  edge.number = tx_count;
  edge.bytes = static_cast<std::uint32_t>(bytes);
  edge.kind = EdgeKind::kTransactions;
  Append(edge, outcome);
}

void ProvenanceRecorder::Append(EdgeRecord edge, EdgeOutcome outcome) {
  edge.arrival_us = outcome.arrival_us;
  edge.drop = outcome.drop;
  if (outcome.drop == EdgeDrop::kNone) {
    // Receiver learns the object at (predicted) arrival — min-arrival wins.
    if (edge.kind == EdgeKind::kNewBlock ||
        edge.kind == EdgeKind::kAnnouncement ||
        edge.kind == EdgeKind::kBlockResponse) {
      NoteFirstSeen(edge.to, edge.object, edge.arrival_us, edge.hop);
      if (edge.kind != EdgeKind::kAnnouncement && edge.parent != 0) {
        // Full block bodies teach the receiver the parent hash (orphan fetch
        // justification); announces carry only the hash itself.
        Host(edge.to).known_parents.insert(edge.parent);
      }
    }
    pending_[PairKey(edge.from, edge.to)].push_back(log_.size());
  }
  if (Counter* c = edge_count_[static_cast<std::size_t>(edge.kind)]) {
    c->Add();
  }
  log_.Append(edge);
}

void ProvenanceRecorder::ResolveDelivery(std::uint32_t from, std::uint32_t to,
                                         bool online) {
  // A delivery whose send was not recorded (its sender has no recorder
  // attached) has no row to resolve.
  auto it = pending_.find(PairKey(from, to));
  if (it == pending_.end() || it->second.empty()) return;
  const std::size_t row = it->second.front();
  it->second.pop_front();
  if (!online) {
    // The message reached a crashed node: re-attribute as an offline drop.
    log_.drop[row] = static_cast<std::uint8_t>(EdgeDrop::kOffline);
    log_.arrival_us[row] = -1;
    return;
  }
  if (Host(to).marked_down)
    checker_.Violate(InvariantCheck::kDeliveryWhileOffline,
                     "delivery processed at host %u while the fault layer "
                     "has it marked down",
                     to);
}

void ProvenanceRecorder::NoteHostOnline(std::uint32_t host, bool online) {
  Host(host).marked_down = !online;
}

}  // namespace ethsim::obs
