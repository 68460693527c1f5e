// ethsim_inspect: query tool over a run directory's binary artifacts.
//
// A run executed with ETHSIM_PROVENANCE=1 writes provenance.bin (the full
// gossip edge log) and one with ETHSIM_SAMPLE=1 writes timeseries.bin (the
// sampled engine-state columns) next to manifest.json. This tool loads the
// artifact each query needs — and only that one — and answers the questions
// the aggregate telemetry cannot:
//
//   ethsim_inspect <run-dir> --block <hash|head> --tree
//       Reconstruct the block's dissemination tree: who heard it when, at
//       what hop depth, from whom, via which mechanism (push / announce /
//       fetch) — a Fig. 1 propagation wave as an actual tree.
//   ethsim_inspect <run-dir> --node <id> --timeline
//       Every edge touching a host, in time order.
//   ethsim_inspect <run-dir> --redundancy [--top N]
//       Per-host redundant receptions + wasted bytes, worst offenders first
//       (the per-node attribution behind Table 2).
//   ethsim_inspect <run-dir> --hops
//       First-delivery hop-depth distribution + push-vs-announce shares.
//   ethsim_inspect <run-dir> --infer-degree [--top N]
//       Ethna-style degree inference from reception counts.
//   ethsim_inspect <run-dir> --timeseries [--series S] [--from A] [--to B]
//       Per-series stats (min / mean / max / last) over the sampled columns,
//       optionally sliced to a sim-time window in seconds — pass a fault
//       window from the manifest's partition_window extras to see queue and
//       backlog inflation line up with the outage. --csv dumps the selected
//       window as CSV for plotting.
//   ethsim_inspect <run-dir> --watermarks
//       Per-series peak + the sim time it was first hit (same values the
//       producing run folded into manifest.json).
//   ethsim_inspect <run-dir> --demand
//       Workload-plan demand summary from the manifest extras: offered and
//       included totals per traffic source, replacement churn, and the
//       closed-loop position at run end. Only runs driven by a non-empty
//       WorkloadPlan record these; a default-workload manifest is a one-line
//       error and a nonzero exit.
//   ethsim_inspect <run-dir> --tx <hash>
//       One transaction's full lifecycle timeline from txprov.bin (runs
//       executed with ETHSIM_TXPROV=1): submission, vantage first-seens,
//       pool outcomes per host, selection, inclusion, orphan returns and
//       depth commits, in recording order.
//   ethsim_inspect <run-dir> --stages [--by-region|--by-pool] [--csv]
//       Commit-latency decomposition (submit->admit / admit->include /
//       include->commit) over every committed transaction in txprov.bin.
//       Default prints overall + both breakdowns; --by-region / --by-pool
//       restrict to one. --csv emits machine-readable rows.
//   ethsim_inspect <run-dir> --summary   (default when no query given)
//   ethsim_inspect <run-dir> --validate [--require M]... [--forbid-nonzero P]...
//       Check every artifact in the directory (obs/validate): manifest keys
//       and digests, metrics/trace/profile schemas, and each binary log
//       through its validating reader. --require M demands a metric named M
//       (or M{...}); --forbid-nonzero P demands counters matching P exist
//       and are all zero. Exit 0 valid, 1 invalid, 2 unreadable directory.
//
// `--json` switches --demand, --watermarks, --redundancy and --hops to
// machine-readable JSON.
//
// `--block head` resolves the head hash from manifest.json, so the common
// "show me the head block's tree" needs no copy-pasted hash.
//
// Artifact errors (missing, truncated, corrupt) are a one-line diagnostic
// and a nonzero exit — never a partial report: every binary artifact is read
// through a reader that validates it first.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dissemination.hpp"
#include "analysis/latency_stages.hpp"
#include "common/types.hpp"
#include "net/geo.hpp"
#include "obs/diag.hpp"
#include "obs/json.hpp"
#include "obs/provenance_dag.hpp"
#include "obs/sampler.hpp"
#include "obs/tx_provenance.hpp"
#include "obs/validate.hpp"

namespace {

using ethsim::Hash32;
using ethsim::analysis::BlockObjects;
using ethsim::analysis::BuildDisseminationTree;
using ethsim::analysis::DisseminationTree;
using ethsim::analysis::FirstDeliveryBreakdown;
using ethsim::analysis::HopDepths;
using ethsim::analysis::InferDegrees;
using ethsim::analysis::WasteByHost;
using ethsim::obs::ComputeWatermarks;
using ethsim::obs::EdgeDrop;
using ethsim::obs::EdgeDropName;
using ethsim::obs::EdgeKind;
using ethsim::obs::EdgeKindName;
using ethsim::obs::JsonString;
using ethsim::obs::JsonValue;
using ethsim::obs::LogError;
using ethsim::obs::ProvenanceLog;
using ethsim::obs::SeriesWatermark;
using ethsim::obs::TimeSeriesLog;

void Usage() {
  std::fprintf(
      stderr,
      "usage: ethsim_inspect <run-dir> [query]\n"
      "  --summary                 provenance overview (default)\n"
      "  --block <hash|head> --tree   dissemination tree of one block\n"
      "  --node <id> --timeline    every edge touching a host\n"
      "  --redundancy [--top N]    per-host waste attribution\n"
      "  --hops                    hop-depth CDF + first-delivery shares\n"
      "  --infer-degree [--top N]  Ethna-style degree estimates\n"
      "  --timeseries              sampled state-series stats (ETHSIM_SAMPLE)\n"
      "    [--series <substr>]     restrict to matching series names\n"
      "    [--from <s>] [--to <s>] slice to a sim-time window in seconds\n"
      "    [--csv]                 dump the selected window as CSV\n"
      "  --watermarks              per-series peak value + sim time of peak\n"
      "  --demand                  per-source workload demand (plan runs)\n"
      "  --tx <hash>               one transaction's lifecycle (ETHSIM_TXPROV)\n"
      "  --stages                  commit-latency stage decomposition\n"
      "    [--by-region|--by-pool] restrict the breakdown sections\n"
      "    [--csv]                 machine-readable rows\n"
      "  --json                    JSON output for --demand / --watermarks /\n"
      "                            --redundancy / --hops\n"
      "  --validate                check every artifact in the directory\n"
      "    [--require <metric>]    metrics.jsonl must contain the metric\n"
      "    [--forbid-nonzero <p>]  counters matching p must exist and be 0\n");
}

// Both binary logs carry a host -> region table.
std::string RegionName(const std::vector<std::uint8_t>& host_region,
                       std::uint32_t host) {
  if (host < host_region.size() &&
      host_region[host] != ethsim::obs::kUnknownRegion) {
    return std::string(ethsim::net::RegionShortName(
        static_cast<ethsim::net::Region>(host_region[host])));
  }
  return "?";
}

// manifest.json of the run directory, or false when it is missing or not a
// JSON object (callers decide whether that is an error).
bool LoadManifest(const std::string& dir, JsonValue* manifest) {
  std::string text;
  return ethsim::obs::ReadTextFile(dir + "/manifest.json", &text) &&
         ethsim::obs::ParseJson(text, manifest) && manifest->is_object();
}

// A string-valued manifest extra ("extra": {"key": "value"}); null when the
// key is absent.
const std::string* ManifestExtra(const JsonValue& manifest,
                                 std::string_view key) {
  const JsonValue* extra = manifest.Find("extra");
  const JsonValue* value = extra != nullptr ? extra->Find(key) : nullptr;
  return value != nullptr && value->is_string() ? &value->string : nullptr;
}

// Executed partition windows ("partition_window.N": "start_us..end_us")
// from the manifest extras. Missing manifest or no windows is not an error —
// just empty context.
std::vector<std::pair<std::int64_t, std::int64_t>> PartitionWindows(
    const std::string& dir) {
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;
  JsonValue manifest;
  if (!LoadManifest(dir, &manifest)) return windows;
  const JsonValue* extra = manifest.Find("extra");
  if (extra == nullptr) return windows;
  for (const auto& [key, value] : extra->members) {
    if (key.rfind("partition_window.", 0) != 0 || !value.is_string()) continue;
    char* rest = nullptr;
    const std::int64_t start = std::strtoll(value.string.c_str(), &rest, 10);
    if (rest != nullptr && rest[0] == '.' && rest[1] == '.')
      windows.emplace_back(start, std::strtoll(rest + 2, nullptr, 10));
  }
  return windows;
}

// Reads one binary artifact through its validating reader; a failure is one
// line naming the gate that records it.
template <typename Log>
bool LoadLog(const std::string& dir, const char* file, const char* gate,
             Log* log) {
  std::string error;
  if (Log::ReadBinary(dir + "/" + file, log, &error)) return true;
  LogError("inspect", "%s (run the producing tool with %s to record it)",
           error.c_str(), gate);
  return false;
}

// Resolves a hex hash (optionally 0x-prefixed) to its 8-byte prefix: 16 or
// more hex digits name the prefix directly; a shorter even-length prefix
// must match exactly one of `candidates`.
bool ResolvePrefix(std::string token,
                   const std::vector<std::uint64_t>& candidates,
                   const char* what, std::uint64_t* out) {
  if (token.rfind("0x", 0) == 0) token = token.substr(2);
  if (token.size() > 16) token = token.substr(0, 16);  // prefix_u64 covers 8B
  if (token.empty() || token.size() % 2 != 0) {
    LogError("inspect", "bad %s hash '%s'", what, token.c_str());
    return false;
  }
  std::uint64_t prefix = 0;
  for (char c : token) {
    int nibble;
    if (c >= '0' && c <= '9') nibble = c - '0';
    else if (c >= 'a' && c <= 'f') nibble = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') nibble = c - 'A' + 10;
    else {
      LogError("inspect", "bad hex in '%s'", token.c_str());
      return false;
    }
    prefix = (prefix << 4) | static_cast<std::uint64_t>(nibble);
  }
  if (token.size() == 16) {
    *out = prefix;
    return true;
  }
  // Short prefix: shift into the high bits and scan for one match.
  const unsigned bits = static_cast<unsigned>(token.size()) * 4;
  const std::uint64_t wanted = prefix << (64 - bits);
  std::uint64_t found = 0;
  for (const std::uint64_t candidate : candidates) {
    if ((candidate >> (64 - bits)) << (64 - bits) == wanted) {
      if (found != 0 && found != candidate) {
        LogError("inspect", "ambiguous %s prefix '%s'", what, token.c_str());
        return false;
      }
      found = candidate;
    }
  }
  if (found == 0) {
    LogError("inspect", "no %s matches '%s'", what, token.c_str());
    return false;
  }
  *out = found;
  return true;
}

// A block hash, prefix, or the literal "head" (the manifest's head_hash).
bool ResolveObject(const std::string& dir, const ProvenanceLog& log,
                   std::string token, std::uint64_t* object) {
  if (token == "head") {
    JsonValue manifest;
    const JsonValue* head = LoadManifest(dir, &manifest)
                                ? manifest.Find("head_hash")
                                : nullptr;
    if (head == nullptr || !head->is_string() || head->string.empty()) {
      LogError("inspect",
               "cannot resolve 'head': no head_hash in %s/manifest.json",
               dir.c_str());
      return false;
    }
    token = head->string;
  }
  return ResolvePrefix(token, BlockObjects(log), "block", object);
}

int PrintSummary(const ProvenanceLog& log) {
  std::uint64_t delivered = 0, dropped = 0;
  std::uint64_t by_kind[ethsim::obs::kEdgeKindCount] = {};
  std::uint64_t by_drop[ethsim::obs::kEdgeDropCount] = {};
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    ++by_kind[log.kind[i]];
    bytes += log.bytes[i];
    if (log.drop[i] != 0) {
      ++dropped;
      ++by_drop[log.drop[i]];
    } else if (log.delivered(i)) {
      ++delivered;
    }
  }
  std::printf("edges: %zu  delivered: %" PRIu64 "  dropped: %" PRIu64
              "  wire bytes: %" PRIu64 "\n",
              log.size(), delivered, dropped, bytes);
  std::printf("hosts: %zu  blocks: %zu  end_us: %" PRId64 "\n",
              log.host_region.size(), BlockObjects(log).size(), log.end_us);
  for (std::size_t k = 0; k < ethsim::obs::kEdgeKindCount; ++k)
    if (by_kind[k] != 0)
      std::printf("  kind %-14s %" PRIu64 "\n",
                  std::string(EdgeKindName(static_cast<EdgeKind>(k))).c_str(),
                  by_kind[k]);
  for (std::size_t d = 1; d < ethsim::obs::kEdgeDropCount; ++d)
    if (by_drop[d] != 0)
      std::printf("  drop %-14s %" PRIu64 "\n",
                  std::string(EdgeDropName(static_cast<EdgeDrop>(d))).c_str(),
                  by_drop[d]);
  return 0;
}

int PrintTree(const ProvenanceLog& log, std::uint64_t object) {
  const DisseminationTree tree = BuildDisseminationTree(log, object);
  if (tree.nodes.empty()) {
    LogError("inspect", "block %016" PRIx64 " has no edges in this log",
             object);
    return 1;
  }
  std::printf("block %016" PRIx64 " (number %" PRIu64 "): reached %zu hosts\n",
              tree.object, tree.number, tree.nodes.size());
  std::printf("redundant edges: %" PRIu64 "  wasted bytes: %" PRIu64
              " / %" PRIu64 "  dropped: %" PRIu64 "\n",
              tree.redundant_edges, tree.wasted_bytes, tree.total_bytes,
              tree.dropped_edges);
  std::printf("%10s %6s %4s %-14s %6s  %s\n", "t_us", "host", "hop", "via",
              "from", "region");
  for (const auto& node : tree.nodes) {
    std::printf("%10" PRId64 " %6u %4u %-14s %6u  %s\n",
                node.first_arrival_us, node.host, node.hop,
                std::string(EdgeKindName(node.via)).c_str(), node.parent_host,
                RegionName(log.host_region, node.host).c_str());
  }
  return 0;
}

int PrintTimeline(const ProvenanceLog& log, std::uint32_t host) {
  struct Row {
    std::int64_t t;
    std::size_t i;
    bool outbound;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log.from[i] == host)
      rows.push_back({log.send_us[i], i, true});
    else if (log.to[i] == host)
      rows.push_back({log.arrival_us[i] >= 0 ? log.arrival_us[i]
                                             : log.send_us[i],
                      i, false});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.i < b.i;
  });
  std::printf("host %u (%s): %zu edges\n", host,
              RegionName(log.host_region, host).c_str(), rows.size());
  for (const Row& row : rows) {
    const std::size_t i = row.i;
    const char* dir = row.outbound ? "->" : "<-";
    const std::uint32_t peer = row.outbound ? log.to[i] : log.from[i];
    std::printf("%10" PRId64 " %s %6u %-14s obj %016" PRIx64 " hop %u %7u B",
                row.t, dir, peer,
                std::string(EdgeKindName(static_cast<EdgeKind>(log.kind[i])))
                    .c_str(),
                log.object[i], log.hop[i], log.bytes[i]);
    if (log.drop[i] != 0)
      std::printf("  [%s]",
                  std::string(EdgeDropName(static_cast<EdgeDrop>(log.drop[i])))
                      .c_str());
    std::printf("\n");
  }
  return 0;
}

int PrintRedundancy(const ProvenanceLog& log, std::size_t top, bool json) {
  if (json) {
    std::fputs(ethsim::analysis::RenderRedundancyJson(log, top).c_str(),
               stdout);
    return 0;
  }
  const auto waste = WasteByHost(log);
  std::printf("%6s %8s %10s %10s %12s  %s\n", "host", "recv", "redundant",
              "redun %", "wasted B", "region");
  std::size_t shown = 0;
  std::uint64_t total_wasted = 0, total_recv = 0;
  for (const auto& entry : waste) {
    total_wasted += entry.wasted_bytes;
    total_recv += entry.receptions;
  }
  for (const auto& entry : waste) {
    if (shown++ >= top) break;
    const double pct =
        entry.receptions > 0
            ? 100.0 * static_cast<double>(entry.redundant_receptions) /
                  static_cast<double>(entry.receptions)
            : 0.0;
    std::printf("%6u %8" PRIu64 " %10" PRIu64 " %9.1f%% %12" PRIu64 "  %s\n",
                entry.host, entry.receptions, entry.redundant_receptions, pct,
                entry.wasted_bytes, RegionName(log.host_region, entry.host).c_str());
  }
  std::printf("total: %zu hosts, %" PRIu64 " receptions, %" PRIu64
              " wasted bytes\n",
              waste.size(), total_recv, total_wasted);
  return 0;
}

int PrintHops(const ProvenanceLog& log, bool json) {
  if (json) {
    std::fputs(ethsim::analysis::RenderHopsJson(log).c_str(), stdout);
    return 0;
  }
  const auto dist = HopDepths(log);
  const auto shares = FirstDeliveryBreakdown(log);
  std::printf("first-delivery hop depths over %zu (block, host) pairs\n",
              dist.depths.size());
  std::printf("mean %.2f  p50 %u  p90 %u  p99 %u  max %u\n", dist.mean,
              dist.Quantile(0.50), dist.Quantile(0.90), dist.Quantile(0.99),
              dist.max);
  const double total = static_cast<double>(shares.total());
  if (total > 0) {
    std::printf("first delivery via: push %" PRIu64 " (%.1f%%)  announce %"
                PRIu64 " (%.1f%%)  fetched %" PRIu64 " (%.1f%%)\n",
                shares.push, 100.0 * shares.push / total, shares.announce,
                100.0 * shares.announce / total, shares.fetched,
                100.0 * shares.fetched / total);
  }
  return 0;
}

int PrintDegrees(const ProvenanceLog& log, std::size_t top) {
  auto estimates = InferDegrees(log);
  std::sort(estimates.begin(), estimates.end(),
            [](const auto& a, const auto& b) {
              if (a.estimated_degree != b.estimated_degree)
                return a.estimated_degree > b.estimated_degree;
              return a.host < b.host;
            });
  std::printf("%6s %10s %8s  %s\n", "host", "est.deg", "blocks", "region");
  std::size_t shown = 0;
  for (const auto& estimate : estimates) {
    if (shown++ >= top) break;
    std::printf("%6u %10.2f %8" PRIu64 "  %s\n", estimate.host,
                estimate.estimated_degree, estimate.blocks,
                RegionName(log.host_region, estimate.host).c_str());
  }
  return 0;
}

// --- timeseries.bin queries -------------------------------------------------

struct TimeSeriesQuery {
  std::string series;  // substring filter; empty = all series
  double from_s = -1.0;
  double to_s = -1.0;  // < 0 = unbounded
  bool csv = false;
};

int PrintWatermarks(const TimeSeriesLog& ts, bool json) {
  if (json) {
    std::printf("{\"watermarks\": [");
    bool first = true;
    for (const SeriesWatermark& mark : ComputeWatermarks(ts)) {
      std::printf("%s{\"series\": %s, \"peak\": %" PRId64
                  ", \"at_us\": %" PRId64 "}",
                  first ? "" : ", ", JsonString(mark.series).c_str(),
                  mark.peak, mark.at_us);
      first = false;
    }
    std::printf("]}\n");
    return 0;
  }
  std::printf("%-30s %14s %14s\n", "series", "peak", "at sim-s");
  for (const SeriesWatermark& mark : ComputeWatermarks(ts))
    std::printf("%-30s %14" PRId64 " %14.1f\n", mark.series.c_str(), mark.peak,
                static_cast<double>(mark.at_us) / 1e6);
  return 0;
}

int PrintTimeSeries(const std::string& dir, const TimeSeriesLog& ts,
                    const TimeSeriesQuery& query) {
  const std::int64_t from_us =
      query.from_s < 0 ? std::numeric_limits<std::int64_t>::min()
                       : static_cast<std::int64_t>(query.from_s * 1e6);
  const std::int64_t to_us =
      query.to_s < 0 ? std::numeric_limits<std::int64_t>::max()
                     : static_cast<std::int64_t>(query.to_s * 1e6);
  // The shared time column is nondecreasing by construction, so the window
  // is a contiguous sample range.
  std::size_t lo = 0, hi = ts.sample_count();
  while (lo < hi && ts.t_us[lo] < from_us) ++lo;
  while (hi > lo && ts.t_us[hi - 1] > to_us) --hi;

  std::vector<std::size_t> selected;
  for (std::size_t s = 0; s < ts.series_count(); ++s)
    if (query.series.empty() ||
        ts.names[s].find(query.series) != std::string::npos)
      selected.push_back(s);
  if (selected.empty()) {
    LogError("inspect", "no series matches '%s'", query.series.c_str());
    return 1;
  }

  if (query.csv) {
    std::printf("t_us");
    for (const std::size_t s : selected)
      std::printf(",%s", ts.names[s].c_str());
    std::printf("\n");
    for (std::size_t i = lo; i < hi; ++i) {
      std::printf("%" PRId64, ts.t_us[i]);
      for (const std::size_t s : selected)
        std::printf(",%" PRId64, ts.values[s][i]);
      std::printf("\n");
    }
    return 0;
  }

  std::printf("timeseries: %zu series, %zu samples, interval %" PRId64
              " us\n",
              ts.series_count(), ts.sample_count(), ts.interval_us);
  if (lo > 0 || hi < ts.sample_count()) {
    const double start =
        lo < hi ? static_cast<double>(ts.t_us[lo]) / 1e6 : 0.0;
    const double end =
        lo < hi ? static_cast<double>(ts.t_us[hi - 1]) / 1e6 : 0.0;
    std::printf("window: %.1f .. %.1f sim-s (%zu samples)\n", start, end,
                hi - lo);
  }
  // Print the executed fault windows next to the stats so an operator can
  // see at a glance whether a peak falls inside an outage.
  const auto windows = PartitionWindows(dir);
  for (std::size_t i = 0; i < windows.size(); ++i)
    std::printf("partition window %zu: %.1f .. %.1f sim-s\n", i,
                static_cast<double>(windows[i].first) / 1e6,
                static_cast<double>(windows[i].second) / 1e6);

  std::printf("%-30s %12s %12s %12s %12s\n", "series", "min", "mean", "max",
              "last");
  for (const std::size_t s : selected) {
    std::int64_t min = 0, max = 0;
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::int64_t v = ts.values[s][i];
      if (i == lo || v < min) min = v;
      if (i == lo || v > max) max = v;
      sum += static_cast<double>(v);
    }
    const std::size_t n = hi - lo;
    std::printf("%-30s %12" PRId64 " %12.1f %12" PRId64 " %12" PRId64 "\n",
                ts.names[s].c_str(), n > 0 ? min : 0,
                n > 0 ? sum / static_cast<double>(n) : 0.0, n > 0 ? max : 0,
                n > 0 ? ts.values[s][hi - 1] : 0);
  }
  return 0;
}

// --- txprov.bin queries -----------------------------------------------------

int PrintTxTimeline(const ethsim::obs::TxProvLog& log, std::uint64_t tx) {
  using ethsim::obs::TxPoolOutcome;
  using ethsim::obs::TxPoolOutcomeName;
  using ethsim::obs::TxStage;
  using ethsim::obs::TxStageName;
  std::size_t records = 0;
  for (std::size_t i = 0; i < log.size(); ++i)
    if (log.tx[i] == tx) ++records;
  if (records == 0) {
    LogError("inspect", "tx %016" PRIx64 " has no records in this log", tx);
    return 1;
  }
  std::printf("tx %016" PRIx64 ": %zu stage records\n", tx, records);
  std::printf("%12s %6s %-6s %-15s  %s\n", "t_us", "host", "region", "stage",
              "detail");
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log.tx[i] != tx) continue;
    const auto stage = static_cast<TxStage>(log.stage[i]);
    std::printf("%12" PRId64 " %6u %-6s %-15s  ", log.t_us[i], log.host[i],
                RegionName(log.host_region, log.host[i]).c_str(),
                std::string(TxStageName(stage)).c_str());
    switch (stage) {
      case TxStage::kSubmitted:
        std::printf("source=%u gas=%" PRIu64 " replacement=%" PRIu64,
                    log.info[i], log.aux[i], log.number[i]);
        break;
      case TxStage::kFirstSeen:
        break;
      case TxStage::kPoolAdmitted:
      case TxStage::kPoolRejected:
      case TxStage::kPoolReplaced:
        std::printf("outcome=%s gas=%" PRIu64,
                    std::string(TxPoolOutcomeName(
                                    static_cast<TxPoolOutcome>(log.info[i])))
                        .c_str(),
                    log.aux[i]);
        break;
      case TxStage::kSelected:
        std::printf("pool=%u block=%016" PRIx64 " height=%" PRIu64,
                    log.info[i], log.aux[i], log.number[i]);
        break;
      case TxStage::kIncluded:
      case TxStage::kOrphanReturned:
        std::printf("block=%016" PRIx64 " height=%" PRIu64, log.aux[i],
                    log.number[i]);
        break;
      case TxStage::kCommitted:
        std::printf("depth=%u block=%016" PRIx64 " include_height=%" PRIu64,
                    log.info[i], log.aux[i], log.number[i]);
        break;
    }
    std::printf("\n");
  }
  return 0;
}

int PrintStages(const ethsim::obs::TxProvLog& log, bool by_region,
                bool by_pool, bool csv) {
  const ethsim::analysis::LatencyStageResult result =
      ethsim::analysis::DecomposeLatencyStages(log);
  if (csv)
    std::fputs(ethsim::analysis::RenderLatencyStagesCsv(result).c_str(),
               stdout);
  else
    std::fputs(ethsim::analysis::RenderLatencyStages(result, by_region,
                                                     by_pool)
                   .c_str(),
               stdout);
  return 0;
}

// --- manifest.json demand query ---------------------------------------------

// Splits a "name:kind:submitted:included" source row. Names cannot contain
// ':' (plan validation does not forbid it, but the writer owns both sides;
// split from the right so a pathological name degrades gracefully).
std::vector<std::string> SplitSourceRow(const std::string& row) {
  std::vector<std::string> fields(4);
  std::size_t end = row.size();
  for (int f = 3; f >= 1; --f) {
    const auto colon = row.rfind(':', end == 0 ? 0 : end - 1);
    if (colon == std::string::npos) break;
    fields[static_cast<std::size_t>(f)] = row.substr(colon + 1,
                                                     end - colon - 1);
    end = colon;
  }
  fields[0] = row.substr(0, end);
  return fields;
}

// Per-source demand from the workload extras a plan-driven run folds into
// its manifest ("workload_source.N" = "name:kind:submitted:included").
int PrintDemand(const std::string& dir, bool json) {
  JsonValue manifest;
  const std::string* sources_extra =
      LoadManifest(dir, &manifest) ? ManifestExtra(manifest, "workload_sources")
                                   : nullptr;
  if (sources_extra == nullptr) {
    LogError("inspect",
             "no workload extras in %s/manifest.json (only runs driven by a "
             "non-empty WorkloadPlan record demand data)",
             dir.c_str());
    return 1;
  }
  const auto extra = [&manifest](const std::string& key) {
    const std::string* value = ManifestExtra(manifest, key);
    return value != nullptr ? *value : std::string();
  };
  const std::string sources = *sources_extra;
  const std::string submitted = extra("workload_submitted");
  const std::string replacements = extra("workload_replacements");
  const std::string completed = extra("workload_closed_loop_completed");
  const std::string in_flight = extra("workload_in_flight_end");
  const std::size_t count =
      static_cast<std::size_t>(std::strtoull(sources.c_str(), nullptr, 10));

  // Collect every row before printing anything: a missing row is a one-line
  // stderr diagnostic and a nonzero exit, never a partial report.
  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string* row =
        ManifestExtra(manifest, "workload_source." + std::to_string(i));
    if (row == nullptr) {
      LogError("inspect", "manifest lists %zu sources but workload_source.%zu "
               "is missing", count, i);
      return 1;
    }
    rows.push_back(SplitSourceRow(*row));
  }

  // Numeric extras are decimal strings written by the manifest; emit "0"
  // when a key is absent so the JSON stays well-formed.
  const auto num = [](const std::string& value) {
    return value.empty() ? std::string("0") : value;
  };
  if (json) {
    std::printf("{\"sources\": %s, \"submitted\": %s, \"replacements\": %s, "
                "\"closed_loop_completed\": %s, \"in_flight_end\": %s, "
                "\"per_source\": [",
                num(sources).c_str(), num(submitted).c_str(),
                num(replacements).c_str(), num(completed).c_str(),
                num(in_flight).c_str());
  } else {
    std::printf("workload plan: %s sources, %s submitted, %s replacements\n",
                sources.c_str(), submitted.c_str(), replacements.c_str());
    std::printf("closed loop: %s completed; %s tracked txs in flight at end\n",
                completed.c_str(), in_flight.c_str());
    std::printf("%-4s %-20s %-12s %12s %12s\n", "#", "source", "kind",
                "submitted", "included");
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::vector<std::string>& fields = rows[i];
    if (json) {
      std::printf("%s{\"index\": %zu, \"name\": %s, \"kind\": %s, "
                  "\"submitted\": %s, \"included\": %s}",
                  i == 0 ? "" : ", ", i, JsonString(fields[0]).c_str(),
                  JsonString(fields[1]).c_str(), num(fields[2]).c_str(),
                  num(fields[3]).c_str());
    } else {
      std::printf("%-4zu %-20s %-12s %12s %12s\n", i, fields[0].c_str(),
                  fields[1].c_str(), fields[2].c_str(), fields[3].c_str());
    }
  }
  if (json) std::printf("]}\n");
  return 0;
}

// --- run-directory validation -----------------------------------------------

int Validate(const std::string& dir, const std::vector<std::string>& require,
             const std::vector<std::string>& forbid_nonzero) {
  const ethsim::obs::ValidationResult result =
      ethsim::obs::ValidateRunDir(dir, require, forbid_nonzero);
  for (const std::string& line : result.failures)
    LogError("validate", "%s", line.c_str());
  if (result.exit_code() == 0) std::printf("%s: valid\n", dir.c_str());
  return result.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string dir = argv[1];
  std::string block_token;
  std::string node_token;
  std::string tx_token;
  bool want_tree = false, want_timeline = false, want_redundancy = false;
  bool want_hops = false, want_degree = false, want_summary = false;
  bool want_timeseries = false, want_watermarks = false, want_demand = false;
  bool want_stages = false, by_region = false, by_pool = false;
  bool json = false, want_validate = false;
  std::vector<std::string> require, forbid_nonzero;
  TimeSeriesQuery ts_query;
  std::size_t top = 20;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        LogError("inspect", "%s needs a value", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--block") block_token = next("--block");
    else if (arg == "--node") node_token = next("--node");
    else if (arg == "--tree") want_tree = true;
    else if (arg == "--timeline") want_timeline = true;
    else if (arg == "--redundancy") want_redundancy = true;
    else if (arg == "--hops") want_hops = true;
    else if (arg == "--infer-degree") want_degree = true;
    else if (arg == "--summary") want_summary = true;
    else if (arg == "--timeseries") want_timeseries = true;
    else if (arg == "--watermarks") want_watermarks = true;
    else if (arg == "--demand") want_demand = true;
    else if (arg == "--tx") tx_token = next("--tx");
    else if (arg == "--stages") want_stages = true;
    else if (arg == "--by-region") by_region = true;
    else if (arg == "--by-pool") by_pool = true;
    else if (arg == "--json") json = true;
    else if (arg == "--validate") want_validate = true;
    else if (arg == "--require") require.push_back(next("--require"));
    else if (arg == "--forbid-nonzero")
      forbid_nonzero.push_back(next("--forbid-nonzero"));
    else if (arg == "--series") ts_query.series = next("--series");
    else if (arg == "--from") ts_query.from_s = std::strtod(next("--from"),
                                                            nullptr);
    else if (arg == "--to") ts_query.to_s = std::strtod(next("--to"), nullptr);
    else if (arg == "--csv") ts_query.csv = true;
    else if (arg == "--top") top = static_cast<std::size_t>(
        std::strtoull(next("--top"), nullptr, 10));
    else {
      LogError("inspect", "unknown flag %s", arg.c_str());
      Usage();
      return 2;
    }
  }

  if (want_validate) return Validate(dir, require, forbid_nonzero);
  if (!require.empty() || !forbid_nonzero.empty()) {
    LogError("inspect", "--require / --forbid-nonzero need --validate");
    return 2;
  }

  // The demand query reads only manifest.json: no binary artifact needed.
  if (want_demand) return PrintDemand(dir, json);

  // Lifecycle queries read only txprov.bin: a run recorded without gossip
  // provenance still answers --tx / --stages.
  if (!tx_token.empty() || want_stages) {
    ethsim::obs::TxProvLog txlog;
    if (!LoadLog(dir, "txprov.bin", "ETHSIM_TXPROV=1", &txlog)) return 1;
    if (!tx_token.empty()) {
      std::uint64_t tx = 0;
      if (!ResolvePrefix(tx_token, txlog.tx, "tx", &tx)) return 1;
      return PrintTxTimeline(txlog, tx);
    }
    // Neither breakdown flag = both sections.
    if (!by_region && !by_pool) by_region = by_pool = true;
    return PrintStages(txlog, by_region, by_pool, ts_query.csv);
  }

  // Time-series queries read only timeseries.bin: a run sampled without
  // provenance recording is fully inspectable.
  if (want_timeseries || want_watermarks) {
    TimeSeriesLog ts;
    if (!LoadLog(dir, "timeseries.bin", "ETHSIM_SAMPLE=1", &ts)) return 1;
    if (want_watermarks) return PrintWatermarks(ts, json);
    return PrintTimeSeries(dir, ts, ts_query);
  }

  ProvenanceLog log;
  if (!LoadLog(dir, "provenance.bin", "ETHSIM_PROVENANCE=1", &log)) return 1;

  // `--block X` implies --tree; `--node X` implies --timeline.
  if (!block_token.empty() && !want_timeline) want_tree = true;
  if (!node_token.empty() && !want_tree) want_timeline = true;

  if (want_tree) {
    if (block_token.empty()) {
      LogError("inspect", "--tree needs --block <hash|head>");
      return 2;
    }
    std::uint64_t object = 0;
    if (!ResolveObject(dir, log, block_token, &object)) return 1;
    return PrintTree(log, object);
  }
  if (want_timeline) {
    if (node_token.empty()) {
      LogError("inspect", "--timeline needs --node <id>");
      return 2;
    }
    return PrintTimeline(log, static_cast<std::uint32_t>(
                                  std::strtoul(node_token.c_str(), nullptr, 10)));
  }
  if (want_redundancy) return PrintRedundancy(log, top, json);
  if (want_hops) return PrintHops(log, json);
  if (want_degree) return PrintDegrees(log, top);
  (void)want_summary;
  return PrintSummary(log);
}
