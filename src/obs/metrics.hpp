// Deterministic metrics registry — the sim-clock half of the telemetry
// subsystem (see DESIGN.md "Telemetry"). Counters and fixed-bucket
// histograms are registered by name (labels rendered into the name with a
// fixed key order, e.g. "net.msg.sent{kind=new_block}") and updated only from
// simulation events, so for a given (config, seed) the registry contents are
// bit-for-bit reproducible — unlike the wall-clock EngineProfiler, which is
// explicitly nondeterministic and lives in a separate output stream.
//
// Hot-path contract: instruments are resolved to stable pointers once at
// attach time (std::map nodes never move); the per-event cost is a pointer
// null check plus an add. Components that hold a Telemetry* pay exactly one
// predicted branch when telemetry is disabled.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ethsim::obs {

// Wire-message kinds — the static label dimension shared by net/eth
// instrumentation and by the Network drop accounting.
enum class MsgKind : std::uint8_t {
  kNewBlock = 0,   // unsolicited full-block push
  kAnnouncement,   // NewBlockHashes entry
  kGetBlock,       // block body request
  kBlockResponse,  // block body response
  kTransactions,   // batched tx relay
};
inline constexpr std::size_t kMsgKindCount = 5;
std::string_view MsgKindName(MsgKind kind);

// Monotonic event counter.
class Counter {
 public:
  void Add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;
  std::uint64_t value_ = 0;
};

// Fixed-bucket histogram: `bounds` are inclusive upper bounds per bucket plus
// an implicit +inf overflow bucket. Bounds are fixed at registration so two
// registries created from the same config always merge bucket-by-bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds);

  void Observe(std::int64_t value);

  std::uint64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
  // Upper bound of bucket i; the last bucket reports INT64_MAX.
  std::int64_t bound(std::size_t i) const;
  // Bucket-interpolated quantile estimate in [0,1]; 0 when empty.
  double Quantile(double q) const;

 private:
  friend class MetricsRegistry;
  std::vector<std::int64_t> bounds_;  // sorted, strictly increasing
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (overflow last)
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
};

// Canonical bucket sets (microsecond domain) so histograms registered by
// different components/seeds always line up for merging.
std::vector<std::int64_t> LatencyBucketsUs();    // 100us .. ~100s, log-spaced
std::vector<std::int64_t> SizeBucketsBytes();    // 16B .. 16MB, power-of-4

// Renders a metric name with labels in the caller-supplied order:
// LabeledName("net.msg.sent", {{"kind", "new_block"}, {"region", "WE"}})
//   -> "net.msg.sent{kind=new_block,region=WE}"
std::string LabeledName(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>> labels);

// Owns all instruments of one simulation world. Registration (map insert) is
// expected at attach/setup time; hot paths use the returned stable pointers.
// Never shared across threads: each sweep member owns its registry and the
// sweep merges them afterwards in seed order.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  MetricsRegistry(MetricsRegistry&&) = default;
  MetricsRegistry& operator=(MetricsRegistry&&) = default;

  // Idempotent: the same name always returns the same instrument.
  Counter* GetCounter(const std::string& name);
  // `bounds` must match any previous registration of `name`.
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<std::int64_t>& bounds);

  // Lookup without creating; null when absent.
  const Counter* FindCounter(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  // Element-wise accumulate: counters and histograms add (cross-seed merge
  // semantics). Instruments missing locally are created. Callers merge in seed order so the result is
  // invariant under sweep thread count.
  void MergeFrom(const MetricsRegistry& other);

  // One JSON object per line, sorted by metric name — a deterministic stream
  // for a deterministic registry.
  void WriteJsonl(std::ostream& out) const;
  std::string ToJsonl() const;

  bool empty() const {
    return counters_.empty() && histograms_.empty();
  }
  std::size_t size() const { return counters_.size() + histograms_.size(); }

 private:
  // std::map: sorted deterministic iteration + stable node addresses, so the
  // pointers handed to hot paths survive later registrations.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace ethsim::obs
