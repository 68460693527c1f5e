#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace ethsim::obs {

std::string_view MsgKindName(MsgKind kind) {
  switch (kind) {
    case MsgKind::kNewBlock: return "new_block";
    case MsgKind::kAnnouncement: return "announcement";
    case MsgKind::kGetBlock: return "get_block";
    case MsgKind::kBlockResponse: return "block_response";
    case MsgKind::kTransactions: return "transactions";
  }
  return "?";
}

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::Observe(std::int64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += value;
}

std::int64_t Histogram::bound(std::size_t i) const {
  return i < bounds_.size() ? bounds_[i]
                            : std::numeric_limits<std::int64_t>::max();
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) < target) continue;
    // Linear interpolation inside the bucket [lower, upper].
    const double lower =
        i == 0 ? 0.0 : static_cast<double>(bounds_[i - 1]);
    const double upper = i < bounds_.size()
                             ? static_cast<double>(bounds_[i])
                             : lower * 2.0 + 1.0;  // open overflow bucket
    const double in_bucket = static_cast<double>(counts_[i]);
    if (in_bucket <= 0.0) return upper;
    const double frac =
        (target - static_cast<double>(cumulative - counts_[i])) / in_bucket;
    return lower + (upper - lower) * frac;
  }
  return static_cast<double>(bounds_.empty() ? 0 : bounds_.back());
}

std::vector<std::int64_t> LatencyBucketsUs() {
  // 100us * (2^k): 100us, 200us, ... ~105s — 21 buckets spanning every
  // simulated delay (per-message overhead to cross-continent tail).
  std::vector<std::int64_t> bounds;
  for (std::int64_t b = 100; b <= 100LL << 20; b <<= 1) bounds.push_back(b);
  return bounds;
}

std::vector<std::int64_t> SizeBucketsBytes() {
  std::vector<std::int64_t> bounds;
  for (std::int64_t b = 16; b <= 16LL << 20; b <<= 2) bounds.push_back(b);
  return bounds;
}

std::string LabeledName(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string out{base};
  if (labels.size() == 0) return out;
  out.push_back('{');
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out.append(key);
    out.push_back('=');
    out.append(value);
  }
  out.push_back('}');
  return out;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  return &counters_[name];
}

Histogram* MetricsRegistry::GetHistogram(
    const std::string& name, const std::vector<std::int64_t>& bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    assert(it->second.bounds_ == bounds && "histogram re-registered with "
                                           "different bounds");
    return &it->second;
  }
  return &histograms_.emplace(name, Histogram{bounds}).first->second;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, counter] : other.counters_)
    counters_[name].value_ += counter.value_;
  for (const auto& [name, histogram] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, histogram);
      continue;
    }
    Histogram& mine = it->second;
    assert(mine.bounds_ == histogram.bounds_ &&
           "merging histograms with mismatched buckets");
    for (std::size_t i = 0; i < mine.counts_.size(); ++i)
      mine.counts_[i] += histogram.counts_[i];
    mine.count_ += histogram.count_;
    mine.sum_ += histogram.sum_;
  }
}

void MetricsRegistry::WriteJsonl(std::ostream& out) const {
  for (const auto& [name, counter] : counters_) {
    out << "{\"type\":\"counter\",\"name\":";
    out << JsonString(name);
    out << ",\"value\":" << counter.value() << "}\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    out << "{\"type\":\"histogram\",\"name\":";
    out << JsonString(name);
    out << ",\"count\":" << histogram.count() << ",\"sum\":" << histogram.sum()
        << ",\"buckets\":[";
    for (std::size_t i = 0; i < histogram.bucket_count(); ++i) {
      if (i != 0) out << ',';
      out << '[';
      if (i + 1 == histogram.bucket_count()) {
        out << "null";  // +inf overflow bucket
      } else {
        out << histogram.bound(i);
      }
      out << ',' << histogram.bucket(i) << ']';
    }
    out << "]}\n";
  }
}

std::string MetricsRegistry::ToJsonl() const {
  std::ostringstream out;
  WriteJsonl(out);
  return out.str();
}

}  // namespace ethsim::obs
