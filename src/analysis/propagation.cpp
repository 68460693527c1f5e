#include "analysis/propagation.hpp"

#include <algorithm>

namespace ethsim::analysis {

namespace {

// Collects, for every item hash, the first-arrival time at each observer.
// `arrivals(obs)` must return the observer's hash -> first-arrival map.
template <typename ArrivalsFn>
PropagationResult ComputeDelays(const ObserverSet& observers,
                                ArrivalsFn arrivals) {
  PropagationResult result;
  if (observers.empty()) return result;

  // Iterate hashes of the first observer's log joined against the others;
  // then also consider items the first observer missed by unioning all keys.
  std::unordered_map<Hash32, std::vector<TimePoint>> by_hash;
  for (const auto* obs : observers)
    for (const auto& [hash, when] : arrivals(*obs)) by_hash[hash].push_back(when);

  for (auto& [hash, times] : by_hash) {
    if (times.size() < 2) continue;
    ++result.items;
    const TimePoint first = *std::min_element(times.begin(), times.end());
    for (const TimePoint t : times) {
      if (t == first) continue;
      result.delays_ms.Add((t - first).millis());
    }
    // When several vantages tie for first only the remaining ones
    // contribute, matching the paper's definition.
  }

  if (!result.delays_ms.empty()) {
    result.median_ms = result.delays_ms.Median();
    result.mean_ms = result.delays_ms.mean();
    result.p95_ms = result.delays_ms.Quantile(0.95);
    result.p99_ms = result.delays_ms.Quantile(0.99);
  }
  return result;
}

template <typename ArrivalsFn>
std::vector<VantageDelay> ComputePerVantage(const ObserverSet& observers,
                                            ArrivalsFn arrivals) {
  // First-arrival per hash across all observers.
  std::unordered_map<Hash32, TimePoint> global_first;
  for (const auto* obs : observers) {
    for (const auto& [hash, when] : arrivals(*obs)) {
      auto [it, inserted] = global_first.try_emplace(hash, when);
      if (!inserted && when < it->second) it->second = when;
    }
  }

  std::vector<VantageDelay> out;
  for (const auto* obs : observers) {
    SampleSet deltas;
    for (const auto& [hash, when] : arrivals(*obs)) {
      const TimePoint first = global_first.at(hash);
      if (when > first) deltas.Add((when - first).millis());
    }
    out.push_back(VantageDelay{obs->name(),
                               deltas.empty() ? 0.0 : deltas.Median(),
                               deltas.count()});
  }
  return out;
}

const std::unordered_map<Hash32, TimePoint>& BlockArrivals(
    const measure::Observer& obs) {
  return obs.first_block_arrival();
}
const std::unordered_map<Hash32, TimePoint>& TxArrivals(
    const measure::Observer& obs) {
  return obs.first_tx_arrival();
}

}  // namespace

PropagationResult BlockPropagationDelays(const ObserverSet& observers) {
  return ComputeDelays(observers, BlockArrivals);
}

PropagationResult TxPropagationDelays(const ObserverSet& observers) {
  return ComputeDelays(observers, TxArrivals);
}

std::vector<VantageDelay> PerVantageTxDelay(const ObserverSet& observers) {
  return ComputePerVantage(observers, TxArrivals);
}

}  // namespace ethsim::analysis
