// Fig 1 + §III-A1: block and transaction propagation delays measured exactly
// as Decker & Wattenhofer adapted by the paper — the delay of a block at a
// vantage is its arrival time there minus the *earliest* arrival at any
// vantage. Only vantage timestamps are used (never simulator truth), so NTP
// skew contaminates the samples just as it did in the real study.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/inputs.hpp"
#include "common/stats.hpp"

namespace ethsim::analysis {

struct PropagationResult {
  SampleSet delays_ms;       // all non-first-vantage deltas, in milliseconds
  std::size_t items = 0;     // blocks (or txs) observed by >= 2 vantages
  double median_ms = 0;
  double mean_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

// Block propagation delays across the vantage set (Fig 1).
PropagationResult BlockPropagationDelays(const ObserverSet& observers);

// Transaction propagation delays, computed identically (§III-A1 reports
// these are not geographically distinguishable).
PropagationResult TxPropagationDelays(const ObserverSet& observers);

// Per-vantage median tx delta, used to argue the geographic (in)difference
// (§III-A1): one entry per observer, NaN-free (observers with no samples
// report 0).
struct VantageDelay {
  std::string name;
  double median_ms = 0;
  std::size_t samples = 0;
};
std::vector<VantageDelay> PerVantageTxDelay(const ObserverSet& observers);

}  // namespace ethsim::analysis
