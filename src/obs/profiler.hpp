// Engine profiler — the *wall-clock* half of the telemetry subsystem. This
// data answers "where does the real time go?" (events per wall-second, heap
// and slot-arena occupancy, callback wall-time distribution) and is
// inherently machine-dependent and nondeterministic: it is
// written to its own profile.jsonl stream and never merged with the
// deterministic sim-clock metrics or trace.
//
// Integration: Simulator::set_profiler() attaches it; the engine then times
// every callback and pushes an EngineSnapshot every `sample_every_events`
// events. When no profiler is attached the engine hot loop pays one
// predicted branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ethsim::obs {

// Point-in-time engine state, filled by the Simulator at sample time.
struct EngineSnapshot {
  std::int64_t sim_now_us = 0;
  std::uint64_t events_executed = 0;
  std::size_t heap_size = 0;        // pending events
  std::size_t heap_high_water = 0;  // max heap size observed this run
  std::size_t slots_allocated = 0;  // slot arena size (chunks * chunk size used)
  std::size_t free_slots = 0;       // recycled slots awaiting reuse
};

class EngineProfiler {
 public:
  explicit EngineProfiler(std::uint64_t sample_every_events = 1ull << 16);

  // Events between periodic snapshots; always a power of two so the engine
  // can mask instead of divide.
  std::uint64_t sample_mask() const { return sample_mask_; }

  // --- engine-facing hooks -------------------------------------------------
  void ObserveCallbackNs(std::uint64_t ns);
  void RecordSample(const EngineSnapshot& snapshot);

  // --- results -------------------------------------------------------------
  struct SampleRecord {
    double wall_s = 0;            // seconds since profiler construction
    double events_per_wall_s = 0; // rate over the last sampling window
    EngineSnapshot engine;
  };

  std::uint64_t callbacks_timed() const { return callback_count_; }
  std::uint64_t callback_total_ns() const { return callback_total_ns_; }
  const std::vector<SampleRecord>& samples() const { return samples_; }

  // JSONL: one "sample" line per snapshot, then one "callback_histogram"
  // line (log2-ns buckets).
  void WriteJsonl(std::ostream& out) const;
  std::string ToJsonl() const;

 private:
  std::uint64_t sample_mask_;
  std::chrono::steady_clock::time_point start_;

  // log2(ns) buckets: [1ns, 2ns) ... [2^47ns, ...): 48 fixed buckets.
  static constexpr std::size_t kLog2Buckets = 48;
  std::uint64_t callback_buckets_[kLog2Buckets] = {};
  std::uint64_t callback_count_ = 0;
  std::uint64_t callback_total_ns_ = 0;

  std::vector<SampleRecord> samples_;
  std::uint64_t last_sample_events_ = 0;
  double last_sample_wall_s_ = 0;
};

}  // namespace ethsim::obs
