#include "obs/profiler.hpp"

#include <bit>
#include <ostream>
#include <sstream>

namespace ethsim::obs {

namespace {

// Round up to a power of two (minimum 1).
std::uint64_t NextPow2(std::uint64_t v) {
  if (v <= 1) return 1;
  return std::bit_ceil(v);
}

}  // namespace

EngineProfiler::EngineProfiler(std::uint64_t sample_every_events)
    : sample_mask_(NextPow2(sample_every_events) - 1),
      start_(std::chrono::steady_clock::now()) {}

void EngineProfiler::ObserveCallbackNs(std::uint64_t ns) {
  const unsigned bucket = ns == 0 ? 0u : 63u - static_cast<unsigned>(
                                             std::countl_zero(ns));
  ++callback_buckets_[bucket < kLog2Buckets ? bucket : kLog2Buckets - 1];
  ++callback_count_;
  callback_total_ns_ += ns;
}

void EngineProfiler::RecordSample(const EngineSnapshot& snapshot) {
  SampleRecord record;
  record.engine = snapshot;
  record.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  const double window_s = record.wall_s - last_sample_wall_s_;
  const std::uint64_t window_events =
      snapshot.events_executed - last_sample_events_;
  record.events_per_wall_s =
      window_s > 0 ? static_cast<double>(window_events) / window_s : 0.0;
  last_sample_wall_s_ = record.wall_s;
  last_sample_events_ = snapshot.events_executed;
  samples_.push_back(record);
}

void EngineProfiler::WriteJsonl(std::ostream& out) const {
  for (const SampleRecord& s : samples_) {
    out << "{\"type\":\"sample\",\"wall_s\":" << s.wall_s
        << ",\"sim_us\":" << s.engine.sim_now_us
        << ",\"events\":" << s.engine.events_executed
        << ",\"events_per_wall_s\":" << s.events_per_wall_s
        << ",\"heap_size\":" << s.engine.heap_size
        << ",\"heap_high_water\":" << s.engine.heap_high_water
        << ",\"slots_allocated\":" << s.engine.slots_allocated
        << ",\"free_slots\":" << s.engine.free_slots
        << ",\"live_events\":" << s.engine.live_events << "}\n";
  }
  out << "{\"type\":\"callback_histogram\",\"unit\":\"log2_ns\",\"count\":"
      << callback_count_ << ",\"total_ns\":" << callback_total_ns_
      << ",\"buckets\":[";
  // Trim trailing empty buckets for readability.
  std::size_t last = 0;
  for (std::size_t i = 0; i < kLog2Buckets; ++i)
    if (callback_buckets_[i] != 0) last = i + 1;
  for (std::size_t i = 0; i < last; ++i) {
    if (i != 0) out << ',';
    out << callback_buckets_[i];
  }
  out << "]}\n";
}

std::string EngineProfiler::ToJsonl() const {
  std::ostringstream out;
  WriteJsonl(out);
  return out.str();
}

}  // namespace ethsim::obs
