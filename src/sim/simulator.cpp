#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace ethsim::sim {

namespace {

[[noreturn]] void DieOnExhaustedCapacity(const char* what) {
  std::fprintf(stderr, "sim::Simulator: %s exhausted\n", what);
  std::abort();
}

}  // namespace

void Simulator::Schedule(Duration delay, EventFn fn) {
  assert(delay.micros() >= 0);
  ScheduleAt(now_ + delay, std::move(fn));
}

void Simulator::ScheduleAt(TimePoint when, EventFn fn) {
  assert(when >= now_);

  const std::uint64_t seq = next_seq_++;
  if (seq > kMaxSeq) DieOnExhaustedCapacity("event sequence space");

  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slot_count_ == (chunks_.size() << kChunkShift)) {
      if (slot_count_ > kLowMask) DieOnExhaustedCapacity("slot index space");
      chunks_.push_back(std::make_unique<EventFn[]>(kChunkSize));
    }
    index = static_cast<std::uint32_t>(slot_count_++);
  }
  SlotAt(index) = std::move(fn);

  heap_.push_back(HeapEntry{when.micros(), (seq << kLowBits) | index});
  SiftUp(heap_.size() - 1);
  // Queue-pressure high-water is profiler-gated so the disabled Schedule
  // path costs exactly this one predicted branch.
  if (profiler_ != nullptr && heap_.size() > heap_high_water_) [[unlikely]]
    heap_high_water_ = heap_.size();
}

void Simulator::SiftUp(std::size_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!Before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::SiftDown(std::size_t i) {
  const HeapEntry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c)
      if (Before(heap_[c], heap_[best])) best = c;
    if (!Before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Simulator::PopTop() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

std::uint64_t Simulator::Run(TimePoint until, bool bounded) {
  std::uint64_t ran = 0;
  const std::int64_t limit = until.micros();
  while (!heap_.empty()) {
    const HeapEntry top = heap_[0];
    if (bounded && top.when_us > limit) break;
    PopTop();
    // The next event's slot is a random index into the arena; start pulling
    // its line in while we do bookkeeping and run the current callback.
    if (!heap_.empty())
      __builtin_prefetch(&SlotAt(static_cast<std::uint32_t>(heap_[0].key & kLowMask)));

    assert(top.when_us >= now_.micros());
    now_ = TimePoint::FromMicros(top.when_us);
    ++executed_;
    ++ran;
    // Run the callback in place: chunk addresses are stable, so nested
    // Schedule calls cannot move it. The slot joins the free list only
    // afterwards, so nothing reuses it while it runs.
    const auto index = static_cast<std::uint32_t>(top.key & kLowMask);
    EventFn& fn = SlotAt(index);
    if (profiler_ == nullptr) [[likely]] {
      fn();
    } else {
      InvokeProfiled(fn);
    }
    fn.reset();
    free_slots_.push_back(index);
  }
  if (bounded && now_ < until) now_ = until;
  return ran;
}

void Simulator::InvokeProfiled(EventFn& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  profiler_->ObserveCallbackNs(static_cast<std::uint64_t>(elapsed));
  if ((executed_ & profiler_->sample_mask()) == 0)
    profiler_->RecordSample(Snapshot());
}

obs::EngineSnapshot Simulator::Snapshot() const {
  obs::EngineSnapshot snapshot;
  snapshot.sim_now_us = now_.micros();
  snapshot.events_executed = executed_;
  snapshot.heap_size = heap_.size();
  snapshot.heap_high_water = heap_high_water_;
  snapshot.slots_allocated = slot_count_;
  snapshot.free_slots = free_slots_.size();
  return snapshot;
}

std::size_t Simulator::allocated_bytes() const {
  return chunks_.size() * kChunkSize * sizeof(EventFn) +
         chunks_.capacity() * sizeof(chunks_[0]) +
         heap_.capacity() * sizeof(HeapEntry) +
         free_slots_.capacity() * sizeof(std::uint32_t);
}

std::uint64_t Simulator::RunUntil(TimePoint until) { return Run(until, true); }

std::uint64_t Simulator::RunAll() { return Run(TimePoint{}, false); }

}  // namespace ethsim::sim
