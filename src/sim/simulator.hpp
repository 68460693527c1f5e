// Deterministic discrete-event simulation engine. Events fire in
// (time, insertion-sequence) order, so two events scheduled for the same
// instant run in the order they were scheduled — runs are reproducible
// bit-for-bit for a given (config, seed).
//
// Engine layout (see DESIGN.md "Event engine"):
//   - The priority queue is an implicit 4-ary min-heap of 16-byte
//     {when_us, seq40|slot24} records. Callbacks never move through the
//     heap; sifting touches only small POD entries — the four children of a
//     node share one cache line — which is what makes the queue
//     allocation-free and cache-friendly at millions of events/second.
//   - Callbacks live in a chunked slot arena recycled through a free list.
//     Chunks never move, so a callback can be invoked in place (no per-event
//     move) even when handlers schedule new events mid-run. A slot returns
//     to the free list only after its callback has returned.
//
// A scheduled event always fires. A component that must drop a pending
// callback (a crashed node's session timers, say) checks its own state when
// the callback runs, as EthNode's session epoch does.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.hpp"
#include "obs/profiler.hpp"
#include "sim/callback.hpp"

namespace ethsim::sim {

using EventFn = Callback;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint Now() const { return now_; }

  // Schedules fn to run `delay` from now. Delay must be non-negative.
  void Schedule(Duration delay, EventFn fn);
  void ScheduleAt(TimePoint when, EventFn fn);

  // Runs events with timestamp <= until (advancing the clock), then sets the
  // clock to `until`. Returns the number of events executed.
  std::uint64_t RunUntil(TimePoint until);

  // Runs until the queue is completely empty.
  std::uint64_t RunAll();

  std::uint64_t events_executed() const { return executed_; }
  // Number of scheduled, not-yet-fired events.
  std::size_t pending() const { return heap_.size(); }

  // Bytes the engine holds by capacity: slot chunks, heap and free list.
  std::size_t allocated_bytes() const;

  // Attaches the wall-clock engine profiler (null detaches). While attached,
  // the run loop times every callback and emits a periodic EngineSnapshot;
  // detached, the hot loop pays a single predicted branch. Profiling reads
  // engine state only — it cannot change event order or results.
  void set_profiler(obs::EngineProfiler* profiler) { profiler_ = profiler; }
  obs::EngineProfiler* profiler() const { return profiler_; }

  // Current engine occupancy, for profiler samples and diagnostics.
  obs::EngineSnapshot Snapshot() const;

 private:
  // 4-ary beats binary here: shallower sift paths, and with 16-byte entries
  // the four children of a node fit in a single cache line.
  static constexpr std::size_t kArity = 4;

  // A heap key packs seq(40 bits) << 24 | slot index(24 bits). 2^40 sequence
  // numbers bound a simulator instance to ~1.1e12 events and 2^24 slots bound
  // it to ~16.7M concurrently pending events; both are checked and far
  // beyond any study in this repo.
  static constexpr unsigned kLowBits = 24;
  static constexpr std::uint64_t kLowMask = (1ULL << kLowBits) - 1;
  static constexpr std::uint64_t kMaxSeq = (1ULL << 40) - 1;

  // Slot chunks are fixed-size so slot addresses are stable across growth:
  // no per-element relocation when the arena expands, and callbacks can be
  // invoked in place.
  static constexpr unsigned kChunkShift = 10;
  static constexpr std::size_t kChunkSize = 1ULL << kChunkShift;

  struct HeapEntry {
    std::int64_t when_us = 0;
    std::uint64_t key = 0;  // seq << kLowBits | slot
  };

  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    // seq is unique and occupies the high bits of `key`, so comparing the
    // packed word breaks time ties by insertion order.
    if (a.when_us != b.when_us) return a.when_us < b.when_us;
    return a.key < b.key;
  }

  EventFn& SlotAt(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & kLowChunkMask()];
  }
  static constexpr std::uint32_t kLowChunkMask() {
    return static_cast<std::uint32_t>(kChunkSize - 1);
  }

  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);
  void PopTop();

  std::uint64_t Run(TimePoint until, bool bounded);
  // Cold path: invoke one callback under the wall-clock profiler.
  void InvokeProfiled(EventFn& fn);

  TimePoint now_;
  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<EventFn[]>> chunks_;
  std::size_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  // Wall-clock observability (null = off; high-water only tracked while a
  // profiler is attached so the disabled Schedule path stays one branch).
  obs::EngineProfiler* profiler_ = nullptr;
  std::size_t heap_high_water_ = 0;
};

}  // namespace ethsim::sim
