// FIFO-bounded set of 32-bit ids, the idiom Geth uses for per-peer knownTxs /
// knownBlocks caches: constant memory, oldest entries evicted first. The ids
// are dense handles from a chain::HashInterner, so a cache stores 4 bytes per
// entry where a hash-keyed set would store the 32-byte hash plus node and
// bucket overhead.
//
// Layout: one allocation holding a ring of ids in insertion order, followed by
// an open-addressed index of the same ids (linear probing, kept at most half
// full, backward-shift delete). The ring grows by doubling until it reaches
// the capacity; after that every new id overwrites the oldest slot and that
// id leaves the index. At a power-of-two capacity a full set costs 12 bytes
// per entry (4 ring + 8 index); an empty one allocates nothing. Nothing
// iterates the set, so the order ids were assigned in never becomes
// observable.
//
// The index scatters ids by Fibonacci hashing. Interned ids are dense and a
// cache holds a sliding window of recent ones, so an identity hash would lay
// the window out as one probe run the length of the set, and every
// backward-shift eviction would walk it (BM_TxGossipFlush: ~70x slower).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace ethsim {

class FifoIdSet {
 public:
  using Id = std::uint32_t;
  // The interner's kNoId: never a live id, so it marks empty index slots.
  static constexpr Id kEmpty = 0xFFFFFFFFu;

  explicit FifoIdSet(std::size_t capacity) noexcept
      : capacity_(static_cast<std::uint32_t>(
            std::min<std::size_t>(capacity, kMaxCapacity))) {}

  // A moved-from set is empty and keeps its capacity.
  FifoIdSet(FifoIdSet&& other) noexcept { *this = std::move(other); }
  FifoIdSet& operator=(FifoIdSet&& other) noexcept {
    words_ = std::move(other.words_);
    capacity_ = other.capacity_;
    size_ = std::exchange(other.size_, 0);
    head_ = std::exchange(other.head_, 0);
    ring_slots_ = std::exchange(other.ring_slots_, 0);
    index_bits_ = std::exchange(other.index_bits_, 0);
    return *this;
  }

  // Inserts; returns false if already present (the entry keeps its age).
  // Evicts the oldest entry when over capacity, so capacity 0 holds nothing
  // and every insert into it succeeds.
  bool Insert(Id id) {
    assert(id != kEmpty);
    if (capacity_ == 0) return true;
    if (Contains(id)) return false;
    Id* ring = words_.get();
    if (size_ < capacity_) {
      if (size_ == ring_slots_) ring = Grow();
      ring[size_++] = id;
    } else {
      Erase(ring[head_]);
      ring[head_] = id;
      if (++head_ == capacity_) head_ = 0;
    }
    Place(id);
    return true;
  }

  bool Contains(Id id) const {
    if (size_ == 0) return false;
    const Id* index = words_.get() + ring_slots_;
    const std::uint32_t mask = IndexMask();
    for (std::uint32_t slot = Home(id);; slot = (slot + 1) & mask) {
      if (index[slot] == id) return true;
      if (index[slot] == kEmpty) return false;
    }
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  // Heap bytes held by the ring and the index.
  std::size_t allocated_bytes() const {
    return words_ ? (ring_slots_ + IndexMask() + std::size_t{1}) * sizeof(Id)
                  : 0;
  }

 private:
  // Far above any cache cap; keeps every count and slot index in 32 bits.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 30;
  static constexpr std::uint32_t kMinRingSlots = 4;

  std::uint32_t IndexMask() const { return (1u << index_bits_) - 1; }
  std::uint32_t Home(Id id) const {
    return (id * 0x9E3779B9u) >> (32 - index_bits_);
  }

  // Puts an absent id into the index.
  void Place(Id id) {
    Id* index = words_.get() + ring_slots_;
    const std::uint32_t mask = IndexMask();
    std::uint32_t slot = Home(id);
    while (index[slot] != kEmpty) slot = (slot + 1) & mask;
    index[slot] = id;
  }

  // Removes a present id from the index, pulling later members of its probe
  // run back into the hole so no lookup stops early at it.
  void Erase(Id id) {
    Id* index = words_.get() + ring_slots_;
    const std::uint32_t mask = IndexMask();
    std::uint32_t hole = Home(id);
    while (index[hole] != id) hole = (hole + 1) & mask;
    for (std::uint32_t next = (hole + 1) & mask; index[next] != kEmpty;
         next = (next + 1) & mask) {
      // The entry may move back iff the hole lies between its home and it.
      if (((next - Home(index[next])) & mask) >= ((next - hole) & mask)) {
        index[hole] = index[next];
        hole = next;
      }
    }
    index[hole] = kEmpty;
  }

  // Doubles the ring (up to the capacity) and rebuilds the index at the
  // smallest power of two >= 2x the ring. Only called before the ring has
  // wrapped, so its live entries are the prefix [0, size_).
  Id* Grow() {
    const std::uint32_t ring_slots =
        std::min(capacity_, std::max(kMinRingSlots, ring_slots_ * 2));
    std::uint32_t bits = 1;
    while ((std::uint64_t{1} << bits) < std::uint64_t{2} * ring_slots) ++bits;
    const std::size_t index_slots = std::size_t{1} << bits;
    std::unique_ptr<Id[]> words(new Id[ring_slots + index_slots]);
    std::copy_n(words_.get(), size_, words.get());
    std::fill_n(words.get() + ring_slots, index_slots, kEmpty);
    words_ = std::move(words);
    ring_slots_ = ring_slots;
    index_bits_ = bits;
    for (std::uint32_t i = 0; i < size_; ++i) Place(words_[i]);
    return words_.get();
  }

  std::unique_ptr<Id[]> words_;  // ring_slots_ ring ids, then the index
  std::uint32_t capacity_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t head_ = 0;  // oldest ring slot once the ring is full
  std::uint32_t ring_slots_ = 0;
  std::uint32_t index_bits_ = 0;  // index has 1 << index_bits_ slots
};

}  // namespace ethsim
