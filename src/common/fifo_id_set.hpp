// FIFO-bounded set of 32-bit ids, the idiom Geth uses for per-peer knownTxs /
// knownBlocks caches: constant memory, oldest entries evicted first. The ids
// are dense handles from a chain::HashInterner, so a cache stores 4 bytes per
// entry where a hash-keyed set would store the 32-byte hash plus node and
// bucket overhead.
//
// Layout: one allocation holding a ring of ids in insertion order, followed by
// an open-addressed index of 16-bit ring positions (linear probing, kept at
// most half full, backward-shift delete). A probe hashes the id and compares
// ring[position] at each slot it visits. The ring grows by doubling until it
// reaches the capacity; after that every new id overwrites the oldest slot,
// whose position leaves the index first. At a power-of-two capacity a full
// set costs 8 bytes per entry (4 ring + 2 x 2 index); an empty one allocates
// nothing. Capacities stop at 65,535, so every position fits 16 bits and
// 0xFFFF is free to mark an empty slot. Nothing iterates the set, so the
// order ids were assigned in never becomes observable.
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
#include <cstring>
#include <memory>
#include <new>
#include <utility>

namespace ethsim {

class FifoIdSet {
 public:
  using Id = std::uint32_t;
  // The largest capacity: ring positions 0..65,534 plus the empty mark.
  static constexpr std::size_t kMaxCapacity = 0xFFFF;

  explicit FifoIdSet(std::size_t capacity) noexcept
      : capacity_(static_cast<std::uint32_t>(
            std::min(capacity, kMaxCapacity))) {
    assert(capacity <= kMaxCapacity);
  }

  // A moved-from set is empty and keeps its capacity.
  FifoIdSet(FifoIdSet&& other) noexcept { *this = std::move(other); }
  FifoIdSet& operator=(FifoIdSet&& other) noexcept {
    bytes_ = std::move(other.bytes_);
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
    if (capacity_ == 0) return true;
    if (Contains(id)) return false;
    std::uint32_t pos = head_;
    if (size_ < capacity_) {
      if (size_ == ring_slots_) Grow();
      pos = size_++;
    } else {
      Erase(pos);
      if (++head_ == capacity_) head_ = 0;
    }
    Ring()[pos] = id;
    Place(pos);
    return true;
  }

  bool Contains(Id id) const {
    if (size_ == 0) return false;
    const Id* ring = Ring();
    const Pos* index = Index();
    const std::uint32_t mask = IndexMask();
    for (std::uint32_t slot = Home(id);; slot = (slot + 1) & mask) {
      const Pos pos = index[slot];
      if (pos == kNoPos) return false;
      if (ring[pos] == id) return true;
    }
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  // Heap bytes held by the ring and the index.
  std::size_t allocated_bytes() const {
    return bytes_ ? ring_slots_ * sizeof(Id) + (IndexMask() + 1) * sizeof(Pos)
                  : 0;
  }

 private:
  using Pos = std::uint16_t;  // a ring position
  static constexpr Pos kNoPos = 0xFFFF;
  static constexpr std::uint32_t kMinRingSlots = 4;

  // Allocating the byte array implicitly creates the ring's and the index's
  // integers in it (C++20); std::launder yields pointers to them. Only
  // called once the array exists.
  Id* Ring() const { return std::launder(reinterpret_cast<Id*>(bytes_.get())); }
  Pos* Index() const {
    return std::launder(
        reinterpret_cast<Pos*>(bytes_.get() + ring_slots_ * sizeof(Id)));
  }
  std::uint32_t IndexMask() const { return (1u << index_bits_) - 1; }
  std::uint32_t Home(Id id) const {
    return (id * 0x9E3779B9u) >> (32 - index_bits_);
  }

  // Puts a ring position whose id is absent from the index into it.
  void Place(std::uint32_t pos) {
    Pos* index = Index();
    const std::uint32_t mask = IndexMask();
    std::uint32_t slot = Home(Ring()[pos]);
    while (index[slot] != kNoPos) slot = (slot + 1) & mask;
    index[slot] = static_cast<Pos>(pos);
  }

  // Removes an indexed ring position, pulling later members of its probe run
  // back into the hole so no lookup stops early at it.
  void Erase(std::uint32_t pos) {
    const Id* ring = Ring();
    Pos* index = Index();
    const std::uint32_t mask = IndexMask();
    std::uint32_t hole = Home(ring[pos]);
    while (index[hole] != pos) hole = (hole + 1) & mask;
    for (std::uint32_t next = (hole + 1) & mask; index[next] != kNoPos;
         next = (next + 1) & mask) {
      // The entry may move back iff the hole lies between its home and it.
      if (((next - Home(ring[index[next]])) & mask) >= ((next - hole) & mask)) {
        index[hole] = index[next];
        hole = next;
      }
    }
    index[hole] = kNoPos;
  }

  // Doubles the ring (up to the capacity) and rebuilds the index at the
  // smallest power of two >= 2x the ring. Only called before the ring has
  // wrapped, so its live entries are the prefix [0, size_).
  void Grow() {
    const std::uint32_t ring_slots =
        std::min(capacity_, std::max(kMinRingSlots, ring_slots_ * 2));
    std::uint32_t bits = 1;
    while ((1u << bits) < 2 * ring_slots) ++bits;
    const std::size_t index_slots = std::size_t{1} << bits;
    std::unique_ptr<std::byte[]> bytes(
        new std::byte[ring_slots * sizeof(Id) + index_slots * sizeof(Pos)]);
    if (size_ > 0) std::memcpy(bytes.get(), bytes_.get(), size_ * sizeof(Id));
    bytes_ = std::move(bytes);
    ring_slots_ = ring_slots;
    index_bits_ = bits;
    std::fill_n(Index(), index_slots, kNoPos);
    for (std::uint32_t pos = 0; pos < size_; ++pos) Place(pos);
  }

  // ring_slots_ ids, then 1 << index_bits_ positions
  std::unique_ptr<std::byte[]> bytes_;
  std::uint32_t capacity_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t head_ = 0;  // oldest ring slot once the ring is full
  std::uint32_t ring_slots_ = 0;
  std::uint32_t index_bits_ = 0;  // index has 1 << index_bits_ slots
};

}  // namespace ethsim
