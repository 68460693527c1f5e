// Dense interning of 32-byte chain identities. Every block hash a component
// touches is keccak output, so its bytes are already uniformly distributed —
// probing an open-addressing table straight off the first word is both
// cheaper than std::unordered_map's bucket machinery and free of per-node
// allocations. Interned ids are dense uint32s assigned in first-seen order,
// which is what lets the world BlockDag and its per-node views keep their
// per-block state in flat arrays indexed by id (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/types.hpp"

namespace ethsim::chain {

// Transparent identity-hash adaptor for the containers that must stay
// hash-keyed (per-node seen/importing/requested sets, network-level caches).
// Identical distribution contract as std::hash<FixedBytes<N>> but usable in
// heterogeneous lookups and explicit about the no-re-hash guarantee.
struct Hash32IdentityHash {
  using is_transparent = void;
  std::size_t operator()(const Hash32& h) const noexcept {
    std::uint64_t v;
    std::memcpy(&v, h.bytes.data(), sizeof(v));
    return static_cast<std::size_t>(v);
  }
};

class HashInterner {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNoId = 0xFFFFFFFFu;

  HashInterner() { Rehash(kInitialSlots); }

  // Returns the dense id for `hash`, assigning the next id on first sight.
  Id Intern(const Hash32& hash) {
    std::size_t probe = Slot(hash);
    while (true) {
      const Id id = slots_[probe];
      if (id == kNoId) break;
      if (hashes_[id] == hash) return id;
      probe = (probe + 1) & mask_;
    }
    const Id id = static_cast<Id>(hashes_.size());
    hashes_.push_back(hash);
    slots_[probe] = id;
    if (hashes_.size() * 4 >= slots_.size() * 3) Grow();  // 3/4 load factor
    return id;
  }

  // kNoId when the hash was never interned.
  Id Find(const Hash32& hash) const {
    std::size_t probe = Slot(hash);
    while (true) {
      const Id id = slots_[probe];
      if (id == kNoId) return kNoId;
      if (hashes_[id] == hash) return id;
      probe = (probe + 1) & mask_;
    }
  }

  bool Contains(const Hash32& hash) const { return Find(hash) != kNoId; }
  const Hash32& Resolve(Id id) const { return hashes_[id]; }
  std::size_t size() const { return hashes_.size(); }
  // Heap held by the table and the id -> hash vector (capacities).
  std::size_t allocated_bytes() const {
    return slots_.capacity() * sizeof(Id) + hashes_.capacity() * sizeof(Hash32);
  }

 private:
  static constexpr std::size_t kInitialSlots = 64;

  std::size_t Slot(const Hash32& hash) const {
    std::uint64_t v;
    std::memcpy(&v, hash.bytes.data(), sizeof(v));
    return static_cast<std::size_t>(v) & mask_;
  }

  void Grow() { Rehash(slots_.size() * 2); }

  void Rehash(std::size_t new_slots) {
    slots_.assign(new_slots, kNoId);
    mask_ = new_slots - 1;
    for (Id id = 0; id < hashes_.size(); ++id) {
      std::size_t probe = Slot(hashes_[id]);
      while (slots_[probe] != kNoId) probe = (probe + 1) & mask_;
      slots_[probe] = id;
    }
  }

  std::vector<Id> slots_;     // open-addressing table; kNoId = empty
  std::vector<Hash32> hashes_;  // id -> hash, dense first-seen order
  std::size_t mask_ = 0;
};

}  // namespace ethsim::chain
