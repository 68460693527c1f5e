#include "common/fifo_id_set.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <type_traits>
#include <utility>

#include "common/random.hpp"

namespace ethsim {
namespace {

TEST(FifoIdSet, InsertAndContains) {
  FifoIdSet set{4};
  EXPECT_TRUE(set.Insert(1));
  EXPECT_FALSE(set.Insert(1));
  EXPECT_TRUE(set.Contains(1));
  EXPECT_FALSE(set.Contains(2));
  EXPECT_EQ(set.size(), 1u);
}

TEST(FifoIdSet, EvictsOldestBeyondCapacity) {
  FifoIdSet set{3};
  set.Insert(1);
  set.Insert(2);
  set.Insert(3);
  set.Insert(4);  // evicts 1
  EXPECT_FALSE(set.Contains(1));
  EXPECT_TRUE(set.Contains(2));
  EXPECT_TRUE(set.Contains(4));
  EXPECT_EQ(set.size(), 3u);
}

TEST(FifoIdSet, ReinsertAfterEvictionSucceeds) {
  FifoIdSet set{2};
  set.Insert(1);
  set.Insert(2);
  set.Insert(3);  // evicts 1
  EXPECT_TRUE(set.Insert(1));
  EXPECT_FALSE(set.Contains(2));  // 2 evicted by the reinsertion
}

TEST(FifoIdSet, CapacityOneDegeneratesGracefully) {
  FifoIdSet set{1};
  set.Insert(1);
  set.Insert(2);
  EXPECT_FALSE(set.Contains(1));
  EXPECT_TRUE(set.Contains(2));
  EXPECT_EQ(set.size(), 1u);
}

TEST(FifoIdSet, CapacityZeroHoldsNothing) {
  FifoIdSet set{0};
  EXPECT_TRUE(set.Insert(5));
  EXPECT_TRUE(set.Insert(5));  // never held, so never a duplicate
  EXPECT_FALSE(set.Contains(5));
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.allocated_bytes(), 0u);
}

TEST(FifoIdSet, PresentInsertDoesNotRefreshAge) {
  FifoIdSet set{2};
  set.Insert(1);
  set.Insert(2);
  EXPECT_FALSE(set.Insert(1));  // still the oldest
  set.Insert(3);
  EXPECT_FALSE(set.Contains(1));
  EXPECT_TRUE(set.Contains(2));
  EXPECT_TRUE(set.Contains(3));
}

TEST(FifoIdSet, EmptyIsFreeAndFullCostsEightBytesPerEntry) {
  FifoIdSet set{1024};
  EXPECT_EQ(set.allocated_bytes(), 0u);
  for (FifoIdSet::Id id = 0; id < 5000; ++id) set.Insert(id);
  EXPECT_EQ(set.size(), 1024u);
  EXPECT_EQ(set.allocated_bytes(), 1024u * 8);
}

TEST(FifoIdSet, MoveTransfersEntriesAndEmptiesSource) {
  static_assert(std::is_nothrow_move_constructible_v<FifoIdSet>);
  static_assert(std::is_nothrow_move_assignable_v<FifoIdSet>);
  FifoIdSet a{3};
  for (FifoIdSet::Id id = 10; id < 15; ++id) a.Insert(id);  // holds 12..14
  FifoIdSet b{std::move(a)};
  EXPECT_EQ(b.size(), 3u);
  EXPECT_TRUE(b.Contains(12));
  EXPECT_TRUE(b.Contains(14));
  EXPECT_FALSE(b.Contains(11));
  b.Insert(15);  // eviction order survives the move: 12 goes first
  EXPECT_FALSE(b.Contains(12));
  EXPECT_TRUE(b.Contains(13));

  // The source is an empty set of the same capacity, usable again.
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.allocated_bytes(), 0u);
  EXPECT_EQ(a.capacity(), 3u);
  EXPECT_FALSE(a.Contains(13));
  for (FifoIdSet::Id id = 1; id <= 4; ++id) EXPECT_TRUE(a.Insert(id));
  EXPECT_FALSE(a.Contains(1));
  EXPECT_TRUE(a.Contains(2));

  FifoIdSet c{8};
  c = std::move(b);
  EXPECT_EQ(c.capacity(), 3u);
  EXPECT_TRUE(c.Contains(15));
  EXPECT_EQ(b.size(), 0u);
}

// The reference semantics: a std::deque of insertion order plus a std::set of
// members, evicting from the front past the capacity.
class Model {
 public:
  explicit Model(std::size_t capacity) : capacity_(capacity) {}
  bool Insert(FifoIdSet::Id id) {
    if (!members_.insert(id).second) return false;
    order_.push_back(id);
    if (order_.size() > capacity_) {
      members_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }
  bool Contains(FifoIdSet::Id id) const { return members_.contains(id); }
  std::size_t size() const { return members_.size(); }

 private:
  std::size_t capacity_;
  std::set<FifoIdSet::Id> members_;
  std::deque<FifoIdSet::Id> order_;
};

// Random Insert/Contains sequences against the model. Small id ranges pack
// the index with colliding probe runs and keep re-inserting present and
// recently evicted ids; the wide range walks the ring through every doubling
// and the index through every rebuild; the spread range puts ids in the top
// bits so their home slots wrap around the index end.
TEST(FifoIdSet, MatchesDequeSetModel) {
  for (const std::size_t cap : {0, 1, 2, 3, 7, 1024}) {
    const std::uint32_t ranges[] = {static_cast<std::uint32_t>(cap) + 2,
                                    static_cast<std::uint32_t>(4 * cap) + 8,
                                    static_cast<std::uint32_t>(64 * cap) + 64};
    for (const std::uint32_t range : ranges) {
      for (const std::uint32_t stride : {1u, 0x00FFFFFFu}) {
        Rng rng{cap * 1'000'003 + range * 31 + stride};
        FifoIdSet set{cap};
        Model model{cap};
        for (int op = 0; op < 20'000; ++op) {
          const auto id =
              static_cast<FifoIdSet::Id>(rng.NextBounded(range)) * stride;
          if (rng.NextBounded(3) == 0) {
            ASSERT_EQ(set.Contains(id), model.Contains(id))
                << "cap " << cap << " range " << range << " op " << op;
          } else {
            ASSERT_EQ(set.Insert(id), model.Insert(id))
                << "cap " << cap << " range " << range << " op " << op;
          }
          ASSERT_EQ(set.size(), model.size()) << "cap " << cap << " op " << op;
        }
        for (std::uint32_t v = 0; v < range; ++v)
          ASSERT_EQ(set.Contains(v * stride), model.Contains(v * stride))
              << "cap " << cap << " range " << range << " id " << v * stride;
      }
    }
  }
}

// At the largest capacity the ring wraps more than once, so the index holds
// position 65,534, the one next to its empty mark, through inserts, probes
// and evictions.
TEST(FifoIdSet, MaxCapacityWrapsTheRingAgainstTheModel) {
  constexpr std::size_t cap = FifoIdSet::kMaxCapacity;
  constexpr std::uint32_t range = 4 * cap;
  Rng rng{65535};
  FifoIdSet set{cap};
  Model model{cap};
  std::size_t inserted = 0;
  for (int op = 0; op < 400'000; ++op) {
    const auto id = static_cast<FifoIdSet::Id>(rng.NextBounded(range));
    if (rng.NextBounded(4) == 0) {
      ASSERT_EQ(set.Contains(id), model.Contains(id)) << "op " << op;
    } else {
      const bool added = model.Insert(id);
      ASSERT_EQ(set.Insert(id), added) << "op " << op;
      inserted += added;
    }
  }
  ASSERT_GT(inserted, 2 * cap);
  EXPECT_EQ(set.size(), cap);
  EXPECT_EQ(set.allocated_bytes(), cap * 4 + (std::size_t{1} << 17) * 2);
  for (std::uint32_t v = 0; v < range; ++v)
    ASSERT_EQ(set.Contains(v), model.Contains(v)) << "id " << v;
}

}  // namespace
}  // namespace ethsim
