#include "src/cache/replacement.hpp"

#include <gtest/gtest.h>

#include <array>

namespace netcache::cache {
namespace {

std::array<LineUsage, 4> usage4() {
  // last_use: 5, 2, 9, 4   uses: 3, 7, 1, 2   inserted: 8, 1, 6, 3
  return {LineUsage{5, 3, 8}, LineUsage{2, 7, 1}, LineUsage{9, 1, 6},
          LineUsage{4, 2, 3}};
}

TEST(Replacement, LruPicksOldestUse) {
  Rng rng(1);
  auto u = usage4();
  EXPECT_EQ(pick_victim(RingReplacement::kLru, u, rng), 1);
}

TEST(Replacement, LfuPicksLeastUsed) {
  Rng rng(1);
  auto u = usage4();
  EXPECT_EQ(pick_victim(RingReplacement::kLfu, u, rng), 2);
}

TEST(Replacement, FifoPicksOldestInsert) {
  Rng rng(1);
  auto u = usage4();
  EXPECT_EQ(pick_victim(RingReplacement::kFifo, u, rng), 1);
}

TEST(Replacement, RandomStaysInRange) {
  Rng rng(42);
  auto u = usage4();
  for (int i = 0; i < 1000; ++i) {
    int v = pick_victim(RingReplacement::kRandom, u, rng);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 4);
  }
}

TEST(Replacement, RandomCoversAllSlots) {
  Rng rng(7);
  auto u = usage4();
  bool seen[4] = {false, false, false, false};
  for (int i = 0; i < 200; ++i) {
    seen[pick_victim(RingReplacement::kRandom, u, rng)] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
}

TEST(Replacement, SingleCandidate) {
  Rng rng(1);
  const LineUsage u[] = {LineUsage{1, 1, 1}};
  for (auto p : {RingReplacement::kRandom, RingReplacement::kLru,
                 RingReplacement::kLfu, RingReplacement::kFifo}) {
    EXPECT_EQ(pick_victim(p, u, rng), 0);
  }
}

TEST(Replacement, TiesBreakTowardLowerIndex) {
  Rng rng(1);
  const LineUsage u[] = {LineUsage{3, 3, 3}, LineUsage{3, 3, 3}};
  EXPECT_EQ(pick_victim(RingReplacement::kLru, u, rng), 0);
  EXPECT_EQ(pick_victim(RingReplacement::kLfu, u, rng), 0);
  EXPECT_EQ(pick_victim(RingReplacement::kFifo, u, rng), 0);
}

// The ring cache passes one channel's slice of a longer usage array: the
// victim index is relative to the slice.
TEST(Replacement, PicksWithinASubspan) {
  Rng rng(1);
  const auto u = usage4();
  const std::span<const LineUsage> last_two(u.data() + 2, 2);
  EXPECT_EQ(pick_victim(RingReplacement::kLru, last_two, rng), 1);
  EXPECT_EQ(pick_victim(RingReplacement::kLfu, last_two, rng), 0);
  EXPECT_EQ(pick_victim(RingReplacement::kFifo, last_two, rng), 1);
}

}  // namespace
}  // namespace netcache::cache
