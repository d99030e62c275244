#include "src/cache/cache.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace netcache::cache {
namespace {

CacheConfig small_dm() { return CacheConfig{1024, 64, 1}; }  // 16 sets

TEST(Cache, MissThenHit) {
  Cache c(small_dm());
  EXPECT_FALSE(c.probe(0x100, 0));
  c.insert(0x100, LineState::kValid, 0);
  EXPECT_TRUE(c.probe(0x100, 1));
}

TEST(Cache, SameBlockDifferentOffsetsHit) {
  Cache c(small_dm());
  c.insert(0x100, LineState::kValid, 0);
  EXPECT_TRUE(c.probe(0x13F, 1));  // last byte of the 64-byte block
  EXPECT_FALSE(c.probe(0x140, 2));  // next block
}

TEST(Cache, DirectMappedConflictEvicts) {
  Cache c(small_dm());
  // Blocks 0 and 16 map to set 0 in a 16-set direct-mapped cache.
  c.insert(0, LineState::kValid, 0);
  auto ev = c.insert(16 * 64, LineState::kExclusive, 1);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->block_base, 0u);
  EXPECT_EQ(ev->state, LineState::kValid);
  EXPECT_FALSE(c.contains(0));
  EXPECT_TRUE(c.contains(16 * 64));
}

TEST(Cache, AssociativityAvoidsConflict) {
  Cache c(CacheConfig{1024, 64, 2});  // 8 sets, 2-way
  c.insert(0, LineState::kValid, 0);
  auto ev = c.insert(8 * 64, LineState::kValid, 1);  // same set, other way
  EXPECT_FALSE(ev.has_value());
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(8 * 64));
}

TEST(Cache, LruVictimWithinSet) {
  Cache c(CacheConfig{1024, 64, 2});
  c.insert(0, LineState::kValid, 0);
  c.insert(8 * 64, LineState::kValid, 1);
  c.probe(0, 2);  // touch block 0 -> block 8*64 is LRU
  auto ev = c.insert(16 * 64, LineState::kValid, 3);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->block_base, static_cast<Addr>(8 * 64));
}

TEST(Cache, InsertRefreshesInPlace) {
  Cache c(small_dm());
  c.insert(0x200, LineState::kClean, 0);
  auto ev = c.insert(0x200, LineState::kExclusive, 5);
  EXPECT_FALSE(ev.has_value());
  EXPECT_EQ(c.state(0x200), LineState::kExclusive);
  EXPECT_EQ(c.evictions(), 0u);
}

TEST(Cache, InvalidateReportsPriorState) {
  Cache c(small_dm());
  c.insert(0x300, LineState::kShared, 0);
  EXPECT_EQ(c.invalidate(0x300), LineState::kShared);
  EXPECT_EQ(c.invalidate(0x300), LineState::kInvalid);
  EXPECT_FALSE(c.contains(0x300));
}

TEST(Cache, SetStateOnPresentLine) {
  Cache c(small_dm());
  c.insert(0x400, LineState::kValid, 0);
  c.set_state(0x400, LineState::kExclusive);
  EXPECT_EQ(c.state(0x400), LineState::kExclusive);
  c.set_state(0x999000, LineState::kExclusive);  // absent: no-op
  EXPECT_EQ(c.state(0x999000), LineState::kInvalid);
}

TEST(Cache, ClearEmptiesEverything) {
  Cache c(small_dm());
  for (Addr a = 0; a < 1024; a += 64) c.insert(a, LineState::kValid, 0);
  c.clear();
  for (Addr a = 0; a < 1024; a += 64) EXPECT_FALSE(c.contains(a));
}

TEST(Cache, PaperL1Geometry) {
  // 4-KB direct-mapped, 32-byte blocks: 128 sets; addresses 4 KB apart
  // collide.
  Cache l1(CacheConfig{4 * 1024, 32, 1});
  l1.insert(0, LineState::kValid, 0);
  EXPECT_TRUE(l1.contains(31));
  auto ev = l1.insert(4096, LineState::kValid, 1);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->block_base, 0u);
}

TEST(Cache, PaperL2Geometry) {
  // 16-KB direct-mapped, 64-byte blocks: 256 sets.
  Cache l2(CacheConfig{16 * 1024, 64, 1});
  EXPECT_EQ(CacheConfig({16 * 1024, 64, 1}).sets(), 256);
  l2.insert(100, LineState::kValid, 0);
  l2.insert(100 + 16 * 1024, LineState::kValid, 1);
  EXPECT_FALSE(l2.contains(100));
}

TEST(Cache, EveryLineStateRoundTrips) {
  // A line packs its state beside the tag: every state must survive insert,
  // set_state, invalidate and eviction unchanged, and never leak into the
  // tag (neighbouring blocks stay absent).
  const LineState states[] = {LineState::kValid, LineState::kClean,
                              LineState::kShared, LineState::kExclusive};
  Cache c(small_dm());
  EXPECT_EQ(c.state(0x80), LineState::kInvalid);
  for (LineState s : states) {
    c.insert(0x80, s, 0);
    EXPECT_EQ(c.state(0x80), s);
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_FALSE(c.contains(0xC0));
    for (LineState t : states) {
      c.set_state(0x80, t);
      EXPECT_EQ(c.state(0x80), t);
    }
    c.set_state(0x80, s);
    EXPECT_EQ(c.invalidate(0x80), s);
    EXPECT_EQ(c.state(0x80), LineState::kInvalid);
    EXPECT_FALSE(c.contains(0x80));
  }
  // Eviction reports the displaced line's state and block base.
  for (LineState s : states) {
    c.insert(0x80, s, 0);
    auto ev = c.insert(0x80 + 16 * 64, LineState::kValid, 1);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->block_base, 0x80u);
    EXPECT_EQ(ev->state, s);
    c.invalidate(0x80 + 16 * 64);
  }
  EXPECT_EQ(c.evictions(), 4u);
}

TEST(Cache, TinyBlocksHitMissAndEvict) {
  // Tags hold block numbers, not masked addresses, so 1- and 4-byte blocks
  // (which validate() accepts) keep neighbouring blocks apart.
  Cache one(CacheConfig{16, 1, 1});  // 16 sets of one byte
  one.insert(5, LineState::kValid, 0);
  EXPECT_TRUE(one.probe(5, 1));
  EXPECT_FALSE(one.probe(4, 1));
  EXPECT_FALSE(one.probe(6, 1));
  auto ev = one.insert(5 + 16, LineState::kShared, 2);  // same set
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->block_base, 5u);
  EXPECT_EQ(ev->state, LineState::kValid);
  EXPECT_TRUE(one.contains(21));
  EXPECT_FALSE(one.contains(5));

  Cache four(CacheConfig{64, 4, 1});  // 16 sets of four bytes
  four.insert(0x13, LineState::kExclusive, 0);  // block 0x10..0x13
  EXPECT_TRUE(four.probe(0x10, 1));
  EXPECT_TRUE(four.probe(0x13, 1));
  EXPECT_FALSE(four.probe(0x14, 1));
  EXPECT_FALSE(four.probe(0x0F, 1));
  ev = four.insert(0x10 + 64, LineState::kValid, 2);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->block_base, 0x10u);
  EXPECT_EQ(ev->state, LineState::kExclusive);
}

TEST(Cache, FourWayLruVictimOrder) {
  // One set of four ways: invalid ways fill first, then the least recently
  // used line goes, with probes and refreshes counting as uses.
  Cache c(CacheConfig{256, 64, 4});
  const Addr a = 0, b = 64, d = 128, e = 192;
  EXPECT_FALSE(c.insert(a, LineState::kValid, 1).has_value());
  EXPECT_FALSE(c.insert(b, LineState::kValid, 2).has_value());
  EXPECT_FALSE(c.insert(d, LineState::kValid, 3).has_value());
  EXPECT_FALSE(c.insert(e, LineState::kValid, 4).has_value());
  c.probe(a, 5);                           // LRU order now b, d, e, a
  c.insert(d, LineState::kExclusive, 6);   // refresh: b, e, a, d
  std::vector<Addr> victims;
  Cycles now = 7;
  for (Addr next = 256; next < 256 + 4 * 64; next += 64) {
    auto ev = c.insert(next, LineState::kValid, now++);
    ASSERT_TRUE(ev.has_value());
    victims.push_back(ev->block_base);
  }
  EXPECT_EQ(victims, (std::vector<Addr>{b, e, a, d}));
  // An invalidated way is refilled before any valid line is displaced.
  c.invalidate(256 + 2 * 64);
  EXPECT_FALSE(c.insert(a, LineState::kValid, now++).has_value());
  EXPECT_TRUE(c.contains(256));

  // Equal stamps: the lowest way goes first.
  Cache tie(CacheConfig{256, 64, 4});
  for (Addr x = 0; x < 256; x += 64) tie.insert(x, LineState::kValid, 1);
  auto ev = tie.insert(256, LineState::kValid, 1);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->block_base, 0u);
}

}  // namespace
}  // namespace netcache::cache
