#include "src/cache/write_buffer.hpp"

#include <gtest/gtest.h>

namespace netcache::cache {
namespace {

TEST(WriteBuffer, CoalescesSameBlock) {
  WriteBuffer wb(4, 64);
  EXPECT_TRUE(wb.add(0x100, 4, false));
  EXPECT_TRUE(wb.add(0x104, 4, false));
  EXPECT_TRUE(wb.add(0x13C, 4, false));
  EXPECT_EQ(wb.size(), 1u);
  WriteEntry e = wb.pop();
  EXPECT_EQ(e.block_base, 0x100u);
  EXPECT_EQ(e.dirty_words(), 3);
  EXPECT_EQ(e.word_mask, (1u << 0) | (1u << 1) | (1u << 15));
}

TEST(WriteBuffer, MultiWordWriteSetsMultipleBits) {
  WriteBuffer wb(4, 64);
  wb.add(0x208, 8, false);  // an 8-byte store = words 2 and 3
  WriteEntry e = wb.pop();
  EXPECT_EQ(e.word_mask, (1u << 2) | (1u << 3));
}

TEST(WriteBuffer, TopWordOfWidestBlockSetsBit31) {
  WriteBuffer wb(4, 128);  // 32 words: the widest block the mask holds
  wb.add(0x100 + 124, 4, false);
  WriteEntry e = wb.pop();
  EXPECT_EQ(e.block_base, 0x100u);
  EXPECT_EQ(e.word_mask, 1u << 31);
}

TEST(WriteBuffer, RejectsNewEntryWhenFull) {
  WriteBuffer wb(2, 64);
  EXPECT_TRUE(wb.add(0, 4, false));
  EXPECT_TRUE(wb.add(64, 4, false));
  EXPECT_TRUE(wb.full());
  EXPECT_FALSE(wb.add(128, 4, false));      // new block: rejected
  EXPECT_TRUE(wb.add(4, 4, false));         // coalesces into block 0: fine
  EXPECT_EQ(wb.size(), 2u);
}

TEST(WriteBuffer, PopsFifo) {
  WriteBuffer wb(4, 64);
  wb.add(0, 4, false);
  wb.add(64, 4, true);
  wb.add(128, 4, false);
  EXPECT_EQ(wb.pop().block_base, 0u);
  WriteEntry second = wb.pop();
  EXPECT_EQ(second.block_base, 64u);
  EXPECT_TRUE(second.is_private);
  EXPECT_EQ(wb.pop().block_base, 128u);
  EXPECT_TRUE(wb.empty());
}

TEST(WriteBuffer, HoldsBlockQueries) {
  WriteBuffer wb(4, 64);
  wb.add(0x100, 4, false);
  EXPECT_TRUE(wb.holds_block(0x120));  // same block
  EXPECT_FALSE(wb.holds_block(0x140));
  wb.pop();
  EXPECT_FALSE(wb.holds_block(0x100));
}

TEST(WriteBuffer, PaperCapacitySixteenEntries) {
  WriteBuffer wb(16, 64);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(wb.add(static_cast<Addr>(i) * 64, 4, false));
  }
  EXPECT_TRUE(wb.full());
  EXPECT_FALSE(wb.add(16 * 64, 4, false));
}

TEST(WriteBuffer, RingWrapsAndCoalescesIntoWrappedEntry) {
  // Three slots. After two pops the oldest live entry sits in the last slot
  // and the next add wraps to the first. Coalescing must search exactly the
  // live slots from the head, across the wrap, and never a popped slot.
  WriteBuffer wb(3, 64);
  EXPECT_TRUE(wb.add(0, 4, false));
  EXPECT_TRUE(wb.add(64, 4, false));
  EXPECT_TRUE(wb.add(128, 4, true));
  EXPECT_TRUE(wb.full());
  EXPECT_EQ(wb.pop().block_base, 0u);
  EXPECT_EQ(wb.pop().block_base, 64u);
  EXPECT_TRUE(wb.add(192 + 8, 4, false));  // wraps into the first slot
  EXPECT_TRUE(wb.add(128 + 4, 4, false));  // coalesces into the oldest
  EXPECT_EQ(wb.size(), 2u);
  EXPECT_FALSE(wb.holds_block(64));       // popped: its slot is stale
  EXPECT_TRUE(wb.add(64 + 4, 4, false));  // a new entry, not the stale one
  EXPECT_EQ(wb.size(), 3u);
  EXPECT_TRUE(wb.full());
  EXPECT_FALSE(wb.add(256, 4, false));
  EXPECT_TRUE(wb.add(192 + 60, 4, false));  // into the wrapped entry
  EXPECT_EQ(wb.size(), 3u);

  WriteEntry e = wb.pop();
  EXPECT_EQ(e.block_base, 128u);
  EXPECT_EQ(e.word_mask, (1u << 0) | (1u << 1));
  EXPECT_TRUE(e.is_private);
  e = wb.pop();
  EXPECT_EQ(e.block_base, 192u);
  EXPECT_EQ(e.word_mask, (1u << 2) | (1u << 15));
  EXPECT_FALSE(e.is_private);
  e = wb.pop();
  EXPECT_EQ(e.block_base, 64u);
  EXPECT_EQ(e.word_mask, 1u << 1);
  EXPECT_TRUE(wb.empty());
}

}  // namespace
}  // namespace netcache::cache
