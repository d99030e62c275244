#include "src/cache/write_buffer.hpp"

#include "src/common/nc_assert.hpp"

namespace netcache::cache {

bool WriteBuffer::add(Addr addr, int bytes, bool is_private) {
  NC_ASSERT(bytes > 0 && bytes <= block_bytes_, "bad write size");
  Addr base = block_base(addr, block_bytes_);
  int first_word = word_in_block(addr, block_bytes_);
  int words = static_cast<int>(ceil_div(bytes, kWordBytes));
  std::uint32_t mask = 0;
  for (int w = 0; w < words; ++w) {
    mask |= 1u << (first_word + w);
  }
  for (int i = 0; i < size_; ++i) {
    WriteEntry& e = ring_[slot(i)];
    if (e.block_base == base) {
      e.word_mask |= mask;
      return true;
    }
  }
  if (full()) return false;
  ring_[slot(size_)] = WriteEntry{base, mask, is_private};
  ++size_;
  return true;
}

bool WriteBuffer::coalesces(Addr addr) const {
  Addr base = block_base(addr, block_bytes_);
  for (int i = 0; i < size_; ++i) {
    if (ring_[slot(i)].block_base == base) return true;
  }
  return false;
}

WriteEntry WriteBuffer::pop() {
  NC_ASSERT(size_ > 0, "pop from empty write buffer");
  WriteEntry e = ring_[static_cast<std::size_t>(head_)];
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  --size_;
  return e;
}

bool WriteBuffer::holds_block(Addr addr) const { return coalesces(addr); }

}  // namespace netcache::cache
