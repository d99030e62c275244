// Size-bucketed free-list arena for coroutine frames.
//
// Leaf accesses (L1-hit reads, unstalled writes, compute, resource holds,
// TDMA slots) run without a frame, but every read miss, buffer stall,
// protocol transaction and memory access still spins up a chain of
// short-lived Task frames; with plain malloc those millions of frames would
// dominate the engine's time. The arena recycles freed frames by size class,
// so after warm-up the hot path never touches the global allocator.
//
// The arena is thread_local: each engine thread (sweep workers, tests,
// benches) gets its own, with zero synchronisation. A cell's engine runs on
// one thread start to finish, so its frames are allocated and freed there.
// Blocks are individually ::operator new'd with a self-describing header,
// so a frame freed on another thread would still just join that thread's
// free list; only the per-thread counters and lists are unsynchronised.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

namespace netcache::sim {

class FrameArena {
 public:
  static FrameArena& local() {
    thread_local FrameArena arena;
    return arena;
  }

  void* allocate(std::size_t n) {
    std::size_t b = bucket_for(n + kHeaderBytes);
    void* raw;
    if (b < kBuckets && free_[b] != nullptr) {
      raw = free_[b];
      free_[b] = free_[b]->next;
      ++reused_;
    } else {
      raw = ::operator new(b < kBuckets ? bytes_for(b) : n + kHeaderBytes);
      ++fresh_;
    }
    static_cast<Header*>(raw)->bucket =
        b < kBuckets ? static_cast<std::uint32_t>(b) : kRawBucket;
    ++live_;
    return static_cast<unsigned char*>(raw) + kHeaderBytes;
  }

  void deallocate(void* p) noexcept {
    void* raw = static_cast<unsigned char*>(p) - kHeaderBytes;
    std::uint32_t b = static_cast<Header*>(raw)->bucket;
    --live_;
    if (b == kRawBucket) {
      ::operator delete(raw);
      return;
    }
    auto* node = static_cast<FreeNode*>(raw);  // reuses the freed block
    node->next = free_[b];
    free_[b] = node;
  }

  /// Frames served by hitting the global allocator (cold path).
  std::uint64_t fresh_allocations() const { return fresh_; }
  /// Frames served from a free list (warm path).
  std::uint64_t reuses() const { return reused_; }
  /// Frames currently alive.
  std::uint64_t live() const { return live_; }

  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;

 private:
  FrameArena() = default;
  ~FrameArena() {
    for (FreeNode*& head : free_) {
      while (head != nullptr) {
        FreeNode* next = head->next;
        ::operator delete(head);
        head = next;
      }
    }
  }

  struct FreeNode {
    FreeNode* next;
  };
  struct Header {
    std::uint32_t bucket;
  };

  // Header keeps the payload at max_align_t alignment, matching what
  // ::operator new guarantees for coroutine frames.
  static constexpr std::size_t kHeaderBytes = alignof(std::max_align_t);
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kBuckets = 64;  // classes up to 4 KiB
  static constexpr std::uint32_t kRawBucket = 0xffffffffu;

  static std::size_t bucket_for(std::size_t total) {
    return (total + kGranule - 1) / kGranule - 1;
  }
  static std::size_t bytes_for(std::size_t b) { return (b + 1) * kGranule; }

  FreeNode* free_[kBuckets] = {};
  std::uint64_t fresh_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t live_ = 0;
};

}  // namespace netcache::sim
