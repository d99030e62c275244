// Tag-only set-associative cache model (the simulator splits functional data
// from timing state; caches track presence and coherence state, not bytes).
//
// Each line is one 64-bit word, (block_number << 3) | state, so a probe
// reads one word per way. Block numbers are shifted, not masked, so blocks
// of any power-of-two size (1 byte up) keep distinct tags. LRU stamps live
// in a separate vector that exists only when associativity > 1: the
// paper's direct-mapped L1 and L2 never read or write one.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/types.hpp"

namespace netcache::cache {

/// Coherence state stored per line. Update-based protocols only use kValid;
/// I-SPEED uses the full set (paper Section 2.2).
enum class LineState : std::uint8_t {
  kInvalid,
  kValid,      // update protocols: present and always up-to-date
  kClean,     // I-SPEED: non-owner copy
  kShared,    // I-SPEED: owner, memory up-to-date
  kExclusive,  // I-SPEED: owner, dirty
};

/// What insert() displaced, so the protocol can issue writebacks.
struct Eviction {
  Addr block_base;
  LineState state;
};

/// A set-associative tag store with LRU replacement within each set.
class Cache {
 public:
  /// Observer for residency changes (sharer tracking, DESIGN.md section 16):
  /// fired with resident=true when a new line is installed, and with
  /// resident=false when a line leaves the cache (eviction inside insert(),
  /// invalidate() of a present line, clear()). A refresh-in-place insert
  /// does not change residency and fires nothing.
  using ResidencyHook = void (*)(void* ctx, Addr block_base, bool resident);

  explicit Cache(const CacheConfig& config);

  int block_bytes() const { return config_.block_bytes; }

  /// Installs the residency observer (null disables). Register before the
  /// first insert: the hook only sees changes, not pre-existing contents.
  void set_residency_hook(ResidencyHook hook, void* ctx) {
    residency_hook_ = hook;
    residency_ctx_ = ctx;
  }

  /// True (and LRU-touched) if the block containing `addr` is present.
  bool probe(Addr addr, Cycles now) {
    std::uint64_t* line = find(addr);
    if (line == nullptr) return false;
    if (!stamps_.empty()) stamps_[slot(line)] = now;
    return true;
  }

  /// Presence check without touching replacement state.
  bool contains(Addr addr) const {
    return const_cast<Cache*>(this)->find(addr) != nullptr;
  }

  /// Current state of the line holding `addr` (kInvalid if absent).
  LineState state(Addr addr) const;

  /// Sets the state of a present line; no-op if absent.
  void set_state(Addr addr, LineState s);

  /// Inserts the block containing `addr` with `state`, evicting the set's
  /// LRU line if needed. Returns the eviction, if any.
  std::optional<Eviction> insert(Addr addr, LineState state, Cycles now);

  /// Invalidates the line holding `addr` (if present). Returns its previous
  /// state (kInvalid if it was absent).
  LineState invalidate(Addr addr);

  /// Invalidates every line. Used between phases in tests.
  void clear();

  std::uint64_t evictions() const { return evictions_; }

 private:
  /// Low bits of a line word: the LineState (kInvalid is 0).
  static constexpr int kStateBits = 3;
  static constexpr std::uint64_t kStateMask = (1u << kStateBits) - 1;
  static_assert(static_cast<std::uint64_t>(LineState::kExclusive) <=
                kStateMask);

  static LineState state_of(std::uint64_t line) {
    return static_cast<LineState>(line & kStateMask);
  }
  Addr base_of(std::uint64_t line) const {
    return (line >> kStateBits) << block_shift_;
  }

  std::size_t slot(const std::uint64_t* line) const {
    return static_cast<std::size_t>(line - lines_.data());
  }

  /// First line word of the set that holds block number `block`.
  std::uint64_t* set_of(Addr block) {
    return &lines_[static_cast<std::size_t>(block & set_mask_) * ways_];
  }

  /// The line word holding `addr`'s block, or null if absent.
  std::uint64_t* find(Addr addr) {
    const Addr block = addr >> block_shift_;
    const std::uint64_t key = block << kStateBits;
    std::uint64_t* set = set_of(block);
    for (std::size_t w = 0; w < ways_; ++w) {
      const std::uint64_t line = set[w];
      if ((line & ~kStateMask) == key && (line & kStateMask) != 0) {
        return &set[w];
      }
    }
    return nullptr;
  }

  void notify_residency(Addr base, bool resident) {
    if (residency_hook_ != nullptr) {
      residency_hook_(residency_ctx_, base, resident);
    }
  }

  CacheConfig config_;
  int block_shift_;  // log2(block_bytes): tags and sets shift, never divide
  Addr set_mask_;    // sets - 1
  std::size_t ways_;
  std::vector<std::uint64_t> lines_;  // sets x ways line words, row-major
  /// Last-use stamp per line, parallel to lines_; empty when ways_ == 1.
  std::vector<Cycles> stamps_;
  std::uint64_t evictions_ = 0;
  ResidencyHook residency_hook_ = nullptr;
  void* residency_ctx_ = nullptr;
};

}  // namespace netcache::cache
