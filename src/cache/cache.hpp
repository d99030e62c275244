// Tag-only set-associative cache model (the simulator splits functional data
// from timing state; caches track presence and coherence state, not bytes).
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
  bool probe(Addr addr, Cycles now);

  /// Presence check without touching replacement state.
  bool contains(Addr addr) const;

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
  struct Line {
    Addr tag = 0;  // block base address
    LineState state = LineState::kInvalid;
    Cycles last_use = 0;
  };

  std::size_t set_index(Addr addr) const;
  Line* find(Addr addr);
  const Line* find(Addr addr) const;

  void notify_residency(Addr base, bool resident) {
    if (residency_hook_ != nullptr) {
      residency_hook_(residency_ctx_, base, resident);
    }
  }

  CacheConfig config_;
  int sets_;
  int block_shift_;  // log2(block_bytes): set_index shifts, never divides
  std::vector<Line> lines_;  // sets_ x associativity, row-major
  std::uint64_t evictions_ = 0;
  ResidencyHook residency_hook_ = nullptr;
  void* residency_ctx_ = nullptr;
};

}  // namespace netcache::cache
