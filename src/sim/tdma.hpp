// TDMA medium-access models for the optical broadcast channels.
#pragma once

#include <coroutine>
#include <vector>

#include "src/common/types.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/resource.hpp"
#include "src/sim/task.hpp"

namespace netcache::sim {

/// Fixed-slot TDMA: the frame has one `slot_cycles`-long slot per station,
/// assigned statically. Station i may transmit only during its own slot, so
/// different stations never collide; a station's own back-to-back messages
/// serialize one per frame. Models the DMON control channel and the NetCache
/// request channel (slot length 1 pcycle).
class TdmaChannel {
 public:
  TdmaChannel(Engine& engine, int stations, Cycles slot_cycles = 1);

  /// Completes when station `who`'s single-slot message has been transmitted
  /// (slot wait + slot time). Average wait is frame/2 for random arrivals.
  /// The slot is booked when the transmission is awaited; the one event at
  /// the slot's end resumes the caller directly (no frame).
  auto transmit(NodeId who) {
    struct Awaiter {
      TdmaChannel* ch;
      NodeId who;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> caller) {
        ch->engine_->schedule_resume(ch->book_slot(who), caller);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, who};
  }

  Cycles frame_cycles() const { return frame_; }
  Cycles wait_cycles() const { return wait_cycles_; }

 private:
  /// Books station `who`'s next free slot; returns the cycles from now until
  /// that slot ends.
  Cycles book_slot(NodeId who);

  Engine* engine_;
  int stations_;
  Cycles slot_;
  Cycles frame_;
  std::vector<Cycles> station_free_at_;
  Cycles wait_cycles_ = 0;
};

/// Variable-slot TDMA: stations take turns in a fixed rotation, but a turn
/// stretches to the length of the message being sent. Models the NetCache
/// coherence channels ("TDMA with variable time slots") and the DMON
/// broadcast channels. Approximated as: wait for the station's position in
/// the nominal rotation (mean = members*base_slot/2), then FIFO access to the
/// shared medium for the message duration.
class VarSlotTdma {
 public:
  VarSlotTdma(Engine& engine, int members, Cycles base_slot_cycles = 2);

  /// Completes when member `member_index` (0-based position within this
  /// channel's station set) has finished transmitting `message_cycles`.
  Task<void> transmit(int member_index, Cycles message_cycles);

  Cycles wait_cycles() const { return medium_.wait_cycles() + turn_wait_; }

 private:
  Engine* engine_;
  int members_;
  Cycles base_slot_;
  Resource medium_;
  Cycles turn_wait_ = 0;
};

}  // namespace netcache::sim
