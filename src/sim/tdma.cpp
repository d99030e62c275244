#include "src/sim/tdma.hpp"

#include "src/common/nc_assert.hpp"

namespace netcache::sim {

TdmaChannel::TdmaChannel(Engine& engine, int stations, Cycles slot_cycles)
    : engine_(&engine),
      stations_(stations),
      slot_(slot_cycles),
      frame_(slot_cycles * stations),
      station_free_at_(static_cast<std::size_t>(stations), 0) {
  NC_ASSERT(stations > 0 && slot_cycles > 0, "bad TDMA geometry");
}

Cycles TdmaChannel::book_slot(NodeId who) {
  NC_ASSERT(who >= 0 && who < stations_, "TDMA station out of range");
  Cycles now = engine_->now();
  Cycles earliest = std::max(now, station_free_at_[who]);
  // First slot start >= earliest with (t mod frame) == who * slot.
  Cycles offset = static_cast<Cycles>(who) * slot_;
  Cycles in_frame = ((earliest - offset) % frame_ + frame_) % frame_;
  Cycles start = (in_frame == 0) ? earliest : earliest + (frame_ - in_frame);
  station_free_at_[who] = start + slot_;
  wait_cycles_ += start - now;
  return start + slot_ - now;
}

VarSlotTdma::VarSlotTdma(Engine& engine, int members, Cycles base_slot_cycles)
    : engine_(&engine),
      members_(members),
      base_slot_(base_slot_cycles),
      medium_(engine, "VarSlotTdma.medium") {
  NC_ASSERT(members > 0 && base_slot_cycles > 0, "bad TDMA geometry");
}

Task<void> VarSlotTdma::transmit(int member_index, Cycles message_cycles) {
  NC_ASSERT(member_index >= 0 && member_index < members_,
            "TDMA member out of range");
  NC_ASSERT(message_cycles > 0, "empty transmission");
  Cycles rotation = static_cast<Cycles>(members_) * base_slot_;
  Cycles now = engine_->now();
  Cycles offset = static_cast<Cycles>(member_index) * base_slot_;
  Cycles dist = ((offset - now) % rotation + rotation) % rotation;
  turn_wait_ += dist;
  if (dist > 0) co_await engine_->delay(dist);
  co_await medium_.use(message_cycles,
                       {static_cast<NodeId>(member_index), "tdma-member"});
}

}  // namespace netcache::sim
