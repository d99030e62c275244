// Shared DMON channel fabric (paper Section 2.2): a TDMA control channel
// used to reserve everything else, broadcast channel(s) for coherence and
// synchronization, and one home channel per node for block requests/replies.
#pragma once

#include <memory>
#include <vector>

#include "src/common/config.hpp"
#include "src/core/machine.hpp"
#include "src/sim/resource.hpp"
#include "src/sim/task.hpp"
#include "src/sim/tdma.hpp"

namespace netcache::net {

class DmonFabric {
 public:
  /// `broadcast_channels` is 1 for base DMON (I-SPEED) and 2 for the
  /// update-extended DMON (Section 2.2, last paragraph).
  DmonFabric(core::Machine& machine, int broadcast_channels);

  /// Control-channel arbitration + reservation for a subsequent transfer:
  /// one TDMA slot (mean wait p/2) followed by the reservation mini-slot.
  /// Returns the TDMA awaiter itself, so a reservation costs no frame.
  auto reserve(NodeId who) { return control_.transmit(who); }

  /// Request leg: reserve, retune, send a memory request to `home`'s channel.
  /// Matches Table 2 rows 3-7 (ends with the request at the home node).
  sim::Task<void> send_request(NodeId requester, NodeId home);

  /// Reply leg: home reserves the requester's home channel and streams the
  /// block. Matches Table 2 rows 9-12 (ends with the block at the requester's
  /// NI; the caller still charges NI-to-L2).
  sim::Task<void> send_block_reply(NodeId home, NodeId requester);

  /// Broadcast `message_cycles` on broadcast channel `channel` from `src`.
  sim::Task<void> broadcast(NodeId src, int channel, Cycles message_cycles);

  int broadcast_channel_of(NodeId node) const {
    return node % static_cast<int>(broadcast_.size());
  }

 private:
  core::Machine* machine_;
  const LatencyParams* lat_;
  sim::TdmaChannel control_;
  std::vector<std::unique_ptr<sim::Resource>> broadcast_;
  std::vector<std::unique_ptr<sim::Resource>> home_channels_;
};

}  // namespace netcache::net
