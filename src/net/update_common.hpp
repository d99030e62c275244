// The two halves of an update-broadcast commit shared by the three
// write-update stacks (NetCache, LambdaNet, DMON-U): snoop delivery to every
// other node and the home-memory absorb. Both carry the coherence-oracle
// hooks and the drop-update / corrupt-update fault-injection sites, so the
// protocols stay free of triplicated robustness plumbing. The snoop walk
// itself is shared with DMON-I's invalidation broadcast.
#pragma once

#include "src/common/types.hpp"
#include "src/sim/task.hpp"

namespace netcache::core {
class Machine;
class Node;
}  // namespace netcache::core

namespace netcache::faults {
enum class FaultKind;
}

namespace netcache::net {

/// Snoop delivery of a broadcast from `src`, at the current virtual instant:
/// calls `apply` (Node::apply_remote_update or Node::apply_invalidate) on
/// every other node that may hold `block_base` and keeps SnoopStats. When a
/// `drop` fault is armed, the first other node caching the block misses the
/// snoop; that victim is returned (kNoNode if none) for the caller's
/// recovery.
NodeId deliver_snoop(core::Machine& machine, NodeId src, Addr block_base,
                     faults::FaultKind drop, void (core::Node::*apply)(Addr));

/// Commit + snoop delivery, all at the current virtual instant: records the
/// store commit with the oracle, applies the update snoop to every node but
/// `src`, and runs the drop-update injection site (with recovery, the
/// victim's NI detects the sequence gap, invalidates the stale line, and a
/// retransmission is spawned one backoff out).
void deliver_update_broadcast(core::Machine& machine, NodeId src,
                              Addr block_base);

/// Home-memory absorb: bumps the oracle's memory version and enqueues the
/// update into the home's memory module. Corrupt-update injection site: the
/// home's ECC rejects the payload; with recovery the writer retransmits
/// after a backoff, without it the memory is silently left stale (for the
/// oracle or the end-of-run audit to catch).
sim::Task<void> home_memory_update(core::Machine& machine, NodeId src,
                                   NodeId home, Addr block_base, int words);

}  // namespace netcache::net
