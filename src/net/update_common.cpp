#include "src/net/update_common.hpp"

#include "src/core/machine.hpp"
#include "src/faults/faults.hpp"
#include "src/verify/oracle.hpp"
#include "src/verify/sharer_audit.hpp"

namespace netcache::net {

NodeId deliver_snoop(core::Machine& machine, NodeId src, Addr block_base,
                     faults::FaultKind drop, void (core::Node::*apply)(Addr)) {
  verify::CoherenceOracle* oracle = machine.oracle();
  faults::FaultPlan* faults = machine.faults();
  SnoopStats& snoop = machine.snoop_stats();
  ++snoop.deliveries;

  // O(sharers) delivery (DESIGN.md section 16): the map is an exact mirror
  // of L2 residency, so a node it does not list holds no copy and its snoop
  // would be a no-op. The snapshot is in ascending node order, and it is a
  // copy: apply_invalidate drops L2 lines, mutating the map mid-walk. A
  // verified run proves every skip at the delivery that takes it.
  if (oracle != nullptr) verify::audit_sharer_map(machine, block_base);
  const std::vector<NodeId>& sharers =
      machine.sharer_map().snapshot(block_base);

  // The fault needs a victim actually caching the block; otherwise it stays
  // armed for the next broadcast.
  NodeId victim = kNoNode;
  if (faults != nullptr && faults->armed(drop, machine.engine().now())) {
    for (NodeId n : sharers) {
      if (n != src) {
        victim = n;
        break;
      }
    }
    if (victim != kNoNode) faults->consume(drop);
  }

  std::uint64_t probed = 0;
  for (NodeId n : sharers) {
    if (n == src) continue;
    ++probed;
    if (n == victim) continue;
    (machine.node(n).*apply)(block_base);
  }
  const std::uint64_t skipped =
      static_cast<std::uint64_t>(machine.nodes() - 1) - probed;
  snoop.probes += probed;
  snoop.probes_avoided += skipped;
  // A skipped node's delivery hook would only have counted.
  if (oracle != nullptr) oracle->on_non_sharers_skipped(skipped);
  return victim;
}

void deliver_update_broadcast(core::Machine& machine, NodeId src,
                              Addr block_base) {
  // Commit point: the update is on the broadcast medium; every snoop below
  // happens at this same virtual instant.
  if (machine.oracle() != nullptr) {
    machine.oracle()->on_store_commit(src, block_base);
  }
  const NodeId drop_victim =
      deliver_snoop(machine, src, block_base, faults::FaultKind::kDropUpdate,
                    &core::Node::apply_remote_update);
  if (drop_victim != kNoNode) {
    faults::FaultPlan* faults = machine.faults();
    if (faults->recovery()) {
      // The victim's NI sees the sequence gap: invalidate the now-stale line
      // immediately (a read refetches from the current home memory) and take
      // the retransmission one backoff later.
      machine.node(drop_victim).apply_invalidate(block_base);
      machine.engine().spawn(
          faults->redeliver_update(machine.node(drop_victim), block_base));
    } else {
      faults->note_unrecovered();
    }
  }
}

sim::Task<void> home_memory_update(core::Machine& machine, NodeId src,
                                   NodeId home, Addr block_base, int words) {
  sim::Engine& eng = machine.engine();
  verify::CoherenceOracle* oracle = machine.oracle();
  faults::FaultPlan* faults = machine.faults();

  if (faults != nullptr &&
      faults->armed(faults::FaultKind::kCorruptUpdate, eng.now())) {
    faults->consume(faults::FaultKind::kCorruptUpdate);
    if (faults->recovery()) {
      // Home ECC rejects the corrupted payload; the writer retransmits
      // after a backoff and only then does memory absorb the update.
      faults->note_retry();
      co_await eng.delay(faults->retry_backoff(),
                         sim::make_trace_tag(src, sim::TraceTagKind::kFault));
      co_await machine.node(home).mem().enqueue_update(words);
      if (oracle != nullptr) oracle->on_mem_update(block_base);
      faults->note_recovered();
    } else {
      faults->note_unrecovered();
    }
    co_return;
  }
  if (oracle != nullptr) oracle->on_mem_update(block_base);
  co_await machine.node(home).mem().enqueue_update(words);
}

}  // namespace netcache::net
