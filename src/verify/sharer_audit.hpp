// Exactness audit for the sharer-tracking directory (DESIGN.md section 16),
// run on verified runs at every snoop-delivery commit point: the exact
// instants where the O(sharers) fast path consults the map to skip nodes.
// Verified runs take that fast path like every other run, so each skip a
// verified run takes is proven at the delivery that takes it.
#pragma once

#include "src/common/types.hpp"

namespace netcache::core {
class Machine;
class SharerMap;
}  // namespace netcache::core

namespace netcache::verify {

/// Asserts the sharer map is an exact mirror of L2 residency for
/// `block_base`: every node whose L2 holds the block is recorded, and no
/// node outside the recorded set has it cached. With this invariant a
/// skipped non-sharer is provably a no-op snoop (its apply_remote_update /
/// apply_invalidate would find nothing). With the machine's oracle on, it
/// also asserts the oracle's presence bits agree with the caches, so a
/// skipped node's oracle hook would only have counted — which is what
/// CoherenceOracle::on_non_sharers_skipped credits. Aborts with a failure
/// report on the first mismatch.
void audit_sharer_map(core::Machine& machine, const core::SharerMap& map,
                      Addr block_base);

}  // namespace netcache::verify
