#include "src/verify/sharer_audit.hpp"

#include "src/common/nc_assert.hpp"
#include "src/core/machine.hpp"
#include "src/core/sharer_map.hpp"
#include "src/verify/oracle.hpp"

namespace netcache::verify {

void audit_sharer_map(core::Machine& machine, const core::SharerMap& map,
                      Addr block_base) {
  const CoherenceOracle* oracle = machine.oracle();
  const std::uint8_t* present =
      oracle != nullptr ? oracle->presence(block_base) : nullptr;
  for (NodeId n = 0; n < machine.nodes(); ++n) {
    const bool tracked = map.contains(block_base, n);
    const bool cached = machine.node(n).l2().contains(block_base);
    NC_ASSERT(tracked == cached,
              "sharer map out of sync with L2 residency: the map and the "
              "cache disagree about a node at a delivery commit point");
    NC_ASSERT(present == nullptr || (present[n] != 0) == cached,
              "oracle presence out of sync with L2 residency: an L2 change "
              "has no oracle hook");
  }
}

}  // namespace netcache::verify
