#include "src/cache/replacement.hpp"

#include "src/common/nc_assert.hpp"

namespace netcache::cache {

int pick_victim(RingReplacement policy, std::span<const LineUsage> usage,
                Rng& rng) {
  NC_ASSERT(!usage.empty(), "no candidates for replacement");
  const int n = static_cast<int>(usage.size());
  switch (policy) {
    case RingReplacement::kRandom:
      return static_cast<int>(rng.next_below(static_cast<std::uint32_t>(n)));
    case RingReplacement::kLru: {
      int best = 0;
      for (int i = 1; i < n; ++i) {
        if (usage[i].last_use < usage[best].last_use) best = i;
      }
      return best;
    }
    case RingReplacement::kLfu: {
      int best = 0;
      for (int i = 1; i < n; ++i) {
        if (usage[i].uses < usage[best].uses) best = i;
      }
      return best;
    }
    case RingReplacement::kFifo: {
      int best = 0;
      for (int i = 1; i < n; ++i) {
        if (usage[i].inserted_at < usage[best].inserted_at) best = i;
      }
      return best;
    }
  }
  return 0;
}

}  // namespace netcache::cache
