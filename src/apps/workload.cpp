#include "src/apps/workload.hpp"

#include <cstdio>

#include "src/common/sim_error.hpp"

namespace netcache::apps {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "cg",    "em3d",  "fft",      "gauss", "lu",    "mg",
      "ocean", "radix", "raytrace", "sor",   "water", "wf"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadParams& params) {
  // Written so that nan fails it too.
  if (!(params.scale > 0 && params.scale <= kMaxScale)) {
    char value[32];
    char why[64];
    std::snprintf(value, sizeof(value), "%g", params.scale);
    std::snprintf(why, sizeof(why), "expected a finite value in (0, %g]",
                  kMaxScale);
    throw ConfigError("scale", value, why);
  }
  if (name == "cg") return make_cg(params);
  if (name == "em3d") return make_em3d(params);
  if (name == "fft") return make_fft(params);
  if (name == "gauss") return make_gauss(params);
  if (name == "lu") return make_lu(params);
  if (name == "mg") return make_mg(params);
  if (name == "ocean") return make_ocean(params);
  if (name == "radix") return make_radix(params);
  if (name == "raytrace") return make_raytrace(params);
  if (name == "sor") return make_sor(params);
  if (name == "water") return make_water(params);
  if (name == "wf") return make_wf(params);
  throw ConfigError("app", name, "unknown application");
}

}  // namespace netcache::apps
