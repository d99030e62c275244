// Functional correctness of all twelve application kernels: each workload
// verifies its own numerical output against a sequential reference, across
// every system kind and several machine widths.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "src/apps/workload.hpp"
#include "src/common/sim_error.hpp"
#include "src/core/machine.hpp"

namespace netcache {
namespace {

apps::WorkloadParams small_params() {
  apps::WorkloadParams p;
  p.scale = 0.2;  // reduced inputs keep the full matrix fast
  return p;
}

class AppsOnSystems
    : public ::testing::TestWithParam<std::tuple<std::string, SystemKind>> {};

TEST_P(AppsOnSystems, VerifiesOn16Nodes) {
  const auto& [app, kind] = GetParam();
  MachineConfig cfg;
  cfg.nodes = 16;
  cfg.system = kind;
  core::Machine m(cfg);
  auto w = apps::make_workload(app, small_params());
  auto summary = m.run(*w);
  EXPECT_TRUE(summary.verified) << app << " on " << to_string(kind);
  EXPECT_GT(summary.run_time, 0);
  EXPECT_GT(summary.totals.reads, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllAppsAllSystems, AppsOnSystems,
    ::testing::Combine(
        ::testing::ValuesIn(apps::workload_names()),
        ::testing::Values(SystemKind::kNetCache, SystemKind::kLambdaNet,
                          SystemKind::kDmonUpdate,
                          SystemKind::kDmonInvalidate)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, SystemKind>>&
           info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::string(to_string(std::get<1>(info.param)));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

class AppsOnWidths
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(AppsOnWidths, VerifiesOnOddMachineWidths) {
  const auto& [app, nodes] = GetParam();
  MachineConfig cfg;
  cfg.nodes = nodes;
  // LambdaNet has no channel-divisibility constraint, so it exercises
  // odd widths (partition edge cases, empty per-thread ranges).
  cfg.system = SystemKind::kLambdaNet;
  core::Machine m(cfg);
  auto w = apps::make_workload(app, small_params());
  auto summary = m.run(*w);
  EXPECT_TRUE(summary.verified) << app << " on " << nodes << " nodes";
}

INSTANTIATE_TEST_SUITE_P(
    AllAppsOddWidths, AppsOnWidths,
    ::testing::Combine(::testing::ValuesIn(apps::workload_names()),
                       ::testing::Values(1, 3, 7)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(AppsFactory, KnowsAllTwelve) {
  EXPECT_EQ(apps::workload_names().size(), 12u);
  for (const std::string& name : apps::workload_names()) {
    auto w = apps::make_workload(name, small_params());
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->name(), name);
  }
}

TEST(AppsFactory, UnknownNameIsAConfigError) {
  try {
    (void)apps::make_workload("nosuch", small_params());
    FAIL() << "make_workload accepted an unknown name";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.key(), "app");
    EXPECT_EQ(e.value(), "nosuch");
  }
}

TEST(AppsFactory, ScaleOutsideItsRangeIsAConfigError) {
  // Each app converts a scaled size to int: nan, a non-positive scale or one
  // past kMaxScale would be undefined behaviour there, so none gets built.
  for (double scale : {std::nan(""), -1.0, 0.0, 1e30}) {
    apps::WorkloadParams params;
    params.scale = scale;
    for (const std::string& name : apps::workload_names()) {
      try {
        (void)apps::make_workload(name, params);
        ADD_FAILURE() << name << " accepted scale " << scale;
      } catch (const ConfigError& e) {
        EXPECT_EQ(e.key(), "scale") << name;
      }
    }
  }
  apps::WorkloadParams largest;
  largest.scale = apps::kMaxScale;
  EXPECT_NE(apps::make_workload("radix", largest), nullptr);
}

TEST(AppsFactory, ScaleChangesProblemSize) {
  apps::WorkloadParams small;
  small.scale = 0.2;
  apps::WorkloadParams big;
  big.scale = 1.0;
  MachineConfig cfg;
  cfg.nodes = 4;
  cfg.system = SystemKind::kLambdaNet;
  core::Machine ms(cfg);
  auto ws = apps::make_workload("sor", small);
  auto sum_small = ms.run(*ws);
  core::Machine mb(cfg);
  auto wb = apps::make_workload("sor", big);
  auto sum_big = mb.run(*wb);
  EXPECT_GT(sum_big.totals.reads, 2 * sum_small.totals.reads);
}

}  // namespace
}  // namespace netcache
