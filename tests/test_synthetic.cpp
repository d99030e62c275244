#include "src/apps/synthetic.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/common/sim_error.hpp"
#include "src/core/machine.hpp"

namespace netcache {
namespace {

apps::SyntheticSpec small_spec(const std::string& pattern) {
  apps::SyntheticSpec spec;
  spec.pattern = pattern;
  spec.accesses_per_node = 2000;
  spec.array_bytes = 256 * 1024;
  return spec;
}

class SyntheticPatterns
    : public ::testing::TestWithParam<std::tuple<std::string, SystemKind>> {};

TEST_P(SyntheticPatterns, VerifiesOnAllSystems) {
  const auto& [pattern, kind] = GetParam();
  MachineConfig cfg;
  cfg.system = kind;
  core::Machine m(cfg);
  auto w = apps::make_synthetic(small_spec(pattern));
  auto s = m.run(*w);
  EXPECT_TRUE(s.verified) << pattern << " on " << to_string(kind);
  EXPECT_GT(s.totals.reads + s.totals.writes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPatternsAllSystems, SyntheticPatterns,
    ::testing::Combine(
        ::testing::Values("uniform", "hot", "prodcons", "stream"),
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

TEST(Synthetic, NameReflectsPattern) {
  auto w = apps::make_synthetic(small_spec("hot"));
  EXPECT_STREQ(w->name(), "synth-hot");
}

TEST(Synthetic, HotPatternHitsTheSharedCacheMoreThanUniform) {
  auto run = [](const std::string& pattern) {
    MachineConfig cfg;
    core::Machine m(cfg);
    apps::SyntheticSpec spec;
    spec.pattern = pattern;
    spec.accesses_per_node = 8000;
    auto w = apps::make_synthetic(spec);
    return m.run(*w).shared_cache_hit_rate;
  };
  EXPECT_GT(run("hot"), run("uniform") + 0.1);
}

TEST(Synthetic, StreamPatternHasNoReuseInTheRing) {
  MachineConfig cfg;
  core::Machine m(cfg);
  apps::SyntheticSpec spec;
  spec.pattern = "stream";
  spec.accesses_per_node = 8000;
  spec.write_fraction = 0.0;
  auto w = apps::make_synthetic(spec);
  auto s = m.run(*w);
  EXPECT_TRUE(s.verified);
  // Each node streams its own partition: a block is fetched by exactly one
  // node, so the only possible ring hits are its own L2-conflict refetches.
  EXPECT_LT(s.shared_cache_hit_rate, 0.3);
}

TEST(Synthetic, DeterministicAcrossRuns) {
  auto run = [] {
    MachineConfig cfg;
    core::Machine m(cfg);
    auto w = apps::make_synthetic(small_spec("uniform"));
    return m.run(*w).run_time;
  };
  EXPECT_EQ(run(), run());
}

TEST(Synthetic, RejectsUnknownPattern) {
  apps::SyntheticSpec spec;
  spec.pattern = "bogus";
  EXPECT_THROW((void)apps::make_synthetic(spec), ConfigError);
}

}  // namespace
}  // namespace netcache
