#include "bench/bench_common.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/apps/synthetic.hpp"
#include "src/core/run_summary.hpp"

namespace netcache::bench {
namespace {

TEST(BenchTable, PreservesRowInsertionOrder) {
  Table t("demo", {"a", "b"});
  t.set("second", "a", 2.0);
  t.set("first", "a", 1.0);
  t.set("second", "b", 3.0);
  std::string csv = t.to_csv();
  auto second_pos = csv.find("second");
  auto first_pos = csv.find("first");
  ASSERT_NE(second_pos, std::string::npos);
  ASSERT_NE(first_pos, std::string::npos);
  EXPECT_LT(second_pos, first_pos);  // insertion order, not alphabetical
}

TEST(BenchTable, CsvHasHeaderAndValues) {
  Table t("demo", {"x", "y"});
  t.set("r1", "x", 1.5);
  t.set("r1", "y", 2.25);
  EXPECT_EQ(t.to_csv(), "row,x,y\nr1,1.5,2.25\n");
}

TEST(BenchTable, MissingCellsAreEmptyInCsv) {
  Table t("demo", {"x", "y"});
  t.set("r1", "y", 7.0);
  EXPECT_EQ(t.to_csv(), "row,x,y\nr1,,7\n");
}

TEST(BenchTable, WritesCsvFile) {
  Table t("Figure 99: demo table", {"v"});
  t.set("r", "v", 42.0);
  t.write_csv_to("/tmp");
  std::FILE* f = std::fopen("/tmp/figure_99_demo_table.csv", "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  (void)std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  EXPECT_STREQ(buf, "row,v\nr,42\n");
}

TEST(BenchSimulate, RunsAndVerifies) {
  sweep::Cell cell;
  cell.app = "sor";
  cell.system = SystemKind::kLambdaNet;
  cell.nodes = 4;
  cell.scale = 0.2;
  auto s = simulate(cell);
  EXPECT_TRUE(s.verified);
  EXPECT_GT(s.run_time, 0);
}

sweep::Cell tiny_sor() {
  sweep::Cell cell;
  cell.app = "sor";
  cell.nodes = 4;
  cell.scale = 0.1;
  return cell;
}

std::string summary_sans_wall(core::RunSummary s) {
  s.wall_seconds = 0.0;
  return core::serialize_summary(s);
}

// reproduce plans every artifact through submit_distinct: cells that
// resolve to one machine run once, anything else runs on its own.
TEST(BenchPlan, SubmitsEachDistinctCellOnce) {
  const sweep::Cell by_default = tiny_sor();
  sweep::Cell explicit_ring = tiny_sor();  // the default ring, spelled out
  explicit_ring.tweak = [](MachineConfig& cfg) { cfg.ring.channels = 128; };
  sweep::Cell slower_memory = tiny_sor();
  slower_memory.tweak = [](MachineConfig& cfg) {
    cfg.mem_block_read_cycles = 108;
  };
  sweep::Cell synthetic = tiny_sor();
  synthetic.make_workload = [] {
    apps::SyntheticSpec spec;
    spec.accesses_per_node = 500;
    spec.array_bytes = 64 * 1024;
    return apps::make_synthetic(spec);
  };

  sweep::SweepDriver driver(2);
  driver.set_result_cache(nullptr);
  const std::vector<std::size_t> index = submit_distinct(
      {by_default, explicit_ring, slower_memory, synthetic, synthetic},
      driver);
  ASSERT_EQ(index.size(), 5u);
  EXPECT_EQ(driver.size(), 4u);
  EXPECT_EQ(index[0], index[1]);
  EXPECT_NE(index[0], index[2]);
  EXPECT_NE(index[3], index[4]);  // make_workload cells are never merged

  const auto& results = driver.run();
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.error;
  // The merged cell's summary is what the explicit tweak alone produces.
  EXPECT_EQ(summary_sans_wall(results[index[1]].summary),
            summary_sans_wall(simulate(explicit_ring)));
  EXPECT_NE(results[index[0]].summary.run_time,
            results[index[2]].summary.run_time);
}

TEST(BenchProbes, LatencyTablesStillCalibrated) {
  EXPECT_NEAR(mean_cold_read_latency(SystemKind::kLambdaNet), 111.0, 0.5);
  EXPECT_NEAR(mean_ring_hit_latency(), 46.0, 3.0);
}

}  // namespace
}  // namespace netcache::bench
