#include "src/apps/trace.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/common/sim_error.hpp"
#include "src/core/machine.hpp"

namespace netcache::apps {
namespace {

TEST(Trace, ParsesAllRecordKinds) {
  auto w = TraceWorkload::from_string(
      "# a comment\n"
      "0 r 128\n"
      "0 w 256 8\n"
      "0 c 100\n"
      "0 b\n"
      "1 r 64\n"
      "1 b\n");
  EXPECT_EQ(w->thread_count(), 2);
  EXPECT_EQ(w->records(0), 4u);
  EXPECT_EQ(w->records(1), 2u);
}

TEST(Trace, RoundTripsThroughText) {
  std::vector<std::vector<TraceRecord>> streams(2);
  streams[0] = {{TraceRecord::Op::kRead, 128, 0},
                {TraceRecord::Op::kWrite, 256, 8},
                {TraceRecord::Op::kBarrier, 0, 0}};
  streams[1] = {{TraceRecord::Op::kCompute, 0, 55},
                {TraceRecord::Op::kBarrier, 0, 0}};
  std::string text = trace_to_string(streams);
  auto parsed = TraceWorkload::from_string(text);
  EXPECT_EQ(parsed->thread_count(), 2);
  EXPECT_EQ(parsed->records(0), 3u);
  EXPECT_EQ(parsed->records(1), 2u);
  EXPECT_EQ(trace_to_string(streams), text);
}

TEST(Trace, ReplaysOnTheMachine) {
  MachineConfig cfg;
  cfg.nodes = 4;
  core::Machine m(cfg);
  std::string text;
  for (int tid = 0; tid < 4; ++tid) {
    for (int i = 0; i < 50; ++i) {
      text += std::to_string(tid) + " r " +
              std::to_string((tid * 50 + i) * 64) + "\n";
      text += std::to_string(tid) + " w " +
              std::to_string((tid * 50 + i) * 64) + " 4\n";
    }
    text += std::to_string(tid) + " b\n";
  }
  auto w = TraceWorkload::from_string(text);
  auto s = m.run(*w);
  EXPECT_TRUE(s.verified);  // all records executed
  EXPECT_EQ(s.totals.reads, 200u);
  EXPECT_EQ(s.totals.writes, 200u);
  EXPECT_EQ(s.totals.barrier_waits, 4u);
}

TEST(Trace, WiderMachineAttendsBarriers) {
  // A 2-thread trace with barriers on an 8-node machine must not deadlock.
  MachineConfig cfg;
  cfg.nodes = 8;
  core::Machine m(cfg);
  auto w = TraceWorkload::from_string(
      "0 r 0\n0 b\n0 r 64\n0 b\n"
      "1 r 128\n1 b\n1 r 192\n1 b\n");
  auto s = m.run(*w);
  EXPECT_TRUE(s.verified);
  EXPECT_EQ(s.totals.reads, 4u);
}

TEST(Trace, ComputeAdvancesTime) {
  MachineConfig cfg;
  cfg.nodes = 1;
  core::Machine m(cfg);
  auto w = TraceWorkload::from_string("0 c 12345\n");
  auto s = m.run(*w);
  EXPECT_GE(s.run_time, 12345);
  EXPECT_EQ(s.totals.compute_cycles, 12345);
}

TEST(Trace, MismatchedBarriersAreConfigErrors) {
  EXPECT_THROW((void)TraceWorkload::from_string("0 b\n1 r 0\n"), ConfigError);
  EXPECT_THROW((void)TraceWorkload::from_string("# only a comment\n"),
               ConfigError);
}

TEST(Trace, MalformedLinesAreConfigErrorsNamingTheLine) {
  for (const char* line :
       {"0 r", "0 w 64", "0 c", "0 x 1", "0", "abc r 0", "-1 r 0", "1024 r 0",
        "99999999999 r 0", "1x r 0", "0 r -64", "0 r 0x40", "0 c 5cycles",
        "0 r 64 64", "0 b 1"}) {
    const std::string text = std::string("0 r 0\n") + line + "\n";
    try {
      (void)TraceWorkload::from_string(text);
      ADD_FAILURE() << "accepted \"" << line << "\"";
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.key(), "trace line 2") << line;
      EXPECT_EQ(e.value(), line);
    }
  }
}

TEST(Trace, ValuesOnlyTheMachineCanJudgeAreConfigErrorsNamingTheRecord) {
  // The parser accepts these records; Machine::run rejects them in setup,
  // before any replay: addresses past the 2^47-byte shared heap, and writes
  // that do not lie within one 64-byte L2 block.
  for (const char* record :
       {"0 r 140737488355328", "0 r 18446744073709551615", "0 w 0 100000",
        "0 w 60 8"}) {
    MachineConfig cfg;
    cfg.nodes = 4;
    core::Machine m(cfg);
    auto w = TraceWorkload::from_string(std::string("0 r 0\n") + record +
                                        "\n");
    try {
      (void)m.run(*w);
      ADD_FAILURE() << "replayed \"" << record << "\"";
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.key(), "trace") << record;
      EXPECT_EQ(e.value(), record);
    }
  }
  // A write filling a whole block, or ending at its last byte, replays.
  MachineConfig cfg;
  cfg.nodes = 4;
  core::Machine m(cfg);
  auto w = TraceWorkload::from_string("0 w 0 64\n0 w 124 4\n");
  EXPECT_TRUE(m.run(*w).verified);
}

TEST(Trace, UnopenablePathIsAConfigError) {
  try {
    (void)TraceWorkload::from_file("/nonexistent/trace.txt");
    ADD_FAILURE() << "opened a nonexistent trace";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.value(), "/nonexistent/trace.txt");
  }
}

TEST(Trace, MalformedFileErrorsNameTheFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "netcache-malformed.trace")
          .string();
  std::ofstream(path) << "0 r 64\n0 x 1\n";
  try {
    (void)TraceWorkload::from_file(path);
    ADD_FAILURE() << "parsed a malformed trace";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.key(), "trace line 2 in " + path);
    EXPECT_EQ(e.value(), "0 x 1");
    EXPECT_EQ(e.why(), "unknown op (expected r, w, c or b)");
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace netcache::apps
