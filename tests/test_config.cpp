#include "src/common/config.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "src/common/sim_error.hpp"
#include "src/core/machine.hpp"

namespace netcache {
namespace {

/// Expects cfg.validate() to throw ConfigError whose key matches `key` and
/// whose message mentions `why_fragment`.
void expect_rejected(const MachineConfig& cfg, const std::string& key,
                     const std::string& why_fragment) {
  try {
    cfg.validate();
    FAIL() << "expected ConfigError for key " << key;
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.key(), key);
    EXPECT_NE(std::string(e.what()).find(why_fragment), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(e.value()), std::string::npos)
        << "message must carry the offending value: " << e.what();
  }
}

TEST(Config, DefaultsMatchPaperBaseSystem) {
  MachineConfig cfg;
  EXPECT_EQ(cfg.nodes, 16);
  EXPECT_EQ(cfg.l1.size_bytes, 4 * 1024);
  EXPECT_EQ(cfg.l1.block_bytes, 32);
  EXPECT_EQ(cfg.l2.size_bytes, 16 * 1024);
  EXPECT_EQ(cfg.l2.block_bytes, 64);
  EXPECT_EQ(cfg.write_buffer_entries, 16);
  EXPECT_EQ(cfg.l2_hit_cycles, 12);
  EXPECT_EQ(cfg.mem_block_read_cycles, 76);
  EXPECT_DOUBLE_EQ(cfg.gbit_per_s, 10.0);
  EXPECT_EQ(cfg.ring.channels, 128);
  EXPECT_EQ(cfg.ring.capacity_bytes(), 32 * 1024);
  cfg.validate();  // must not throw
}

TEST(Config, ValidateRejectsBadGeometry) {
  MachineConfig cfg;
  cfg.l2.block_bytes = 48;  // not a power of two
  expect_rejected(cfg, "l2.block_bytes", "power");
  // 0 and -16384 divide evenly by block x ways, but hold no set.
  for (int bytes : {0, -16384}) {
    cfg = MachineConfig{};
    cfg.l2.size_bytes = bytes;
    expect_rejected(cfg, "l2.size_bytes", "at least one set");
    cfg = MachineConfig{};
    cfg.l1.size_bytes = bytes;
    expect_rejected(cfg, "l1.size_bytes", "at least one set");
  }
  cfg = MachineConfig{};
  cfg.l2.associativity = 0;
  expect_rejected(cfg, "l2.associativity", "at least one way");
}

TEST(Config, ValidateRejectsL2BlockWiderThanWordMask) {
  // The write buffer tracks dirty words in a 32-bit mask: 32 words is the
  // widest L2 block it can hold.
  MachineConfig cfg;
  cfg.l2.block_bytes = 256;
  cfg.ring.block_bytes = 256;
  expect_rejected(cfg, "l2.block_bytes", "32 words");
  cfg.l2.block_bytes = 128;
  cfg.ring.block_bytes = 128;
  cfg.validate();
}

TEST(Config, ValidateRejectsUnevenRingChannels) {
  MachineConfig cfg;
  cfg.nodes = 12;
  cfg.ring.channels = 128;  // 128 % 12 != 0
  expect_rejected(cfg, "ring.channels", "divide evenly among home nodes");
}

TEST(Config, ValidateRejectsMismatchedRingBlock) {
  MachineConfig cfg;
  cfg.ring.block_bytes = 32;  // smaller than the 64-byte L2 block
  expect_rejected(cfg, "ring.block_bytes", "shared cache line");
  cfg.ring.block_bytes = 96;  // not a power-of-two multiple
  expect_rejected(cfg, "ring.block_bytes", "shared cache line");
  cfg.ring.block_bytes = 128;  // the paper's Section 5.3.2 variant: fine
  cfg.ring.blocks_per_channel = 2;
  cfg.validate();
}

TEST(Config, ValidateRejectsOutOfRangeScalars) {
  MachineConfig cfg;
  cfg.nodes = 0;
  expect_rejected(cfg, "nodes", "at least one node");
  cfg.nodes = -4;
  expect_rejected(cfg, "nodes", "at least one node");
  cfg = MachineConfig{};
  cfg.gbit_per_s = -2.5;
  expect_rejected(cfg, "gbit_per_s", "positive");
  cfg = MachineConfig{};
  cfg.write_buffer_entries = 0;
  expect_rejected(cfg, "write_buffer_entries", "cannot be empty");
  cfg = MachineConfig{};
  cfg.mem_block_read_cycles = -5;
  expect_rejected(cfg, "mem_block_read_cycles", "negative");

  // NetCache's ring round trip is llround(40 x 10 / rate): 1 cycle at 800
  // Gbit/s, 0 above it. Systems without the ring take any positive rate.
  cfg = MachineConfig{};
  cfg.gbit_per_s = 800.0;
  cfg.validate();
  for (double rate : {1000.0, std::numeric_limits<double>::infinity()}) {
    cfg.system = SystemKind::kNetCache;
    cfg.gbit_per_s = rate;
    expect_rejected(cfg, "gbit_per_s", "round trip");
  }
  cfg.gbit_per_s = 1000.0;
  cfg.system = SystemKind::kLambdaNet;
  cfg.validate();
}

TEST(Config, MachineValidatesBeforeBuildingAnything) {
  // The address space and per-node stats are built from the config; a bad
  // node count must surface as a ConfigError, not an abort in a member.
  for (int nodes : {0, -4}) {
    MachineConfig cfg;
    cfg.nodes = nodes;
    try {
      core::Machine machine(cfg);
      FAIL() << "expected ConfigError for nodes = " << nodes;
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.key(), "nodes");
    }
  }
}

TEST(Config, ValidateRejectsMachinesWiderThanPrivateNodeField) {
  // A private address carries its node id in 8 bits: node 256's private
  // heap would alias node 0's. LambdaNet has no ring-channel constraint,
  // so the node count is the only limit in play.
  MachineConfig cfg;
  cfg.system = SystemKind::kLambdaNet;
  cfg.nodes = kMaxNodes;
  EXPECT_EQ(cfg.nodes, 256);
  cfg.validate();  // must not throw
  cfg.nodes = 257;
  expect_rejected(cfg, "nodes", "at most 256 nodes");
  cfg.nodes = 512;
  expect_rejected(cfg, "nodes", "at most 256 nodes");
}

TEST(Config, ConfigErrorIsASimError) {
  // Drivers catch SimError; ConfigError must be part of that hierarchy.
  MachineConfig cfg;
  cfg.nodes = -1;
  EXPECT_THROW(cfg.validate(), SimError);
}

TEST(Config, UpdateMessageScalesWithWords) {
  MachineConfig cfg;
  LatencyParams lp = derive_latencies(cfg);
  EXPECT_EQ(lp.update_message(1, false), 2);   // 32+64 bits / 50
  EXPECT_EQ(lp.update_message(16, false), 12);  // full block
  EXPECT_LT(lp.update_message(1, true), lp.update_message(16, true));
}

TEST(Config, ToStringCoversAllEnums) {
  EXPECT_STREQ(to_string(SystemKind::kNetCache), "NetCache");
  EXPECT_STREQ(to_string(SystemKind::kNetCacheNoRing), "NetCache-NoRing");
  EXPECT_STREQ(to_string(SystemKind::kLambdaNet), "LambdaNet");
  EXPECT_STREQ(to_string(SystemKind::kDmonUpdate), "DMON-U");
  EXPECT_STREQ(to_string(SystemKind::kDmonInvalidate), "DMON-I");
  EXPECT_STREQ(to_string(RingReplacement::kRandom), "Random");
  EXPECT_STREQ(to_string(RingReplacement::kLru), "LRU");
  EXPECT_STREQ(to_string(RingReplacement::kLfu), "LFU");
  EXPECT_STREQ(to_string(RingReplacement::kFifo), "FIFO");
  EXPECT_STREQ(to_string(RingAssociativity::kFullyAssociative), "Fully");
  EXPECT_STREQ(to_string(RingAssociativity::kDirectMapped), "Direct");
}

TEST(Config, CacheSets) {
  EXPECT_EQ((CacheConfig{4096, 32, 1}).sets(), 128);
  EXPECT_EQ((CacheConfig{16384, 64, 1}).sets(), 256);
  EXPECT_EQ((CacheConfig{16384, 64, 4}).sets(), 64);
}

TEST(Config, RingRoundtripScalesInverselyWithRate) {
  MachineConfig cfg;
  for (double rate : {2.5, 5.0, 10.0, 20.0, 40.0}) {
    cfg.gbit_per_s = rate;
    LatencyParams lp = derive_latencies(cfg);
    EXPECT_EQ(lp.ring_roundtrip,
              static_cast<Cycles>(std::llround(40.0 * 10.0 / rate)));
  }
}

}  // namespace
}  // namespace netcache
