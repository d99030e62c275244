#include "src/verify/oracle.hpp"

#include <bit>
#include <cstdio>
#include <string>

#include "src/common/nc_assert.hpp"
#include "src/core/address_space.hpp"
#include "src/sim/engine.hpp"

namespace netcache::verify {

CoherenceOracle::CoherenceOracle(const MachineConfig& config,
                                 const core::AddressSpace& as,
                                 sim::Engine& engine)
    : config_(&config),
      as_(&as),
      engine_(&engine),
      update_based_(config.system != SystemKind::kDmonInvalidate),
      nodes_(config.nodes),
      block_shift_(
          std::countr_zero(static_cast<unsigned>(config.l2.block_bytes))),
      pending_fifo_(static_cast<std::size_t>(config.nodes)) {
  FailureReporter::instance().add(this);
}

CoherenceOracle::~CoherenceOracle() {
  FailureReporter::instance().remove(this);
}

void CoherenceOracle::size_table(std::size_t shared_bytes) {
  NC_ASSERT(rows_.empty(), "the oracle's shadow table is sized once");
  // The sequential prefetcher fetches the block after a miss, so it reaches
  // one L2 block past the footprint.
  if (config_->sequential_prefetch) {
    shared_bytes += static_cast<std::size_t>(config_->l2.block_bytes);
  }
  const std::size_t line = static_cast<std::size_t>(config_->ring.block_bytes);
  const std::size_t bytes = (shared_bytes + line - 1) / line * line;
  const std::size_t rows = bytes >> block_shift_;
  const std::size_t cells = rows * static_cast<std::size_t>(nodes_);
  rows_.resize(rows);
  observed_.resize(cells, 0);
  present_.resize(cells, 0);
  // on_exclusive_grant, DMON-I's single-writer check, is the only reader.
  if (!update_based_) fill_time_.resize(cells, 0);
}

std::size_t CoherenceOracle::row_of(Addr block_base) const {
  const std::size_t r = static_cast<std::size_t>(block_base >> block_shift_);
  NC_ASSERT(r < rows_.size(),
            "oracle hook on a block outside the shared footprint (a workload "
            "must alloc_shared every shared address it touches in setup)");
  return r;
}

CoherenceOracle::Row& CoherenceOracle::state(Addr block_base) {
  Row& row = rows_[row_of(block_base)];
  row.tracked = true;
  return row;
}

bool CoherenceOracle::tracked(Addr addr) const {
  return !as_->is_private(addr);
}

Addr CoherenceOracle::ring_line_of(Addr addr) const {
  return netcache::block_base(addr, config_->ring.block_bytes);
}

bool CoherenceOracle::on_ring(Addr addr) const {
  return rows_[row_of(ring_line_of(addr))].ring_line;
}

void CoherenceOracle::violation(const char* what, NodeId node, Addr block_base,
                                const Row* bs) const {
  char buf[512];
  if (bs != nullptr) {
    std::snprintf(buf, sizeof(buf),
                  "coherence violation: %s [t=%lld node=%d block=0x%llx "
                  "committed=v%u mem=v%u ring=v%u%s observed=v%u present=%d "
                  "last_writer=%d last_commit=%lld last_invalidate=%lld]",
                  what, static_cast<long long>(engine_->now()), node,
                  static_cast<unsigned long long>(block_base), bs->committed,
                  bs->mem, bs->ring, on_ring(block_base) ? "(on-ring)" : "",
                  node >= 0 && node < nodes_ ? observed_[at(*bs, node)] : 0,
                  node >= 0 && node < nodes_
                      ? static_cast<int>(present_[at(*bs, node)])
                      : -1,
                  bs->last_writer, static_cast<long long>(bs->last_commit),
                  static_cast<long long>(bs->last_invalidate));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "coherence violation: %s [t=%lld node=%d block=0x%llx "
                  "(block never tracked)]",
                  what, static_cast<long long>(engine_->now()), node,
                  static_cast<unsigned long long>(block_base));
  }
  nc_assert_fail(__FILE__, __LINE__, "coherence-oracle", buf);
}

void CoherenceOracle::on_store_buffered(NodeId node, Addr addr) {
  if (!tracked(addr)) return;
  const Addr block = netcache::block_base(addr, config_->l2.block_bytes);
  auto& fifo = pending_fifo_[static_cast<std::size_t>(node)];
  // Mirror the write buffer's coalescing rule: a buffered block absorbs
  // later stores without a new entry, so membership is keyed by block.
  for (Addr pending : fifo) {
    if (pending == block) return;
  }
  fifo.push_back(block);
}

void CoherenceOracle::on_drain_start(NodeId node, Addr block_base) {
  auto& fifo = pending_fifo_[static_cast<std::size_t>(node)];
  if (fifo.empty()) {
    violation("write-buffer drain with no pending shared store", node,
              block_base, nullptr);
  }
  if (fifo.front() != block_base) {
    violation("write-buffer drained out of FIFO order", node, block_base,
              &state(fifo.front()));
  }
  fifo.erase(fifo.begin());
  ++stats_.drains_checked;
}

void CoherenceOracle::on_store_commit(NodeId writer, Addr block_base) {
  Row& bs = state(block_base);
  ++bs.committed;
  bs.last_writer = writer;
  bs.last_commit = engine_->now();
  if (update_based_) {
    // The writer's own copy (if any) reflects its own store immediately;
    // everyone else catches up via on_update_delivered at this same instant.
    if (present_[at(bs, writer)]) observed_[at(bs, writer)] = bs.committed;
  } else {
    // I-SPEED model relaxation (DESIGN.md §11): an exclusive-hit local write
    // does not re-invalidate copies forwarded after ownership was acquired,
    // and the model's forward path leaves those copies legal to hit. Treat
    // every currently present copy as refreshed by the commit; staleness
    // across ownership changes is still caught by on_exclusive_grant.
    for (int n = 0; n < nodes_; ++n) {
      if (present_[at(bs, n)]) observed_[at(bs, n)] = bs.committed;
    }
  }
  recent_commits_[commit_seq_ % kCommitRing] =
      CommitRecord{block_base, writer, bs.committed, bs.last_commit};
  ++commit_seq_;
  ++stats_.stores_committed;
}

void CoherenceOracle::on_mem_update(Addr block_base) {
  Row& bs = state(block_base);
  // One home write absorbs one commit's words (same rule as
  // on_update_delivered): if memory missed an update, later updates to the
  // same block rewrite *different* words and can never heal the gap.
  if (bs.mem < bs.committed) ++bs.mem;
}

void CoherenceOracle::on_hit(NodeId node, Addr addr, const char* level) {
  if (!tracked(addr)) return;
  const Addr block = netcache::block_base(addr, config_->l2.block_bytes);
  char what[96];
  const Row& bs = rows_[row_of(block)];
  if (!bs.tracked) {
    // Never filled, never written: a hit can only come from a fill the
    // oracle did not see. (Workload setup runs before Machine::run and does
    // not touch the caches, so there is no warm-up blind spot.)
    std::snprintf(what, sizeof(what),
                  "%s hit on a block the oracle never saw filled", level);
    violation(what, node, block, nullptr);
  }
  if (!present_[at(bs, node)]) {
    std::snprintf(what, sizeof(what),
                  "%s hit on a copy the oracle believes invalidated/evicted",
                  level);
    violation(what, node, block, &bs);
  }
  if (observed_[at(bs, node)] != bs.committed) {
    std::snprintf(what, sizeof(what), "stale %s copy served a read", level);
    violation(what, node, block, &bs);
  }
  ++stats_.loads_checked;
}

void CoherenceOracle::on_fill(NodeId node, Addr block_base, FillSource source) {
  if (!tracked(block_base)) return;
  Row& bs = state(block_base);
  if (source == FillSource::kMemory && update_based_) {
    // Update protocols keep home memory current, so a memory fill serving a
    // version older than the last commit means an update never landed.
    if (bs.mem != bs.committed) {
      violation("memory fill served data that missed a committed update",
                node, block_base, &bs);
    }
  }
  present_[at(bs, node)] = 1;
  if (!update_based_) fill_time_[at(bs, node)] = engine_->now();
  // Stamp the version current *now*: commits that landed while the fill was
  // in flight were applied at the serving structure before the data left it.
  observed_[at(bs, node)] = bs.committed;
  ++stats_.fills;
}

void CoherenceOracle::on_evict(NodeId node, Addr block_base) {
  if (!tracked(block_base)) return;
  const Row& bs = rows_[row_of(block_base)];
  if (!bs.tracked) return;
  present_[at(bs, node)] = 0;
  observed_[at(bs, node)] = 0;
}

void CoherenceOracle::on_update_delivered(NodeId node, Addr block_base) {
  Row& bs = state(block_base);
  // One delivery advances the copy by exactly one version (a delivery
  // carries one commit's words). A copy that missed a delivery therefore
  // stays behind forever — later updates to the same block can never mask
  // the still-stale words the dropped one carried.
  if (present_[at(bs, node)] && observed_[at(bs, node)] < bs.committed) {
    ++observed_[at(bs, node)];
  }
  ++stats_.updates_delivered;
}

void CoherenceOracle::on_invalidate_broadcast(Addr block_base) {
  Row& bs = state(block_base);
  bs.last_invalidate = engine_->now();
}

void CoherenceOracle::on_invalidate_delivered(NodeId node, Addr block_base) {
  const Row& bs = state(block_base);
  present_[at(bs, node)] = 0;
  observed_[at(bs, node)] = 0;
  ++stats_.invalidations_delivered;
}

void CoherenceOracle::on_non_sharers_skipped(std::uint64_t count) {
  (update_based_ ? stats_.updates_delivered
                 : stats_.invalidations_delivered) += count;
}

const std::uint8_t* CoherenceOracle::presence(Addr block_base) const {
  return &present_[at(rows_[row_of(block_base)], 0)];
}

void CoherenceOracle::on_ring_insert(Addr block_base,
                                     const std::optional<Addr>& evicted) {
  if (evicted.has_value()) {
    rows_[row_of(ring_line_of(*evicted))].ring_line = false;
  }
  const Addr line = ring_line_of(block_base);
  rows_[row_of(line)].ring_line = true;
  // The home streams the whole line out of its memory, which updates keep
  // current (checked at every refresh and hit), so every covered L2 block's
  // ring copy picks up its memory version.
  for (int off = 0; off < config_->ring.block_bytes;
       off += config_->l2.block_bytes) {
    Row& bs = state(line + static_cast<Addr>(off));
    bs.ring = bs.mem;
  }
}

void CoherenceOracle::on_ring_refresh(Addr block_base, bool was_present) {
  Row& bs = state(block_base);
  if (was_present != on_ring(block_base)) {
    violation(was_present
                  ? "ring refreshed a slot the oracle believes empty"
                  : "ring missed a refresh for a block the oracle tracks",
              kNoNode, block_base, &bs);
  }
  if (was_present && bs.ring < bs.committed) {
    // Same one-version-per-rewrite rule as on_update_delivered: a slot that
    // missed one home rewrite keeps that commit's words stale no matter how
    // many later rewrites land.
    ++bs.ring;
  }
  ++stats_.ring_checks;
}

void CoherenceOracle::on_ring_drop(Addr block_base) {
  rows_[row_of(ring_line_of(block_base))].ring_line = false;
}

void CoherenceOracle::on_ring_hit(NodeId reader, Addr block_base) {
  const Row& bs = state(block_base);
  if (!on_ring(block_base)) {
    violation("ring served a block the oracle believes absent", reader,
              block_base, &bs);
  }
  if (bs.ring != bs.committed) {
    violation("ring slot served a stale copy (missed refresh)", reader,
              block_base, &bs);
  }
  ++stats_.ring_checks;
}

void CoherenceOracle::on_exclusive_grant(NodeId owner, Addr block_base) {
  const Row& bs = state(block_base);
  for (int n = 0; n < nodes_; ++n) {
    if (n == owner) continue;
    // Only copies that predate the invalidation broadcast violate the
    // single-writer epoch; refills racing the ownership drain are legal in
    // this model (DESIGN.md §11 relaxation b).
    if (present_[at(bs, n)] && bs.last_invalidate > 0 &&
        fill_time_[at(bs, n)] < bs.last_invalidate) {
      violation("copy survived an invalidation broadcast "
                "(single-writer epoch violated)",
                n, block_base, &bs);
    }
  }
  ++stats_.grants_checked;
}

void CoherenceOracle::on_owner_forward(NodeId owner, Addr block_base) {
  const Row& bs = state(block_base);
  if (!present_[at(bs, owner)]) {
    violation("directory forwarded a miss to an owner without a copy", owner,
              block_base, &bs);
  }
  if (observed_[at(bs, owner)] != bs.committed) {
    violation("directory owner forwarded a stale copy", owner, block_base,
              &bs);
  }
  ++stats_.grants_checked;
}

void CoherenceOracle::final_audit() {
  std::uint64_t blocks = 0;
  for (const Row& bs : rows_) {
    if (!bs.tracked) continue;
    ++blocks;
    const Addr block = static_cast<Addr>(&bs - rows_.data()) << block_shift_;
    if (update_based_ && bs.mem != bs.committed) {
      violation("home memory missed a committed update (end-of-run audit)",
                bs.last_writer, block, &bs);
    }
    if (on_ring(block) && bs.ring != bs.committed) {
      violation("stale ring copy survived to end of run", kNoNode, block,
                &bs);
    }
    for (int n = 0; n < nodes_; ++n) {
      if (present_[at(bs, n)] && observed_[at(bs, n)] != bs.committed) {
        violation("stale cached copy survived to end of run", n, block, &bs);
      }
    }
  }
  stats_.blocks_tracked = blocks;
}

void CoherenceOracle::describe_failure_context(std::string& out) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "coherence oracle: %llu loads checked, %llu commits, "
                "%llu updates, %llu invalidations, %llu fills, "
                "%llu ring checks, %llu grants, %llu drains\n",
                static_cast<unsigned long long>(stats_.loads_checked),
                static_cast<unsigned long long>(stats_.stores_committed),
                static_cast<unsigned long long>(stats_.updates_delivered),
                static_cast<unsigned long long>(stats_.invalidations_delivered),
                static_cast<unsigned long long>(stats_.fills),
                static_cast<unsigned long long>(stats_.ring_checks),
                static_cast<unsigned long long>(stats_.grants_checked),
                static_cast<unsigned long long>(stats_.drains_checked));
  out += buf;
  const std::uint64_t n =
      commit_seq_ < kCommitRing ? commit_seq_ : kCommitRing;
  if (n > 0) {
    out += "  recent commits (oldest first):\n";
    for (std::uint64_t i = commit_seq_ - n; i < commit_seq_; ++i) {
      const CommitRecord& r = recent_commits_[i % kCommitRing];
      std::snprintf(buf, sizeof(buf),
                    "    t=%lld node=%d block=0x%llx -> v%u\n",
                    static_cast<long long>(r.time), r.writer,
                    static_cast<unsigned long long>(r.block), r.version);
      out += buf;
    }
  }
}

}  // namespace netcache::verify
