#include "src/sim/engine.hpp"

#include <cinttypes>
#include <cstdio>

#include "src/common/sim_error.hpp"

namespace netcache::sim {

Engine::Engine() { FailureReporter::instance().add(this); }

Engine::~Engine() { FailureReporter::instance().remove(this); }

void Engine::spawn(Task<void> t, Cycles delay, std::uint16_t tag) {
  // Direct-handle scheduling: the detached frame resumes straight from the
  // event record, no closure.
  schedule_resume(delay, t.release_detached(), tag);
}

Cycles Engine::run(const RunLimits& limits) {
  std::uint64_t stalled = 0;
  const std::uint64_t events_at_start = events_executed_;
  while (!queue_.empty()) {
    const Event ev = queue_.pop();
    if (limits.max_stalled_events) {
      stalled = ev.time == now_ ? stalled + 1 : 0;
      if (stalled > limits.max_stalled_events) {
        now_ = ev.time;
        fail_run("virtual time stalled (livelock?)");
      }
    }
    now_ = ev.time;
    if (limits.max_cycles && now_ >= limits.max_cycles) {
      fail_run("virtual-time budget (max_cycles) exhausted");
    }
    if (trace_.enabled()) {
      trace_.record(ev.time,
                    ev.is_resume() ? TraceKind::kResume : TraceKind::kCallback,
                    ev.seq, static_cast<std::uint32_t>(queue_.size()),
                    ev.tag);
    }
    ev.fire();
    ++events_executed_;
    if (limits.max_events &&
        events_executed_ - events_at_start >= limits.max_events) {
      if (!queue_.empty()) {
        fail_run("event budget (max_events) exhausted");
      }
    }
  }
  if (limits.fail_on_blocked && !blocked_.empty()) {
    fail_run("event queue drained with tasks still blocked (deadlock)");
  }
  return now_;
}

void Engine::fail_run(const char* problem) {
  std::string report = "simulation failed: ";
  report += problem;
  report += "\n";
  describe_failure_context(report);
  throw SimError(report);
}

void Engine::describe_failure_context(std::string& out) const {
  char line[160];
  std::snprintf(line, sizeof(line),
                "engine state: t=%" PRId64 " events_executed=%" PRIu64
                " queue_depth=%zu wheel_pushes=%" PRIu64
                " overflow_pushes=%" PRIu64 "\n",
                now_, events_executed_, queue_.size(),
                queue_stats().wheel_pushes, queue_stats().overflow_pushes);
  out += line;
  if (!blocked_.empty()) {
    out += format_blocked_report(blocked_, now_);
  }
  if (trace_.enabled()) out += trace_.dump();
}

}  // namespace netcache::sim
