#include "src/sim/diagnostics.hpp"

#include <cinttypes>
#include <cstdio>

namespace netcache::sim {

const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kResume: return "resume";
    case TraceKind::kCallback: return "callback";
  }
  return "?";
}

const char* to_string(TraceTagKind kind) {
  switch (kind) {
    case TraceTagKind::kNone: return "untagged";
    case TraceTagKind::kRead: return "read";
    case TraceTagKind::kWrite: return "write";
    case TraceTagKind::kCompute: return "compute";
    case TraceTagKind::kSync: return "sync";
    case TraceTagKind::kGrant: return "grant";
    case TraceTagKind::kFault: return "fault";
  }
  return "?";
}

std::string TraceRing::dump() const {
  if (!enabled()) return std::string();
  const std::size_t kept = recorded_ < ring_.size()
                               ? static_cast<std::size_t>(recorded_)
                               : ring_.size();
  std::string out;
  char line[128];
  std::snprintf(line, sizeof(line),
                "event trace tail (%" PRIu64 " recorded, last %zu kept):\n",
                recorded_, kept);
  out += line;
  for_each_tail([&](const TraceRecord& r) {
    char what[32] = "";
    if (r.user_tag != 0) {
      NodeId node = trace_tag_node(r.user_tag);
      if (node != kNoNode) {
        std::snprintf(what, sizeof(what), " %s@n%d",
                      to_string(trace_tag_kind(r.user_tag)), node);
      } else {
        std::snprintf(what, sizeof(what), " %s",
                      to_string(trace_tag_kind(r.user_tag)));
      }
    }
    std::snprintf(line, sizeof(line),
                  "  t=%" PRId64 " %-8s seq=%" PRIu64 "%s queue_depth=%u\n",
                  r.time, to_string(r.kind), r.tag, what, r.queue_depth);
    out += line;
  });
  return out;
}

std::string format_blocked_report(const BlockedRegistry& blocked, Cycles now) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%zu blocked task(s) at cycle %" PRId64
                                    ":\n",
                blocked.size(), now);
  out += line;
  blocked.for_each([&](const BlockedInfo& b) {
    char who[48];
    if (b.tag.node != kNoNode) {
      std::snprintf(who, sizeof(who), "%s %d",
                    b.tag.label ? b.tag.label : "node", b.tag.node);
    } else {
      std::snprintf(who, sizeof(who), "%s",
                    b.tag.label ? b.tag.label : "untagged");
    }
    std::snprintf(line, sizeof(line),
                  "  [%s] waiting on %s@%p since cycle %" PRId64
                  " (%" PRId64 " cycles)\n",
                  who, b.what, b.target, b.since, now - b.since);
    out += line;
  });
  return out;
}

}  // namespace netcache::sim
