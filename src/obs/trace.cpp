#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>

namespace rcmp::obs {

namespace {

/// Deterministic double formatting: %.17g round-trips every finite
/// double, so exports from identical runs are byte-identical.
void append_double(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

/// Chrome wants microsecond timestamps; fixed three decimals keeps the
/// output stable across libc printf implementations.
void append_micros(std::string* out, double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  out->append(buf);
}

void append_field_i32(std::string* out, std::uint32_t v) {
  char buf[16];
  if (v == kNoField) {
    out->append("-1");
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu32, v);
    out->append(buf);
  }
}

}  // namespace

const char* event_type_name(EventType t) {
  switch (t) {
    case EventType::kJobSubmit: return "job_submit";
    case EventType::kJobStart: return "job_start";
    case EventType::kJobFinish: return "job_finish";
    case EventType::kJobCancel: return "job_cancel";
    case EventType::kTaskStart: return "task_start";
    case EventType::kTaskFinish: return "task_finish";
    case EventType::kTaskReexec: return "task_reexec";
    case EventType::kShuffleFetch: return "shuffle_fetch";
    case EventType::kFailure: return "failure";
    case EventType::kRecovery: return "recovery";
    case EventType::kReplan: return "replan";
    case EventType::kEviction: return "eviction";
    case EventType::kReplicationPoint: return "replication_point";
    case EventType::kSlotGrant: return "slot_grant";
    case EventType::kChainAdmit: return "chain_admit";
    case EventType::kChainDone: return "chain_done";
    case EventType::kSuspect: return "suspect";
    case EventType::kReconcile: return "reconcile";
    case EventType::kQuarantine: return "quarantine";
    case EventType::kPolicyDecision: return "policy_decision";
    case EventType::kSpill: return "spill";
    case EventType::kPromote: return "promote";
    case EventType::kCacheHit: return "cache_hit";
    case EventType::kCacheInvalidate: return "cache_invalidate";
    case EventType::kMasterCrash: return "master_crash";
    case EventType::kJournalReplay: return "journal_replay";
  }
  return "unknown";
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Once wrapped, head_ points at the oldest element.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::string Tracer::export_jsonl() const {
  std::string out;
  out.reserve(ring_.size() * 96);
  for (const TraceEvent& ev : events()) {
    out.append("{\"t\":");
    append_double(&out, ev.time);
    out.append(",\"ev\":\"");
    out.append(event_type_name(static_cast<EventType>(ev.type)));
    out.append("\",\"kind\":");
    char buf[8];
    std::snprintf(buf, sizeof(buf), "%u", ev.kind);
    out.append(buf);
    out.append(",\"node\":");
    append_field_i32(&out, ev.node);
    out.append(",\"job\":");
    append_field_i32(&out, ev.job);
    out.append(",\"i\":");
    append_field_i32(&out, ev.index);
    out.append(",\"v\":");
    append_double(&out, ev.value);
    // The chain tag appears only when several chains share the run,
    // keeping a lone chain's export (and its pinned goldens) unchanged.
    if (ev.chain != 0) {
      out.append(",\"c\":");
      std::snprintf(buf, sizeof(buf), "%u", ev.chain);
      out.append(buf);
    }
    out.append("}\n");
  }
  return out;
}

std::string Tracer::export_chrome() const {
  std::string out;
  out.reserve(ring_.size() * 160);
  out.append("{\"traceEvents\":[");
  bool first = true;
  for (const TraceEvent& ev : events()) {
    if (!first) out.append(",\n");
    first = false;
    const auto type = static_cast<EventType>(ev.type);
    const std::uint32_t pid = ev.node == kNoField ? 0 : ev.node;
    char buf[96];
    if (type == EventType::kTaskFinish) {
      // value carries the task duration: render a complete slice that
      // spans [finish - duration, finish] on the executing node's row.
      // Multi-tenant slices get a per-chain lane (tid) and a chain
      // prefix in the name; untagged events keep the original layout.
      const char* what = ev.kind == kKindReduce ? "reduce" : "map";
      if (ev.chain != 0) {
        std::snprintf(buf, sizeof(buf), "c%u %s j%u #%u",
                      static_cast<unsigned>(ev.chain), what, ev.job,
                      ev.index);
      } else {
        std::snprintf(buf, sizeof(buf), "%s j%u #%u", what, ev.job,
                      ev.index);
      }
      out.append("{\"name\":\"");
      out.append(buf);
      out.append("\",\"ph\":\"X\",\"ts\":");
      append_micros(&out, ev.time - ev.value);
      out.append(",\"dur\":");
      append_micros(&out, ev.value);
      std::snprintf(buf, sizeof(buf), ",\"pid\":%u,\"tid\":%u}", pid,
                    static_cast<unsigned>(ev.chain) * 2 +
                        static_cast<unsigned>(ev.kind));
      out.append(buf);
    } else {
      out.append("{\"name\":\"");
      out.append(event_type_name(type));
      out.append("\",\"ph\":\"i\",\"s\":\"g\",\"ts\":");
      append_micros(&out, ev.time);
      std::snprintf(buf, sizeof(buf), ",\"pid\":%u,\"tid\":0}", pid);
      out.append(buf);
    }
  }
  out.append("]}\n");
  return out;
}

}  // namespace rcmp::obs
