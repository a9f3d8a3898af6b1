// Structured tracer: typed simulation events in a fixed-capacity ring.
//
// The tracer answers "why did this chain behave the way it did?" — which
// tasks re-executed, which map outputs were reused, when failures landed
// and what the middleware did about them. Events are 32-byte PODs pushed
// into a preallocated ring buffer; when the ring is full the oldest
// event is overwritten (dropped_ counts the loss), so tracing never
// allocates on the hot path and never aborts a run.
//
// Cost when disabled: one branch on a bool. Emission sites additionally
// null-check the Observability pointer, so a simulation built without
// tracing pays a single pointer compare per site.
//
// Two export formats:
//   - JSONL: one event object per line, in emission order. Stable field
//     order and %.17g doubles make same-seed runs byte-identical.
//   - Chrome trace_event JSON: task-finish events become "X" (complete)
//     slices laid out per node/kind, everything else becomes "i"
//     (instant) marks; load the file in chrome://tracing or Perfetto.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace rcmp::obs {

/// Typed event vocabulary. Values are stable (they appear in exports).
enum class EventType : std::uint8_t {
  kJobSubmit = 0,
  kJobStart = 1,
  kJobFinish = 2,
  kJobCancel = 3,
  kTaskStart = 4,
  kTaskFinish = 5,
  kTaskReexec = 6,
  kShuffleFetch = 7,
  kFailure = 8,
  kRecovery = 9,
  kReplan = 10,
  kEviction = 11,
  kReplicationPoint = 12,
  kSlotGrant = 13,   // multi-tenant scheduler granted a compute slot
  kChainAdmit = 14,  // scheduler admitted a chain to the cluster
  kChainDone = 15,   // chain left the scheduler (completed or failed)
  kSuspect = 16,     // detector suspected a node (kind: 0 dead, 1 false)
  kReconcile = 17,   // suspected node heartbeated again; suspicion lifted
  kQuarantine = 18,  // node blacklisted for repeated task failures
  kPolicyDecision = 19,  // a policy hook overrode the static strategy
                         // (kind: the PolicyHook that fired)
  kSpill = 20,    // memory-tier bytes demoted to disk (value: bytes)
  kPromote = 21,  // a job output was steered to the memory tier
  kCacheHit = 22,  // a chain prefix job was satisfied from the shared
                   // result cache (value: bytes served)
  kCacheInvalidate = 23,  // a cache entry became unusable (kind: the
                          // CacheInvalidation reason)
  kMasterCrash = 24,    // coordinator lost all in-flight state (value:
                        // journal records durable at the crash)
  kJournalReplay = 25,  // a recovered coordinator replayed its journal
                        // (value: records replayed for this chain)
};

/// Interpretation of TraceEvent::kind per event type.
inline constexpr std::uint8_t kKindMap = 0;      // task events
inline constexpr std::uint8_t kKindReduce = 1;   // task events
inline constexpr std::uint8_t kKindKill = 0;       // failure events
inline constexpr std::uint8_t kKindCompute = 1;    // failure events
inline constexpr std::uint8_t kKindDisk = 2;       // failure events
inline constexpr std::uint8_t kKindPartition = 3;  // failure events
inline constexpr std::uint8_t kKindDeadSuspect = 0;   // suspect events
inline constexpr std::uint8_t kKindFalseSuspect = 1;  // suspect events
inline constexpr std::uint8_t kKindReplan = 0;   // replan events
inline constexpr std::uint8_t kKindRestart = 1;  // replan events
inline constexpr std::uint8_t kKindMapSlot = 0;     // slot-grant events
inline constexpr std::uint8_t kKindReduceSlot = 1;  // slot-grant events

/// Printed as -1 when a field does not apply to the event.
inline constexpr std::uint32_t kNoField = 0xffffffffu;

/// Fixed-size POD record; `value` is event-specific (task duration in
/// seconds, fetched/freed bytes, ...), 0 when unused.
struct TraceEvent {
  double time;          // simulated seconds
  std::uint8_t type;    // EventType
  std::uint8_t kind;    // see kKind* above
  std::uint16_t chain;  // chain tag among several chains; 0 = untagged
  std::uint32_t node;   // kNoField when not tied to a node
  std::uint32_t job;    // logical job ordinal; kNoField when n/a
  std::uint32_t index;  // task / partition index; kNoField when n/a
  double value;
};
static_assert(sizeof(TraceEvent) == 32, "TraceEvent must stay compact");

const char* event_type_name(EventType t);

class Tracer {
 public:
  /// Enable capture into a ring of `capacity` events (capacity 0
  /// disables). Clears any previously captured events.
  void enable(std::size_t capacity) {
    ring_.clear();
    ring_.reserve(capacity);
    capacity_ = capacity;
    head_ = 0;
    dropped_ = 0;
    enabled_ = capacity > 0;
  }

  bool enabled() const { return enabled_; }

  /// Hot-path emission: one branch when disabled, no allocation when
  /// the ring is at capacity. `chain` is the chain tag (the scheduler's
  /// tag rule: the 1-based chain id among several chains); the default
  /// 0 leaves the event untagged, as a lone chain's are.
  void emit(double time, EventType type, std::uint8_t kind,
            std::uint32_t node, std::uint32_t job, std::uint32_t index,
            double value, std::uint16_t chain = 0) {
    if (!enabled_) return;
    const TraceEvent ev{time, static_cast<std::uint8_t>(type), kind, chain,
                        node, job, index, value};
    if (ring_.size() < capacity_) {
      ring_.push_back(ev);
    } else {
      ring_[head_] = ev;  // overwrite the oldest
      if (++head_ == capacity_) head_ = 0;
      ++dropped_;
    }
  }

  /// Number of events currently held (<= capacity).
  std::size_t size() const { return ring_.size(); }
  /// Events lost to ring overwrite since enable().
  std::uint64_t dropped() const { return dropped_; }

  /// Captured events, oldest first.
  std::vector<TraceEvent> events() const;

  /// One JSON object per line, emission order; deterministic formatting.
  std::string export_jsonl() const;
  /// Chrome trace_event JSON ({"traceEvents":[...]}).
  std::string export_chrome() const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // oldest element once the ring wrapped
  std::uint64_t dropped_ = 0;
  bool enabled_ = false;
};

}  // namespace rcmp::obs
