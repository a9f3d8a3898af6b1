// Heartbeat failure detector: replaces oracle failure knowledge with an
// adaptive detection layer.
//
// The paper's methodology (15 s inject / 30 s detect) models detection
// as a fixed timer armed the instant a node dies — an oracle: the
// master can never be wrong, never slow beyond the constant, and never
// suspects a node that is merely slow or unreachable. Real masters
// learn about failures from missing heartbeats, which makes detection
// a distributed-systems problem: a straggler or a partitioned-but-alive
// node looks exactly like a dead one until it heartbeats again.
//
// Model: every compute-alive node emits a heartbeat every
// `heartbeat_interval` seconds. Heartbeats are control-plane messages a
// few hundred bytes long — negligible next to the data plane — so they
// ride the event queue directly instead of occupying flow-network
// capacity (DESIGN.md §11). The master arms a per-node suspicion
// deadline `suspicion_timeout` after the last heartbeat:
//
//  - deadline fires, node compute-dead  -> real detection. The observed
//    time-to-detect is bounded by suspicion_timeout + one heartbeat
//    interval (the failure can land just after an emission).
//  - deadline fires, node compute-alive -> FALSE suspicion (straggler
//    whose heartbeats are dropped, or a partitioned node). The master
//    acts as if the node died: its tasks are re-queued elsewhere and
//    its persisted data is treated as unavailable.
//  - heartbeat from a suspected node    -> reconciliation. The
//    suspicion is lifted, spurious recomputation of the node's
//    persisted outputs is cancelled, and its data is re-admitted.
//
// Storage-only losses (a swapped disk under a live TaskTracker) cannot
// be seen from missing heartbeats; the DataNode reports them in its
// next heartbeat, so the detection latency is at most one interval.
//
// On top of detection the detector keeps ATLAS-style per-node attempt
// failure statistics: `record_task_failure(n)` counts every task
// attempt charged to node n, and a node crossing
// `quarantine_threshold` is quarantined — it stops receiving task
// slots (the ChainScheduler's may_acquire, every engine's one slot
// gate, consults `schedulable()`) but keeps serving its persisted data.
//
// Determinism: all state changes ride the simulation event queue and
// callbacks fire in registration order, so same-seed runs are
// bit-identical. When no detector is attached, every consumer follows
// its pre-detector code path unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/obs.hpp"
#include "sim/simulation.hpp"

namespace rcmp::cluster {

struct DetectorConfig {
  /// Construct + wire a FailureDetector (scenario layer). Off by
  /// default: every pre-detector code path stays bit-identical.
  bool enabled = false;

  /// Seconds between a node's heartbeat emissions (Hadoop's default
  /// TaskTracker interval is 3 s).
  SimTime heartbeat_interval = 3.0;

  /// Seconds without a heartbeat before the master suspects the node
  /// (the paper's 30 s detection timeout). Must be positive.
  SimTime suspicion_timeout = 30.0;

  /// Task-attempt failures charged to one node before it is
  /// quarantined (ATLAS-style blacklisting). 0 disables quarantine.
  std::uint32_t quarantine_threshold = 3;

  /// Arm the auditor's false-suspicion/reconcile ledger-digest check:
  /// a reconciled false suspicion must leave the suspect's own DFS and
  /// map-output ledger entries byte-identical to never having suspected
  /// (its data re-admitted, not re-created or dropped). Off by default —
  /// under random chaos a spurious re-execution may legitimately
  /// replace the suspect's persisted copy before it reconciles, which
  /// is progress, not a bug; the dedicated drills control timing so the
  /// invariant is exact.
  bool audit_reconcile = false;
};

class FailureDetector {
 public:
  /// Why the master is acting on a node.
  enum class DetectionKind : std::uint8_t {
    kDeadNode,        // suspicion of a node that really lost compute
    kFalseSuspicion,  // suspicion of a compute-alive node
    kStorageLoss,     // disk-loss report piggybacked on a heartbeat
  };

  /// Throws ConfigError for a non-positive heartbeat interval or
  /// suspicion timeout. Registers cluster failure/recovery handlers at
  /// construction, so build the detector before anything that must
  /// observe detector state from its own handlers.
  FailureDetector(sim::Simulation& sim, Cluster& cluster,
                  DetectorConfig cfg, obs::Observability* obs = nullptr);
  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// Begin heartbeat emission and suspicion monitoring for every
  /// compute-alive node. Idempotent.
  void start();

  /// Cancel every pending detector event so the simulation can drain
  /// (call when the chain completes). Idempotent.
  void stop();

  SimTime heartbeat_interval() const { return cfg_.heartbeat_interval; }
  SimTime suspicion_timeout() const { return cfg_.suspicion_timeout; }

  /// Master-side view: is `n` currently suspected dead?
  bool suspected(NodeId n) const { return suspected_[n]; }
  /// Has `n` been quarantined for repeated task-attempt failures?
  bool quarantined(NodeId n) const { return quarantined_[n]; }
  /// May the master hand `n` new task slots? Quarantined nodes keep
  /// serving persisted data — only slot placement consults this.
  bool schedulable(NodeId n) const {
    return !suspected_[n] && !quarantined_[n];
  }

  /// Chaos hook: suppress delivery of `n`'s heartbeats until
  /// now + duration (the node itself is untouched). Overlapping calls
  /// extend the window.
  void drop_heartbeats(NodeId n, SimTime duration);

  /// ATLAS-style statistics: charge one failed task attempt to `n`.
  /// Crossing the quarantine threshold quarantines the node — unless it
  /// is the last schedulable compute node (a fully-blacklisted cluster
  /// could never finish).
  void record_task_failure(NodeId n);

  /// Master-crash recovery: a freshly restarted coordinator has no
  /// suspicion memory. Clears every belief (suspicions, pending loss
  /// reports, quarantines, per-node attempt statistics) and re-arms the
  /// heartbeat deadline of every compute-alive node from "now". Nodes
  /// that are really dead re-announce themselves through the ordinary
  /// deadline machinery within one suspicion timeout; journaled
  /// quarantines are re-applied by replay via restore_quarantine().
  void master_crash_reset();

  /// Journal replay re-blacklists a node that was quarantined before
  /// the crash (the kQuarantine record is the durable decision; the
  /// attempt statistics behind it are not reconstructed). Silent and
  /// idempotent — no handlers, no counters, no trace.
  void restore_quarantine(NodeId n);

  using DetectionHandler = std::function<void(NodeId, DetectionKind)>;
  /// The master must act on `n` now (the detector-mode analogue of the
  /// oracle's detect_timeout expiry). Handlers run in registration
  /// order.
  void on_detection(DetectionHandler h) {
    detection_handlers_.push_back(std::move(h));
  }

  using ReconcileHandler = std::function<void(NodeId)>;
  /// A suspected node heartbeated again: the suspicion was false (or
  /// healed) and its data is re-admitted.
  void on_reconcile(ReconcileHandler h) {
    reconcile_handlers_.push_back(std::move(h));
  }

  using QuarantineHandler = std::function<void(NodeId)>;
  void on_quarantine(QuarantineHandler h) {
    quarantine_handlers_.push_back(std::move(h));
  }

  // --- counters for tests, benches and metrics -----------------------
  std::uint64_t heartbeats_received() const { return heartbeats_received_; }
  std::uint64_t heartbeats_dropped() const { return heartbeats_dropped_; }
  std::uint32_t suspicions() const { return suspicions_; }
  std::uint32_t false_suspicions() const { return false_suspicions_; }
  std::uint32_t reconciliations() const { return reconciliations_; }
  std::uint32_t quarantines() const { return quarantines_; }
  std::uint32_t task_failures(NodeId n) const { return task_failures_[n]; }
  /// Highest per-node failed-attempt count so far — the ATLAS failure-
  /// likelihood signal adaptive policies consume, O(1).
  std::uint32_t max_task_failures() const { return max_task_failures_; }
  /// Detection latency of the most recent real detection (failure to
  /// master action); negative before the first one.
  SimTime last_time_to_detect() const { return last_time_to_detect_; }

 private:
  void emit_heartbeat(NodeId n);
  void heartbeat_arrived(NodeId n);
  void arm_deadline(NodeId n);
  void cancel_deadline(NodeId n);
  void deadline_fired(NodeId n);
  void start_node(NodeId n);
  void handle_cluster_failure(const FailureEvent& ev);
  void handle_cluster_recovery(NodeId n);
  void deliver(NodeId n, DetectionKind kind);
  void record_detection_latency(NodeId n);

  sim::Simulation& sim_;
  Cluster& cluster_;
  DetectorConfig cfg_;
  obs::Observability* obs_ = nullptr;

  bool started_ = false;
  bool stopped_ = false;

  // Per-node state, indexed by NodeId.
  std::vector<sim::EventId> hb_ev_;        // next emission (node side)
  std::vector<sim::EventId> deadline_ev_;  // suspicion deadline (master)
  /// Last heartbeat sighting. Deadlines are *lazy*: a heartbeat only
  /// records its arrival here, and the pending deadline re-checks
  /// recency when it fires — so the master's sweep work scales with
  /// overdue/suspected nodes, not with heartbeats x nodes.
  std::vector<SimTime> last_hb_;
  std::vector<SimTime> hb_blocked_until_;  // chaos heartbeat suppression
  std::vector<SimTime> fail_time_;         // last physical failure
  std::vector<SimTime> suspect_time_;      // when suspicion was raised
  std::vector<bool> suspected_;
  std::vector<bool> quarantined_;
  /// A storage loss happened that the master has not learned of yet;
  /// delivered by the next heartbeat or folded into a suspicion.
  std::vector<bool> pending_loss_;
  std::vector<std::uint32_t> task_failures_;
  std::uint32_t max_task_failures_ = 0;

  std::vector<DetectionHandler> detection_handlers_;
  std::vector<ReconcileHandler> reconcile_handlers_;
  std::vector<QuarantineHandler> quarantine_handlers_;

  std::uint64_t heartbeats_received_ = 0;
  std::uint64_t heartbeats_dropped_ = 0;
  std::uint32_t suspicions_ = 0;
  std::uint32_t false_suspicions_ = 0;
  std::uint32_t reconciliations_ = 0;
  std::uint32_t quarantines_ = 0;
  SimTime last_time_to_detect_ = -1.0;
};

/// Namespace-level shorthand for handler signatures.
using DetectionKind = FailureDetector::DetectionKind;

}  // namespace rcmp::cluster
