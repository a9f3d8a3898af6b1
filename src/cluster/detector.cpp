#include "cluster/detector.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"

namespace rcmp::cluster {

FailureDetector::FailureDetector(sim::Simulation& sim, Cluster& cluster,
                                 DetectorConfig cfg,
                                 obs::Observability* obs)
    : sim_(sim), cluster_(cluster), cfg_(cfg), obs_(obs) {
  // User-facing knobs throw ConfigError (not RCMP_CHECK) so drivers can
  // report them like any other bad flag instead of terminating.
  if (cfg_.heartbeat_interval <= 0.0) {
    throw ConfigError("detector heartbeat interval must be positive");
  }
  if (cfg_.suspicion_timeout <= 0.0) {
    throw ConfigError("detector suspicion timeout must be positive");
  }

  const std::uint32_t n = cluster_.size();
  hb_ev_.assign(n, sim::kInvalidEvent);
  deadline_ev_.assign(n, sim::kInvalidEvent);
  last_hb_.assign(n, -1.0);
  hb_blocked_until_.assign(n, 0.0);
  fail_time_.assign(n, -1.0);
  suspect_time_.assign(n, -1.0);
  suspected_.assign(n, false);
  quarantined_.assign(n, false);
  pending_loss_.assign(n, false);
  task_failures_.assign(n, 0);

  cluster_.on_failure(
      [this](const FailureEvent& ev) { handle_cluster_failure(ev); });
  cluster_.on_recover([this](NodeId m) { handle_cluster_recovery(m); });
}

void FailureDetector::start() {
  if (started_) return;
  started_ = true;
  for (NodeId n = 0; n < cluster_.size(); ++n) {
    if (cluster_.compute_alive(n)) start_node(n);
  }
}

void FailureDetector::start_node(NodeId n) {
  // The node's first heartbeat comes one interval from now; the master
  // treats "now" as the last sighting and arms the deadline from it.
  hb_ev_[n] = sim_.schedule_after(cfg_.heartbeat_interval,
                                  [this, n] { emit_heartbeat(n); });
  arm_deadline(n);
}

void FailureDetector::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (NodeId n = 0; n < cluster_.size(); ++n) {
    if (hb_ev_[n] != sim::kInvalidEvent) {
      sim_.cancel(hb_ev_[n]);
      hb_ev_[n] = sim::kInvalidEvent;
    }
    cancel_deadline(n);
  }
}

void FailureDetector::emit_heartbeat(NodeId n) {
  hb_ev_[n] = sim::kInvalidEvent;
  if (stopped_) return;
  // A dead TaskTracker emits nothing; the loop parks and is restarted
  // by handle_cluster_recovery when the node rejoins.
  if (!cluster_.compute_alive(n)) return;
  hb_ev_[n] = sim_.schedule_after(cfg_.heartbeat_interval,
                                  [this, n] { emit_heartbeat(n); });
  if (sim_.now() < hb_blocked_until_[n] || !cluster_.reachable(n)) {
    ++heartbeats_dropped_;
    return;
  }
  heartbeat_arrived(n);
}

void FailureDetector::heartbeat_arrived(NodeId n) {
  ++heartbeats_received_;
  if (suspected_[n]) {
    // Reconciliation: the suspicion was wrong (or the condition healed).
    suspected_[n] = false;
    ++reconciliations_;
    const SimTime held = sim_.now() - suspect_time_[n];
    RCMP_INFO() << "t=" << sim_.now() << " detector: node " << n
                << " heartbeated while suspected — reconciling (suspected "
                << held << "s)";
    if (obs_ != nullptr) {
      obs_->metrics.add("detector.reconciliations");
      obs_->tracer.emit(sim_.now(), obs::EventType::kReconcile, 0, n,
                        obs::kNoField, obs::kNoField, held);
    }
    for (auto& h : reconcile_handlers_) h(n);
  }
  if (pending_loss_[n]) {
    // The DataNode's loss report rode this heartbeat.
    pending_loss_[n] = false;
    record_detection_latency(n);
    deliver(n, DetectionKind::kStorageLoss);
  }
  // Lazy deadline: only record the sighting — the pending deadline
  // re-checks recency when it fires, so a healthy node costs the master
  // one no-op wakeup per timeout window instead of a cancel + re-arm
  // per heartbeat. Re-arm only when no deadline is pending (a suspicion
  // consumed it and this heartbeat just reconciled).
  last_hb_[n] = sim_.now();
  if (deadline_ev_[n] == sim::kInvalidEvent) arm_deadline(n);
}

void FailureDetector::arm_deadline(NodeId n) {
  cancel_deadline(n);
  last_hb_[n] = sim_.now();
  deadline_ev_[n] = sim_.schedule_at(sim_.now() + cfg_.suspicion_timeout,
                                     [this, n] { deadline_fired(n); });
}

void FailureDetector::cancel_deadline(NodeId n) {
  if (deadline_ev_[n] == sim::kInvalidEvent) return;
  sim_.cancel(deadline_ev_[n]);
  deadline_ev_[n] = sim::kInvalidEvent;
}

void FailureDetector::deadline_fired(NodeId n) {
  deadline_ev_[n] = sim::kInvalidEvent;
  if (stopped_ || suspected_[n]) return;
  // Not overdue: a heartbeat arrived since this deadline was armed.
  // Re-arm at the exact instant the latest sighting goes stale —
  // schedule_at(last_hb + timeout) reproduces the suspicion times of
  // the eager cancel-and-rearm scheme bit for bit.
  const SimTime due = last_hb_[n] + cfg_.suspicion_timeout;
  if (due > sim_.now()) {
    deadline_ev_[n] =
        sim_.schedule_at(due, [this, n] { deadline_fired(n); });
    return;
  }
  ++suspicions_;
  const bool node_dead = !cluster_.compute_alive(n);
  const bool false_suspicion = !node_dead;
  if (false_suspicion) {
    // Only an *unresolved* belief persists: the node may heartbeat
    // again and reconcile. A real detection resolves immediately — the
    // node is known compute-dead, and its DataNode's fate is tracked by
    // the storage layer, so surviving data keeps serving (the paper's
    // partial-failure model).
    suspected_[n] = true;
    suspect_time_[n] = sim_.now();
    ++false_suspicions_;
    RCMP_INFO() << "t=" << sim_.now() << " detector: node " << n
                << " FALSELY suspected (alive, heartbeats missing)";
  } else {
    record_detection_latency(n);
    RCMP_INFO() << "t=" << sim_.now() << " detector: node " << n
                << " suspected dead, " << last_time_to_detect_
                << "s after the failure";
  }
  if (obs_ != nullptr) {
    obs_->metrics.add("detector.suspicions");
    if (false_suspicion) obs_->metrics.add("detector.false_suspicions");
    obs_->tracer.emit(sim_.now(), obs::EventType::kSuspect,
                      false_suspicion ? 1 : 0, n, obs::kNoField,
                      obs::kNoField,
                      node_dead ? last_time_to_detect_ : 0.0);
  }
  // The suspicion is the master's one detection for this node: any
  // pending storage-loss report is folded into it.
  pending_loss_[n] = false;
  deliver(n, node_dead ? DetectionKind::kDeadNode
                       : DetectionKind::kFalseSuspicion);
}

void FailureDetector::deliver(NodeId n, DetectionKind kind) {
  for (auto& h : detection_handlers_) h(n, kind);
}

void FailureDetector::record_detection_latency(NodeId n) {
  if (fail_time_[n] < 0.0) return;
  last_time_to_detect_ = sim_.now() - fail_time_[n];
  fail_time_[n] = -1.0;
  if (obs_ != nullptr) {
    obs_->metrics.observe("detector.time_to_detect", last_time_to_detect_);
  }
}

void FailureDetector::handle_cluster_failure(const FailureEvent& ev) {
  if (!started_ || stopped_) return;
  const NodeId n = ev.node;
  fail_time_[n] = sim_.now();
  if (ev.lost_storage) pending_loss_[n] = true;
  // Who will report this damage? A live, unsuspected node does so in
  // its next heartbeat; a node whose suspicion deadline is still armed
  // is reported when it fires. Otherwise — the failure landed on an
  // already-detected dead node or a currently-suspected one, so no
  // heartbeat and no deadline remain — schedule one delayed
  // re-detection: the master learns from failing tasks/writes within a
  // timeout. The fail_time_ guard makes delivery exactly-once (it is
  // cleared by delivery and by recovery), even when several failures
  // stack their own delayed events.
  const bool heartbeat_reports = cluster_.compute_alive(n) && !suspected_[n];
  const bool deadline_armed = deadline_ev_[n] != sim::kInvalidEvent;
  if (heartbeat_reports || deadline_armed) return;
  sim_.schedule_after(cfg_.suspicion_timeout, [this, n] {
    if (stopped_ || fail_time_[n] < 0.0) return;
    // The belief resolves: whatever we suspected, the node is now
    // really damaged and the master acts on ground truth.
    suspected_[n] = false;
    pending_loss_[n] = false;
    record_detection_latency(n);
    deliver(n, DetectionKind::kDeadNode);
  });
}

void FailureDetector::handle_cluster_recovery(NodeId n) {
  if (!started_ || stopped_) return;
  // A node back before its suspicion deadline fired still lost whatever
  // ran on it. Its re-registering TaskTracker tells the master so: the
  // pending failure is delivered here, exactly once, before the reset
  // below forgets it.
  if (fail_time_[n] >= 0.0) {
    record_detection_latency(n);
    deliver(n, DetectionKind::kDeadNode);
  }
  // A rejoined node is a fresh daemon: suspicion and undelivered loss
  // reports are moot (the middleware's recovery path re-admits it), and
  // its heartbeat loop restarts. Quarantine is sticky — ATLAS-style
  // blacklists outlive restarts of the offending node.
  suspected_[n] = false;
  pending_loss_[n] = false;
  fail_time_[n] = -1.0;
  if (hb_ev_[n] == sim::kInvalidEvent) {
    hb_ev_[n] = sim_.schedule_after(cfg_.heartbeat_interval,
                                    [this, n] { emit_heartbeat(n); });
  }
  arm_deadline(n);
}

void FailureDetector::master_crash_reset() {
  if (!started_ || stopped_) return;
  max_task_failures_ = 0;
  for (NodeId n = 0; n < cluster_.size(); ++n) {
    suspected_[n] = false;
    pending_loss_[n] = false;
    suspect_time_[n] = -1.0;
    quarantined_[n] = false;
    task_failures_[n] = 0;
    if (!cluster_.compute_alive(n)) {
      // Leave any pre-crash deadline or delayed re-detection event in
      // place: it fires, finds the node compute-dead and delivers a
      // real detection — the new master re-learns the death through the
      // ordinary suspicion machinery. (Recovery itself replans from the
      // ledger ground truth, so nothing blocks on that delivery.)
      continue;
    }
    if (hb_ev_[n] == sim::kInvalidEvent) {
      hb_ev_[n] = sim_.schedule_after(cfg_.heartbeat_interval,
                                      [this, n] { emit_heartbeat(n); });
    }
    arm_deadline(n);
  }
  RCMP_INFO() << "t=" << sim_.now()
              << " detector: master crash — suspicion state reset";
}

void FailureDetector::restore_quarantine(NodeId n) {
  RCMP_CHECK(n < cluster_.size());
  quarantined_[n] = true;
}

void FailureDetector::drop_heartbeats(NodeId n, SimTime duration) {
  RCMP_CHECK(n < cluster_.size());
  hb_blocked_until_[n] =
      std::max(hb_blocked_until_[n], sim_.now() + duration);
  RCMP_INFO() << "t=" << sim_.now() << " detector: heartbeats of node "
              << n << " suppressed until t=" << hb_blocked_until_[n];
}

void FailureDetector::record_task_failure(NodeId n) {
  RCMP_CHECK(n < cluster_.size());
  ++task_failures_[n];
  max_task_failures_ = std::max(max_task_failures_, task_failures_[n]);
  if (quarantined_[n] || cfg_.quarantine_threshold == 0) return;
  if (task_failures_[n] < cfg_.quarantine_threshold) return;
  // Never blacklist the last schedulable compute node: a fully
  // quarantined cluster could never finish the chain.
  std::uint32_t other_schedulable = 0;
  for (NodeId m = 0; m < cluster_.size(); ++m) {
    if (m == n) continue;
    if (cluster_.compute_alive(m) && cluster_.is_compute_node(m) &&
        schedulable(m)) {
      ++other_schedulable;
    }
  }
  if (other_schedulable == 0) return;
  quarantined_[n] = true;
  ++quarantines_;
  RCMP_WARN() << "t=" << sim_.now() << " detector: node " << n
              << " quarantined after " << task_failures_[n]
              << " failed task attempts";
  if (obs_ != nullptr) {
    obs_->metrics.add("detector.quarantines");
    obs_->tracer.emit(sim_.now(), obs::EventType::kQuarantine, 0, n,
                      obs::kNoField, obs::kNoField,
                      static_cast<double>(task_failures_[n]));
  }
  for (auto& h : quarantine_handlers_) h(n);
}

}  // namespace rcmp::cluster
