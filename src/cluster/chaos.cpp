#include "cluster/chaos.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/log.hpp"

namespace rcmp::cluster {

const char* fault_mode_name(FaultMode mode) {
  switch (mode) {
    case FaultMode::kKill: return "kill";
    case FaultMode::kTransient: return "transient";
    case FaultMode::kDisk: return "disk";
    case FaultMode::kCompute: return "compute";
    case FaultMode::kRack: return "rack";
    case FaultMode::kCorruptPartition: return "corrupt-partition";
    case FaultMode::kCorruptMapOutput: return "corrupt-map-output";
    case FaultMode::kNetworkPartition: return "network-partition";
    case FaultMode::kHeartbeatLoss: return "heartbeat-loss";
    case FaultMode::kMasterCrash: return "master-crash";
  }
  return "?";
}

void validate_fault_schedule(const FaultSchedule& schedule,
                             bool journaling_enabled) {
  if (journaling_enabled) return;
  for (const FaultEvent& ev : schedule.events) {
    if (ev.mode != FaultMode::kMasterCrash) continue;
    throw ConfigError(
        "fault schedule contains a master-crash event but the decision "
        "journal is disabled: a crashed coordinator cannot recover "
        "without a write-ahead journal. Enable journaling "
        "(ScenarioConfig::journal / --journal) or drop the event.");
  }
}

namespace {

FaultMode sample_trace_mode(Rng& rng, const TraceScheduleOptions& opt) {
  const double u = rng.uniform();
  if (u < opt.p_transient) return FaultMode::kTransient;
  if (u < opt.p_transient + opt.p_disk) return FaultMode::kDisk;
  if (u < opt.p_transient + opt.p_disk + opt.p_compute)
    return FaultMode::kCompute;
  return FaultMode::kKill;
}

FaultMode sample_random_mode(Rng& rng, const RandomScheduleOptions& opt) {
  double u = rng.uniform();
  if ((u -= opt.p_kill) < 0) return FaultMode::kKill;
  if ((u -= opt.p_transient) < 0) return FaultMode::kTransient;
  if ((u -= opt.p_disk) < 0) return FaultMode::kDisk;
  if ((u -= opt.p_compute) < 0) return FaultMode::kCompute;
  if ((u -= opt.p_rack) < 0) return FaultMode::kRack;
  if ((u -= opt.p_corrupt_partition) < 0)
    return FaultMode::kCorruptPartition;
  // New modes draw from probability mass that was previously part of
  // the kCorruptMapOutput remainder, so existing seeds with the default
  // zero probabilities sample identical schedules.
  if ((u -= opt.p_network_partition) < 0)
    return FaultMode::kNetworkPartition;
  if ((u -= opt.p_heartbeat_loss) < 0) return FaultMode::kHeartbeatLoss;
  return FaultMode::kCorruptMapOutput;
}

}  // namespace

FaultSchedule schedule_from_trace(const FailureTrace& trace,
                                  const TraceScheduleOptions& opt,
                                  std::uint64_t seed) {
  RCMP_CHECK(opt.ordinal_stride >= 1 && opt.first_ordinal >= 1);
  Rng rng(seed);
  FaultSchedule out;
  std::uint32_t day_rank = 0;
  for (std::uint32_t count : trace.failures_per_day) {
    if (count == 0) continue;
    if (out.events.size() >= opt.max_events) break;
    const std::uint32_t ordinal =
        opt.first_ordinal + day_rank * opt.ordinal_stride;
    ++day_rank;
    if (count >= opt.burst_threshold) {
      // Outage day: the trace's correlated burst becomes a rack kill.
      FaultEvent ev;
      ev.mode = FaultMode::kRack;
      ev.at_job_ordinal = ordinal;
      out.events.push_back(ev);
      continue;
    }
    for (std::uint32_t i = 0;
         i < count && out.events.size() < opt.max_events; ++i) {
      FaultEvent ev;
      ev.mode = sample_trace_mode(rng, opt);
      ev.at_job_ordinal = ordinal;
      ev.delay = kPaperFaultDelay * (i + 1);  // same-job faults 15 s apart
      ev.downtime = opt.downtime;
      out.events.push_back(ev);
    }
  }
  return out;
}

FaultSchedule kill_schedule(const FailurePlan& plan, std::uint32_t nodes) {
  // Reject impossible plans up front instead of asserting mid-run.
  const auto& ordinals = plan.at_job_ordinals;
  if (std::find(ordinals.begin(), ordinals.end(), 0u) != ordinals.end()) {
    throw ConfigError(
        "FailurePlan: job ordinals are 1-based; ordinal 0 never fires");
  }
  if (ordinals.size() > nodes) {
    throw ConfigError("FailurePlan: " + std::to_string(ordinals.size()) +
                      " kills requested but the cluster has only " +
                      std::to_string(nodes) + " nodes");
  }
  FaultSchedule out;
  for (auto it = ordinals.begin(); it != ordinals.end(); ++it) {
    FaultEvent ev;  // kKill of a random alive node
    ev.at_job_ordinal = *it;
    const auto repeat = std::count(ordinals.begin(), it, *it);
    ev.delay = kPaperFaultDelay * static_cast<double>(repeat + 1);
    out.events.push_back(ev);
  }
  return out;
}

FaultSchedule random_schedule(const RandomScheduleOptions& opt,
                              std::uint64_t seed) {
  RCMP_CHECK(opt.min_ordinal >= 1 && opt.max_ordinal >= opt.min_ordinal);
  Rng rng(seed);
  FaultSchedule out;
  for (std::uint32_t i = 0; i < opt.events; ++i) {
    FaultEvent ev;
    ev.mode = sample_random_mode(rng, opt);
    ev.at_job_ordinal = static_cast<std::uint32_t>(
        rng.range(opt.min_ordinal, opt.max_ordinal));
    ev.downtime = opt.downtime;
    out.events.push_back(ev);
  }
  std::sort(out.events.begin(), out.events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.at_job_ordinal < b.at_job_ordinal;
            });
  return out;
}

ChaosEngine::ChaosEngine(Cluster& cluster, FaultSchedule schedule,
                         std::uint64_t seed)
    : cluster_(cluster), schedule_(std::move(schedule)), rng_(seed) {
  fired_.assign(schedule_.events.size(), false);
}

void ChaosEngine::notify_job_start(std::uint32_t ordinal) {
  for (std::size_t i = 0; i < schedule_.events.size(); ++i) {
    if (fired_[i] || schedule_.events[i].at_job_ordinal != ordinal)
      continue;
    fired_[i] = true;
    cluster_.sim().schedule_after(schedule_.events[i].delay,
                                  [this, i] { fire(schedule_.events[i]); });
  }
}

NodeId ChaosEngine::pick_victim(const FaultEvent& ev,
                                const std::vector<NodeId>& candidates) {
  if (ev.node != kInvalidNode) {
    const bool eligible = std::find(candidates.begin(), candidates.end(),
                                    ev.node) != candidates.end();
    return eligible ? ev.node : kInvalidNode;
  }
  if (candidates.empty()) return kInvalidNode;
  return candidates[rng_.below(candidates.size())];
}

void ChaosEngine::kill_one(NodeId victim) {
  killed_.push_back(victim);
  cluster_.kill(victim);
}

void ChaosEngine::schedule_rejoin(NodeId victim, SimTime downtime) {
  const std::uint64_t epoch = cluster_.failure_epoch(victim);
  cluster_.sim().schedule_after(downtime, [this, victim, epoch] {
    // A later event may have re-failed (or something may have revived)
    // the node; only the rejoin matching the original outage applies.
    if (cluster_.failure_epoch(victim) != epoch) return;
    if (cluster_.alive(victim)) return;
    ++counts_.recoveries;
    cluster_.recover(victim);
  });
}

void ChaosEngine::fire(const FaultEvent& ev) {
  const SimTime now = cluster_.sim().now();
  switch (ev.mode) {
    case FaultMode::kKill: {
      const NodeId v = pick_victim(ev, cluster_.alive_nodes());
      if (v == kInvalidNode) break;
      RCMP_INFO() << "t=" << now << " chaos: kill node " << v;
      ++counts_.kills;
      kill_one(v);
      return;
    }
    case FaultMode::kTransient: {
      const NodeId v = pick_victim(ev, cluster_.alive_nodes());
      if (v == kInvalidNode) break;
      RCMP_INFO() << "t=" << now << " chaos: transient kill node " << v
                  << " (rejoins in " << ev.downtime << "s)";
      ++counts_.transients;
      kill_one(v);
      schedule_rejoin(v, ev.downtime);
      return;
    }
    case FaultMode::kDisk: {
      std::vector<NodeId> candidates;
      for (NodeId n = 0; n < cluster_.size(); ++n) {
        if (cluster_.storage_alive(n) && cluster_.is_storage_node(n))
          candidates.push_back(n);
      }
      const NodeId v = pick_victim(ev, candidates);
      if (v == kInvalidNode) break;
      RCMP_INFO() << "t=" << now << " chaos: disk failure on node " << v;
      ++counts_.disk_failures;
      cluster_.fail_disk(v);
      return;
    }
    case FaultMode::kCompute: {
      std::vector<NodeId> candidates;
      for (NodeId n = 0; n < cluster_.size(); ++n) {
        if (cluster_.compute_alive(n) && cluster_.is_compute_node(n))
          candidates.push_back(n);
      }
      const NodeId v = pick_victim(ev, candidates);
      if (v == kInvalidNode) break;
      RCMP_INFO() << "t=" << now << " chaos: compute failure on node " << v;
      ++counts_.compute_failures;
      cluster_.fail_compute(v);
      return;
    }
    case FaultMode::kRack: {
      std::uint32_t rack = ev.rack;
      if (rack == kAnyRack) {
        const NodeId anchor = pick_victim(FaultEvent{}, cluster_.alive_nodes());
        if (anchor == kInvalidNode) break;
        rack = cluster_.rack_of(anchor);
      }
      std::uint32_t downed = 0;
      for (NodeId n : cluster_.nodes_in_rack(rack)) {
        if (!cluster_.alive(n)) continue;
        ++downed;
        ++counts_.kills;
        kill_one(n);
      }
      if (downed == 0) break;
      RCMP_INFO() << "t=" << now << " chaos: rack " << rack
                  << " outage took down " << downed << " nodes";
      ++counts_.rack_events;
      return;
    }
    case FaultMode::kCorruptPartition: {
      if (corrupt_partition_ && corrupt_partition_(rng_)) {
        RCMP_INFO() << "t=" << now
                    << " chaos: silently corrupted a DFS partition";
        ++counts_.corrupt_partitions;
        return;
      }
      break;
    }
    case FaultMode::kCorruptMapOutput: {
      if (corrupt_map_output_ && corrupt_map_output_(rng_)) {
        RCMP_INFO() << "t=" << now
                    << " chaos: silently corrupted a map output";
        ++counts_.corrupt_map_outputs;
        return;
      }
      break;
    }
    case FaultMode::kNetworkPartition: {
      std::vector<NodeId> candidates;
      for (NodeId n = 0; n < cluster_.size(); ++n) {
        if (cluster_.alive(n) && cluster_.reachable(n))
          candidates.push_back(n);
      }
      const NodeId v = pick_victim(ev, candidates);
      if (v == kInvalidNode) break;
      RCMP_INFO() << "t=" << now << " chaos: network partition of node "
                  << v << " (heals in " << ev.downtime << "s)";
      ++counts_.partitions;
      cluster_.set_partitioned(v, true);
      // A partitioned node cannot reach the master either: its
      // heartbeats go dark for the partition's duration. (The detector
      // also consults reachable() on emission; this keeps the blackout
      // exact even if the heal path changes reachability first.)
      if (detector_ != nullptr) detector_->drop_heartbeats(v, ev.downtime);
      const std::uint64_t epoch = cluster_.failure_epoch(v);
      cluster_.sim().schedule_after(ev.downtime, [this, v, epoch] {
        // A real failure (or recovery) during the blackout supersedes
        // this heal: recover() already clears partitions itself.
        if (cluster_.failure_epoch(v) != epoch) return;
        if (!cluster_.reachable(v)) cluster_.set_partitioned(v, false);
      });
      return;
    }
    case FaultMode::kHeartbeatLoss: {
      if (detector_ == nullptr) break;  // nothing to suppress
      std::vector<NodeId> candidates;
      for (NodeId n = 0; n < cluster_.size(); ++n) {
        if (cluster_.compute_alive(n) && cluster_.is_compute_node(n))
          candidates.push_back(n);
      }
      const NodeId v = pick_victim(ev, candidates);
      if (v == kInvalidNode) break;
      RCMP_INFO() << "t=" << now << " chaos: dropping heartbeats of node "
                  << v << " for " << ev.downtime << "s (node is healthy)";
      ++counts_.heartbeat_losses;
      detector_->drop_heartbeats(v, ev.downtime);
      return;
    }
    case FaultMode::kMasterCrash: {
      // The engine cannot see the coordinator; the scenario layer wires
      // the hook. False means no master had in-flight state to lose
      // (every chain already finished) — a counted no-op.
      if (master_crasher_ && master_crasher_()) {
        RCMP_INFO() << "t=" << now
                    << " chaos: master crash (coordinator state wiped)";
        ++counts_.master_crashes;
        return;
      }
      break;
    }
  }
  ++counts_.noops;
  RCMP_WARN() << "t=" << now << " chaos: " << fault_mode_name(ev.mode)
              << " event had no eligible target; skipping";
}

}  // namespace rcmp::cluster
