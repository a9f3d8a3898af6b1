// Chaos engine: multi-mode fault injection driven by typed schedules.
//
// The paper injects exactly one fault (§V-A): a permanent whole-node
// kill 15 s after some job starts. Real clusters behind the paper's own
// Fig. 2 traces also see transient reboots, partial failures (a dead
// TaskTracker with a healthy DataNode, or a swapped disk under a live
// TaskTracker), correlated rack outages, and silent data corruption.
// The ChaosEngine injects a schedule of typed FaultEvents that can be
// authored directly, derived from a FailureTrace (failure_trace.hpp),
// sampled per seed, or built from the paper's FailurePlan by
// kill_schedule() — the paper's kills run on this one engine.
//
// Events trigger on 1-based global job-start ordinals reported by the
// middleware, with a delay after the start. Jobs are numbered by start
// order across the whole run, including recomputation runs (paper:
// "Each job ... that starts running receives as an unique ID the next
// available integer number starting with 1"), so FAIL 7,14 only makes
// sense because recomputation inflates the job count.
//
// Layering: this file lives in the cluster layer and cannot see the DFS
// or the map-output store. Corruption events therefore fire through
// hooks (set_partition_corrupter / set_map_output_corrupter) that the
// scenario layer wires to the actual stores; an event with no hook
// installed is a logged no-op.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/detector.hpp"
#include "cluster/failure_trace.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace rcmp::cluster {

enum class FaultMode : std::uint8_t {
  kKill,              // permanent whole-node kill (the paper's §V-A fault)
  kTransient,         // kill, then rejoin with an empty disk after downtime
  kDisk,              // disk swapped for an empty one; node keeps computing
  kCompute,           // TaskTracker dies; persisted data survives
  kRack,              // correlated kill of every fully-alive node in a rack
  kCorruptPartition,  // silently corrupt a persisted DFS partition
  kCorruptMapOutput,  // silently corrupt a persisted map output bucket
  kNetworkPartition,  // node alive but unreachable for `downtime` seconds
  kHeartbeatLoss,     // node healthy; only its heartbeats are dropped
  kMasterCrash,       // coordinator loses all in-flight state; workers,
                      // DFS and map-output ledgers survive. Requires a
                      // decision journal (core/journal.hpp) to recover.
};

const char* fault_mode_name(FaultMode mode);

inline constexpr std::uint32_t kAnyRack = 0xffffffffu;

/// The paper's injection delay: "We injected failures 15s after the
/// start of some job", and a second failure in the same job 15 s after
/// the first.
inline constexpr SimTime kPaperFaultDelay = 15.0;

struct FaultEvent {
  FaultMode mode = FaultMode::kKill;
  /// 1-based global job-start ordinal that arms this event.
  std::uint32_t at_job_ordinal = 1;
  /// Seconds after the triggering job start.
  SimTime delay = kPaperFaultDelay;
  /// Victim node; kInvalidNode picks a random eligible node at fire time.
  NodeId node = kInvalidNode;
  /// Target rack for kRack; kAnyRack picks the rack of a random alive
  /// node at fire time.
  std::uint32_t rack = kAnyRack;
  /// Rejoin delay for kTransient.
  SimTime downtime = 60.0;
};

struct FaultSchedule {
  std::vector<FaultEvent> events;
};

/// The paper's failure plan (§V-A): permanent kills of a randomly chosen
/// node at global job ordinals.
struct FailurePlan {
  /// Global job ordinals (1-based, in start order) at which to inject a
  /// failure. Repeating an ordinal injects two failures in that job, the
  /// second 15 s after the first (paper's FAIL 2,2 / 7,7 cases).
  std::vector<std::uint32_t> at_job_ordinals;
};

/// The plan as a schedule of random-victim kKill events, in plan order:
/// the i-th repeat of an ordinal fires kPaperFaultDelay * (i + 1) after
/// that job starts. Throws ConfigError for an ordinal 0 (checked first)
/// or for more kills than the cluster's `nodes`.
FaultSchedule kill_schedule(const FailurePlan& plan, std::uint32_t nodes);

/// Knobs for compressing a multi-year FailureTrace into a chain-scale
/// chaos campaign: the i-th failure day maps to job ordinal
/// first_ordinal + i * ordinal_stride, ordinary failures draw a mode
/// from the transient/disk/compute/kill mix, and outage days at or above
/// burst_threshold become correlated rack events.
struct TraceScheduleOptions {
  std::uint32_t max_events = 8;
  std::uint32_t first_ordinal = 2;
  std::uint32_t ordinal_stride = 1;
  std::uint32_t burst_threshold = 5;
  double p_transient = 0.5;
  double p_disk = 0.2;
  double p_compute = 0.1;  // remainder: permanent kill
  SimTime downtime = 90.0;
};

FaultSchedule schedule_from_trace(const FailureTrace& trace,
                                  const TraceScheduleOptions& opt,
                                  std::uint64_t seed);

/// Knobs for sampling a schedule directly (mode probabilities must sum
/// to <= 1; the remainder goes to kCorruptMapOutput).
struct RandomScheduleOptions {
  std::uint32_t events = 4;
  std::uint32_t min_ordinal = 2;
  std::uint32_t max_ordinal = 6;
  double p_kill = 0.20;
  double p_transient = 0.25;
  double p_disk = 0.15;
  double p_compute = 0.15;
  double p_rack = 0.05;
  double p_corrupt_partition = 0.10;
  /// Detector-era faults, 0 by default so pre-detector campaigns draw
  /// identical schedules per seed (the sampler subtracts cumulatively).
  double p_network_partition = 0.0;
  double p_heartbeat_loss = 0.0;
  SimTime downtime = 90.0;
};

FaultSchedule random_schedule(const RandomScheduleOptions& opt,
                              std::uint64_t seed);

/// Reject schedules that cannot run as configured. Today's single rule:
/// kMasterCrash events require journaling (a crashed coordinator with no
/// write-ahead journal can never recover, so the run would wedge or
/// silently no-op). Throws ConfigError naming the enabling flag.
void validate_fault_schedule(const FaultSchedule& schedule,
                             bool journaling_enabled);

class ChaosEngine {
 public:
  ChaosEngine(Cluster& cluster, FaultSchedule schedule, std::uint64_t seed);

  /// A corruption hook flips data somewhere in the backing store it
  /// represents and returns whether it found anything to corrupt. It
  /// must draw any randomness from the passed Rng so campaigns stay
  /// deterministic per seed.
  using CorruptionHook = std::function<bool(Rng&)>;
  void set_partition_corrupter(CorruptionHook h) {
    corrupt_partition_ = std::move(h);
  }
  void set_map_output_corrupter(CorruptionHook h) {
    corrupt_map_output_ = std::move(h);
  }

  /// Attach the failure detector so kHeartbeatLoss can suppress
  /// heartbeats and kNetworkPartition also silences the victim's
  /// heartbeat delivery (a partitioned node cannot reach the master).
  /// Without a detector both modes degrade: kNetworkPartition still
  /// flips reachability; kHeartbeatLoss becomes a counted no-op.
  void set_detector(FailureDetector* detector) { detector_ = detector; }

  /// kMasterCrash fires through this hook: the scenario layer wires it
  /// to the coordinator's crash-and-recover orchestration (the chaos
  /// engine cannot see the middleware). The hook returns whether a
  /// master actually crashed — false (or no hook) counts a no-op, e.g.
  /// when every chain already finished.
  using MasterCrashHook = std::function<bool()>;
  void set_master_crasher(MasterCrashHook h) {
    master_crasher_ = std::move(h);
  }

  /// Middleware reports every job start; ordinal is the job's 1-based
  /// global start index. Arms every not-yet-fired event at that ordinal.
  void notify_job_start(std::uint32_t ordinal);

  struct Counts {
    std::uint32_t kills = 0;             // permanent kills (incl. rack)
    std::uint32_t transients = 0;        // transient kills injected
    std::uint32_t recoveries = 0;        // transient rejoins completed
    std::uint32_t disk_failures = 0;
    std::uint32_t compute_failures = 0;
    std::uint32_t rack_events = 0;
    std::uint32_t corrupt_partitions = 0;
    std::uint32_t corrupt_map_outputs = 0;
    std::uint32_t partitions = 0;        // network partitions injected
    std::uint32_t heartbeat_losses = 0;  // heartbeat-suppression windows
    std::uint32_t master_crashes = 0;    // coordinator crashes injected
    std::uint32_t noops = 0;  // events with no eligible victim/target
    std::uint32_t injected() const {
      return kills + transients + disk_failures + compute_failures +
             corrupt_partitions + corrupt_map_outputs + partitions +
             heartbeat_losses + master_crashes;
    }
  };
  const Counts& counts() const { return counts_; }
  /// Faults injected so far (counts().injected()).
  std::uint32_t injected() const { return counts_.injected(); }
  const std::vector<NodeId>& killed_nodes() const { return killed_; }

 private:
  void fire(const FaultEvent& ev);
  /// Random element of `candidates`, honoring an explicit ev.node.
  NodeId pick_victim(const FaultEvent& ev,
                     const std::vector<NodeId>& candidates);
  void kill_one(NodeId victim);
  void schedule_rejoin(NodeId victim, SimTime downtime);

  Cluster& cluster_;
  FaultSchedule schedule_;
  FailureDetector* detector_ = nullptr;
  Rng rng_;
  std::vector<bool> fired_;
  CorruptionHook corrupt_partition_;
  CorruptionHook corrupt_map_output_;
  MasterCrashHook master_crasher_;
  Counts counts_;
  std::vector<NodeId> killed_;
};

}  // namespace rcmp::cluster
