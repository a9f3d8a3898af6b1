// Job specification, recomputation directives, engine configuration and
// job results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/hash.hpp"
#include "common/units.hpp"
#include "dfs/namenode.hpp"
#include "mapred/record.hpp"

namespace rcmp::mapred {

/// Static description of one MapReduce job. Input and output files must
/// exist in the NameNode before the run starts (the output file empty or
/// with only its undamaged partitions, for recomputation runs).
struct JobSpec {
  std::string name;
  /// Stable identity of the job within the multi-job computation. All
  /// runs (initial and recomputation) of the same DAG node share it; it
  /// salts the reducer partition function so persisted map outputs stay
  /// compatible across recomputations.
  std::uint32_t logical_id = 0;

  /// Input files. A job may read several upstream outputs (a DAG node
  /// with multiple dependencies): its mappers span the blocks of every
  /// input, and the shuffle merges them into one reducer space.
  std::vector<dfs::FileId> inputs;
  dfs::FileId output = dfs::kInvalidFile;

  /// Convenience for the common single-input case.
  void set_input(dfs::FileId f) { inputs.assign(1, f); }

  /// Initial-granularity reducer count (= output partitions).
  std::uint32_t num_reducers = 1;

  /// Bytes of map output per byte of map input (the 1 in the paper's
  /// input/shuffle/output = 1/1/1 ratio).
  double map_output_ratio = 1.0;
  /// Bytes of reducer output per byte of reducer (shuffle) input.
  double reduce_output_ratio = 1.0;

  dfs::PlacementPolicy output_placement = dfs::PlacementPolicy::kLocalFirst;

  /// Tier for this job's *persisted map outputs* (the RCMP-specific
  /// intermediate data). Memory keeps them in the mapper's process RAM
  /// — shuffled and reused at memory speed, demoted to disk under RAM
  /// pressure, lost with the process on compute failure. Ignored (disk)
  /// when the cluster's RAM tier is disabled. The *job output* tier is
  /// a DFS file property (NameNode::set_file_tier), not a JobSpec one.
  cluster::StorageTier map_output_tier = cluster::StorageTier::kDisk;

  /// Payload-mode UDFs; both null for virtual-size-only jobs.
  const MapUdf* mapper = nullptr;
  const ReduceUdf* reducer = nullptr;

  /// Salt for the initial reducer partition function (stable per logical
  /// job so recomputed mappers route records identically).
  std::uint64_t partition_salt() const {
    return mix64(0xA11CE5A17ULL ^ logical_id);
  }

  /// Salt handed to UDFs for deterministic per-record "randomization"
  /// (e.g. the paper workload's key randomization). Stable per logical
  /// job, so recomputed tasks regenerate identical records.
  std::uint64_t udf_salt() const { return mix64(0xD15EA5EULL ^ logical_id); }
};

/// Tags attached by the middleware when resubmitting a job for
/// recomputation (paper §IV-A: "the middleware tags it with the reducer
/// outputs that need to be recomputed").
struct RecomputeDirective {
  bool active = false;
  /// Output partitions (initial granularity) to regenerate.
  std::vector<std::uint32_t> damaged_partitions;
  /// Reducer splitting ratio; 1 = NO-SPLIT.
  std::uint32_t split_factor = 1;
  /// Salt of the split partition function; must differ between attempts
  /// so tests can demonstrate the Fig. 5 hazard.
  std::uint64_t split_salt = 0;
  /// Reuse persisted map outputs where valid (ablation toggle).
  bool reuse_map_outputs = true;
  /// Apply the Fig. 5 invalidation rule. Disabling it is only for the
  /// demonstration test that shows keys get duplicated/lost otherwise.
  bool enforce_fig5_rule = true;
};

struct EngineConfig {
  /// The oracle's fixed kill-to-detection delay (paper: 30 s). Used only
  /// without a cluster::FailureDetector; with one attached, detection
  /// latency is DetectorConfig::suspicion_timeout (also 30 s by
  /// default), a property of the cluster rather than of one job.
  SimTime detect_timeout = 30.0;
  /// Per-task start-up cost (JVM spawn, task localization).
  SimTime task_startup = 1.0;
  /// Start-up cost when JVM reuse is enabled (paper enables it on DCO).
  SimTime jvm_reuse_startup = 0.15;
  bool jvm_reuse = false;

  /// UDF compute throughput per occupied slot, bytes/s.
  double map_cpu_rate = 400e6;
  double reduce_cpu_rate = 400e6;

  /// Fixed job start-up cost (job setup, task localization, Master
  /// bookkeeping) before any task is scheduled.
  SimTime job_setup_time = 15.0;

  /// Shuffle fetches from one source node to one reducer are coalesced;
  /// a batch is flushed once it accumulates this fraction of the
  /// expected per-(source,reducer) bytes. Lower = more, smaller flows.
  double shuffle_flush_fraction = 0.25;
  /// Per map-output transfer latency. A reducer fetches each mapper's
  /// output as a separate transfer with `shuffle_fetch_parallelism`
  /// parallel copiers (Hadoop's default 5); per-transfer latency beyond
  /// the bytes therefore serializes as n * latency / parallelism,
  /// charged before the reduce phase starts ("tail debt"). The paper's
  /// SLOW SHUFFLE emulation sets this to 10 s; the FAST default models
  /// per-segment fetch overhead (HTTP request + seek on the serving
  /// side, ~80 ms), which is what keeps very fine-grained recomputation
  /// shuffles (a split reducer fetching thousands of tiny segments)
  /// from being unrealistically free.
  SimTime shuffle_tail_latency = 0.08;
  std::uint32_t shuffle_fetch_parallelism = 5;

  /// Recomputation-only knob: when > 0, only this many (alive) nodes
  /// run recomputed mappers. Used by the Fig. 14 experiment to vary the
  /// number of mapper waves during recomputation with a fixed job.
  std::uint32_t recompute_map_node_limit = 0;

  /// Speculative execution of mappers (paper §III-A): a running mapper
  /// whose elapsed time exceeds `speculative_slowness` times the average
  /// completed mapper duration gets a duplicate on another node; the
  /// first copy to finish wins. Duplicates read any available input
  /// replica — which is the (narrow) speculative benefit replication
  /// buys: with one replica, an I/O-bound straggler's duplicate must
  /// still stream from the same slow disk.
  /// Scheduling experiment knob (§III-A "data locality is oftentimes
  /// inconsequential"): ignore replica locations when assigning map
  /// tasks, so reads are (mostly) remote. With a fast network this
  /// should barely matter; with an oversubscribed one it should hurt.
  bool ignore_locality = false;

  bool speculative_execution = false;
  double speculative_slowness = 1.8;
  SimTime speculative_check_interval = 10.0;
  /// Don't speculate before this many mappers completed (baseline).
  std::uint32_t speculative_min_completed = 3;
  /// Extend speculation to reducers (including recompute-split reduce
  /// tasks): a kComputing reducer whose elapsed time exceeds
  /// `speculative_slowness` times the average completed reducer duration
  /// gets a duplicate that re-pulls the fetched bytes and races the
  /// original's compute phase. Requires speculative_execution.
  bool speculative_reducers = false;

  /// Detector-mode task resilience (all no-ops without an attached
  /// cluster::FailureDetector, keeping oracle runs bit-identical):
  /// a task re-queued after a failed attempt may not start again before
  /// an exponential backoff of
  ///   retry_backoff_base * retry_backoff_factor^(attempt-1)
  /// seconds, and a task exceeding `max_task_attempts` attempts
  /// escalates to the middleware (abort + replan) instead of retrying
  /// forever against a persistently bad node. 0 = unlimited attempts.
  std::uint32_t max_task_attempts = 4;
  SimTime retry_backoff_base = 2.0;
  double retry_backoff_factor = 2.0;
  /// Decorrelated jitter on the retry backoff (AWS-style): each delay
  /// blends toward a uniform draw from [base, 3 * deterministic_delay],
  /// breaking the retry synchronization that makes every task stranded
  /// by one failure hammer the scheduler in lockstep. 0 (default) keeps
  /// the pure exponential schedule — no RNG is drawn, so default runs
  /// stay byte-identical; 1 is the fully decorrelated schedule. The
  /// draws come from the JobRun's own seeded stream (deterministic
  /// per seed).
  double retry_backoff_jitter = 0.0;

  /// Payload-mode record footprint used to convert records <-> bytes.
  Bytes record_bytes = 256;

  SimTime startup_cost() const {
    return jvm_reuse ? jvm_reuse_startup : task_startup;
  }
};

/// One prospective reducer-speculation launch, offered through
/// Env::reduce_spec_gate to the policy layer's cost model before any
/// slot is spent. The engine's slowness test has already passed; the
/// gate decides whether racing a duplicate is actually worth the cost.
struct ReduceSpecCandidate {
  std::uint32_t reducer = 0;
  /// How long the original has been in its compute phase.
  SimTime elapsed = 0.0;
  /// Mean duration of reducers completed so far in this job.
  double avg_reduce_time = 0.0;
  /// Shuffle bytes a duplicate re-pulls from the original's local disk.
  double fetched_bytes = 0.0;
  /// Fixed startup the duplicate pays before doing useful work.
  SimTime startup_cost = 0.0;
};

struct TaskTiming {
  bool is_map = true;
  std::uint32_t index = 0;     // task index within its kind
  cluster::NodeId node = cluster::kInvalidNode;
  SimTime start = -1.0;
  SimTime end = -1.0;
  double duration() const { return end - start; }
};

struct JobResult {
  enum class Status {
    kCompleted,
    /// Aborted: some required data has no surviving copy; the
    /// middleware must recompute upstream jobs (or restart).
    kAbortedDataLoss,
    /// Cancelled by the middleware.
    kCancelled,
  };

  Status status = Status::kCancelled;
  std::uint32_t logical_id = 0;
  std::uint32_t ordinal = 0;  // global start index (1-based)
  bool was_recompute = false;

  SimTime start_time = 0.0;
  SimTime end_time = 0.0;
  SimTime map_phase_end = 0.0;
  double duration() const { return end_time - start_time; }

  std::uint32_t mappers_executed = 0;
  std::uint32_t mappers_reused = 0;
  std::uint32_t reducers_executed = 0;
  /// Speculative duplicates launched / that actually won the race.
  std::uint32_t speculative_launched = 0;
  std::uint32_t speculative_won = 0;

  double shuffle_bytes = 0.0;
  double output_bytes = 0.0;

  /// Read-path integrity events. Every read is verified: map inputs
  /// against the block sums recorded at write time, shuffle fetches
  /// against the per-bucket sums captured when the map output was
  /// persisted. Counted here: input blocks whose checksum no longer
  /// matched (each aborts the run with kAbortedDataLoss, so the
  /// middleware replans) and map-output buckets caught corrupt at
  /// shuffle-fetch time (each re-executes the mapper in place).
  std::uint32_t corrupt_blocks_detected = 0;
  std::uint32_t corrupt_map_outputs_detected = 0;

  std::vector<TaskTiming> map_timings;
  std::vector<TaskTiming> reduce_timings;
};

}  // namespace rcmp::mapred
