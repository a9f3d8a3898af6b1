// The MapReduce job execution engine.
//
// A JobRun executes one job (initial run or recomputation run) on the
// simulated cluster, end to end: map scheduling with locality, map
// input reads, UDF compute, local map-output writes, the shuffle (with
// map-phase overlap for early reducer waves), reduce compute, and the
// replicated DFS output write. Failures freeze work immediately (the
// physical effect) but are acted upon only after the Master's detection
// timeout (the knowledge effect), matching the paper's 15 s inject /
// 30 s detect methodology.
//
// Recomputation runs honor a RecomputeDirective: only damaged output
// partitions are regenerated, persisted map outputs are reused when the
// reuse rules allow, and reducers may be hash-split into finer tasks
// (the paper's core contribution, §IV-B).
//
// Ownership: the middleware (src/core) constructs one JobRun per
// submission and keeps it alive until the simulation ends; JobRun
// callbacks are epoch-guarded so cancelled work can never resurrect.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/detector.hpp"
#include "common/bit_rows.hpp"
#include "common/rng.hpp"
#include "dfs/namenode.hpp"
#include "mapred/job.hpp"
#include "mapred/map_output_store.hpp"
#include "mapred/payload_store.hpp"
#include "mapred/slot_broker.hpp"
#include "obs/obs.hpp"
#include "resources/flow_network.hpp"
#include "sim/simulation.hpp"

namespace rcmp::mapred {

/// The substrate a job runs on. All references must outlive the JobRun.
struct Env {
  sim::Simulation& sim;
  res::FlowNetwork& net;
  cluster::Cluster& cluster;
  dfs::NameNode& dfs;
  MapOutputStore& map_outputs;
  PayloadStore& payloads;
  /// The chain's seat at the cluster's slot arbiter
  /// (core::ChainScheduler::broker): every slot the job runs in is
  /// acquired from and released to it.
  SlotBroker& slots;
  /// Optional observability sink (tracer + metrics + audit hooks);
  /// nullptr disables all emission at the cost of one pointer compare
  /// per site.
  obs::Observability* obs = nullptr;
  /// Chain tag stamped into trace events (the scheduler's tag rule:
  /// 0 while it serves one chain, the 1-based chain id otherwise).
  std::uint16_t chain_tag = 0;
  /// Optional heartbeat failure detector. nullptr (the default) keeps
  /// the oracle detection model: the engine trusts storage_alive() alone
  /// and never consults suspicion, quarantine, or retry backoff. (Slots
  /// on suspected or quarantined nodes are denied by the slot broker,
  /// which holds the same detector.) Must stay after the positional
  /// members so existing aggregate initializers stay valid.
  cluster::FailureDetector* detector = nullptr;
  /// Policy seams, installed by core::Middleware (mapred cannot depend
  /// on core). Unset functions keep the exact pre-policy behavior.
  ///
  /// Consulted per prospective reducer-speculation launch after the
  /// slowness test passes; returning false vetoes the duplicate.
  std::function<bool(const ReduceSpecCandidate&)> reduce_spec_gate = {};
  /// Consulted per task-attempt charge for the effective attempt budget
  /// (0 = unlimited); unset uses EngineConfig::max_task_attempts.
  std::function<std::uint32_t(std::uint32_t attempts)> retry_budget = {};
};

class JobRun {
 public:
  /// Invoked exactly once, when the run completes or aborts (never for
  /// cancelled runs).
  using DoneCallback = std::function<void(JobRun&)>;

  JobRun(Env env, JobSpec spec, RecomputeDirective directive,
         EngineConfig cfg, std::uint32_t ordinal, std::uint64_t seed,
         DoneCallback on_done);

  JobRun(const JobRun&) = delete;
  JobRun& operator=(const JobRun&) = delete;

  /// Begin execution at the current simulated time.
  void start();

  /// Shared-cluster nudge: capacity freed elsewhere (another chain
  /// released a slot, a node rejoined) — try to place pending tasks.
  /// The placement pass runs only when it could change something: a
  /// kind with pending tasks is open, or (detector mode) a backoff scan
  /// is not known to be a no-op. Otherwise the poke only publishes
  /// demand, as the skipped pass would have ended. Returns whether the
  /// pass ran.
  bool poke(OpenSlots open);

  /// A retry poke is armed: a re-queued task waits behind a backoff
  /// gate that was closed at the last placement pass (detector mode).
  bool retry_armed() const { return retry_ev_ != sim::kInvalidEvent; }

  /// Middleware notification: a node just died (physical effect). Stops
  /// all work touching the node but defers decisions to detection.
  void on_node_killed(cluster::NodeId n);

  /// Compute-only failure: tasks on `n` freeze, but its DataNode keeps
  /// serving persisted data — fetches from it continue, its map outputs
  /// stay reusable, and writes targeting it proceed.
  void on_compute_failed(cluster::NodeId n);

  /// Disk-only failure: everything persisted on `n` is gone (fetches
  /// sourced there stop, writes targeting it stall until detection), but
  /// tasks on `n` keep running and its slots stay usable.
  void on_disk_failed(cluster::NodeId n);

  /// A previously failed node rejoined with an empty disk: its slot
  /// complement becomes available to subsequent waves immediately.
  void on_node_recovered(cluster::NodeId n);

  enum class FailureOutcome { kRecovered, kNeedsAbort };
  /// Master detected the failure (kill + detection timeout). Either
  /// recovers via task re-execution (inputs still available: the
  /// replication path) or reports that required data is gone.
  FailureOutcome on_detected_failure(cluster::NodeId n);

  /// Detector mode: the master (possibly falsely) suspects `n` dead.
  /// Freezes its tasks and stops trusting data served from it — all
  /// master-side bookkeeping; the node's physical state is untouched, so
  /// on_node_reconciled() can undo everything.
  void on_suspected(cluster::NodeId n);

  /// Detector mode: a suspected node heartbeated again before its
  /// replacement work committed. Re-admit its slots and persisted map
  /// outputs, cancelling spurious re-executions still in flight.
  void on_node_reconciled(cluster::NodeId n);

  /// Detector mode: node `n` became unreachable (network partition).
  /// In-flight reads/fetches sourced there fail over to surviving
  /// replicas or re-queue with retry backoff; writes are unaffected
  /// (see detector.hpp: the data plane models partitions read-side).
  void on_source_unreachable(cluster::NodeId n);

  /// Detector mode: the partition healed; data on `n` serves again.
  void on_source_reachable(cluster::NodeId n);

  /// Cancel the run: all in-flight work stops, partial output partitions
  /// and this attempt's persisted map outputs are discarded (the paper's
  /// RCMP "discards the partial results computed before the failure").
  void cancel();

  bool running() const { return state_ == RunState::kRunning; }
  bool finished() const { return state_ == RunState::kFinished; }
  const JobResult& result() const { return result_; }
  const JobSpec& spec() const { return spec_; }
  const RecomputeDirective& directive() const { return directive_; }

 private:
  enum class RunState { kCreated, kRunning, kFinished, kCancelled };

  enum class MapState : std::uint8_t {
    kPending,    // waiting for a slot
    kStarting,   // slot held, task start-up delay
    kReading,    // input flow in flight
    kComputing,  // UDF delay
    kWriting,    // local map-output write flow
    kDone,       // output registered in the MapOutputStore
    kReused,     // persisted output from a previous run is used as-is
    kFrozen,     // was running on a node that died; awaiting detection
  };

  struct MapTask {
    dfs::FileId input_file = dfs::kInvalidFile;
    std::uint32_t input_index = 0;  // which of JobSpec::inputs
    std::uint32_t input_partition = 0;
    std::uint32_t block_index = 0;
    std::uint64_t block_id = 0;
    Bytes input_bytes = 0;
    std::uint64_t input_layout_version = 0;

    MapState state = MapState::kPending;
    cluster::NodeId node = cluster::kInvalidNode;
    std::uint32_t epoch = 0;  // bumped on every reset; stale guard
    res::FlowId flow = res::kInvalidFlow;
    sim::EventId ev = sim::kInvalidEvent;

    double out_bytes = 0.0;  // total map-output bytes (set when done)
    SimTime start_time = -1.0;
    SimTime end_time = -1.0;
    bool executed = false;  // ran (at least once) in this attempt

    // Detector-mode resilience state (untouched without a detector).
    std::uint32_t attempts = 0;   // re-queues charged to this task
    SimTime not_before = 0.0;     // retry backoff gate
    cluster::NodeId read_src = cluster::kInvalidNode;  // current input source
    /// The task is being re-executed only because its intact persisted
    /// output sits on a suspected/unreachable node; reconciliation can
    /// cancel the re-execution and readopt the output.
    bool spurious = false;

    /// Validated handle to the registered output (see output_of): the
    /// last non-null MapOutputStore::find() and the store's erasures()
    /// when it was taken.
    const MapOutput* output = nullptr;
    std::uint64_t output_erasures = 0;

    /// Map-output identity: the partition coordinate encodes which
    /// input file the block belongs to (multi-input DAG jobs).
    MapOutputKey key(std::uint32_t logical_job) const {
      return MapOutputKey{logical_job,
                          (input_index << 16) | input_partition,
                          block_index};
    }
  };

  enum class ContribState : std::uint8_t {
    kWaiting,   // mapper output not (or no longer) available
    kReady,     // available, buffered for a coalesced fetch
    kInflight,  // fetch flow running
    kFetched,   // bytes are on the reducer's node
  };

  enum class ReduceState : std::uint8_t {
    kUnassigned,  // waiting for a reduce slot
    kStarting,    // slot held, start-up delay
    kFetching,    // shuffle in progress
    kComputing,   // sort/merge + reduce UDF delay
    kWriting,     // DFS output pipeline
    kDone,
    kFrozen,  // node died; awaiting detection
  };

  struct ReduceTask {
    std::uint32_t partition = 0;     // initial-granularity output partition
    std::uint32_t split_index = 0;   // 0 when split_factor == 1
    ReduceState state = ReduceState::kUnassigned;
    cluster::NodeId node = cluster::kInvalidNode;
    std::uint32_t epoch = 0;
    sim::EventId ev = sim::kInvalidEvent;

    std::vector<ContribState> contrib;  // one per map task
    std::uint32_t unfetched = 0;
    double fetched_bytes = 0.0;
    /// Serialized per-transfer latency owed before the reduce phase
    /// (n_transfers * shuffle_tail_latency / fetch_parallelism).
    SimTime tail_debt = 0.0;
    // Ready-buffer per source node: bytes and mapper indices awaiting a
    // coalesced fetch flow. Sized once per job (build_reduce_tasks); a
    // fetch copies a buffer out, so every buffer keeps its capacity.
    std::vector<double> ready_bytes;                 // [node]
    std::vector<std::vector<std::uint32_t>> ready;   // [node] -> mappers

    std::vector<Record> gathered;  // payload mode
    double out_bytes = 0.0;
    std::vector<dfs::NameNode::PlannedBlock> planned;
    std::uint32_t next_block = 0;
    std::vector<res::FlowId> write_flows;
    std::uint32_t outstanding_writes = 0;
    bool write_blocked = false;  // a replica target died mid-write
    std::vector<Record> out_records;

    SimTime start_time = -1.0;
    SimTime end_time = -1.0;

    // Detector-mode resilience state (untouched without a detector).
    std::uint32_t attempts = 0;  // re-queues charged to this task
    SimTime not_before = 0.0;    // retry backoff gate
  };

  /// A speculative duplicate of a running map task. The duplicate races
  /// the original; whichever finishes first completes the task and the
  /// loser is cancelled.
  struct Duplicate {
    std::uint64_t token = 0;  // stale-callback guard
    cluster::NodeId node = cluster::kInvalidNode;
    MapState state = MapState::kStarting;
    res::FlowId flow = res::kInvalidFlow;
    sim::EventId ev = sim::kInvalidEvent;
    double out_bytes = 0.0;
    std::vector<std::vector<Record>> staged_buckets;  // payload mode
  };

  /// A speculative duplicate of a reducer stuck in its compute phase.
  /// The duplicate re-pulls the already-fetched bytes from the
  /// original's node and redoes the compute; first to finish wins.
  struct ReduceDuplicate {
    std::uint64_t token = 0;  // stale-callback guard
    cluster::NodeId node = cluster::kInvalidNode;
    res::FlowId flow = res::kInvalidFlow;
    sim::EventId ev = sim::kInvalidEvent;
  };

  /// One coalesced fetch in flight, in a slot of the fetch slab. Its
  /// token is (gen << 32) | slot; freeing the slot bumps gen, so a
  /// cancelled fetch's token never matches again. The lists keep their
  /// capacity across reuses of the slot.
  struct FetchFlow {
    std::uint32_t reducer = 0;
    std::uint32_t reducer_epoch = 0;
    cluster::NodeId src = cluster::kInvalidNode;
    std::uint32_t gen = 0;
    std::uint32_t next_free = 0;  // free-list link while !active
    bool active = false;
    std::vector<std::uint32_t> mappers;
    /// Per-mapper share of `bytes`, parallel to `mappers` — needed when
    /// one mapper of a coalesced fetch is invalidated mid-flight.
    std::vector<double> mapper_bytes;
    double bytes = 0.0;
    res::FlowId flow = res::kInvalidFlow;
  };

  // --- setup ---------------------------------------------------------
  void bootstrap();  // runs after job_setup_time
  void build_map_tasks();
  void build_reduce_tasks();
  bool map_output_reusable(std::uint32_t m);

  // --- scheduling ----------------------------------------------------
  void schedule_tasks();
  /// Would a pass's backoff scans leave both pending lists as they are?
  bool backoff_scans_idle() const;
  void schedule_maps();
  void schedule_reduces();
  void assign_map(std::uint32_t m, cluster::NodeId n);
  void assign_reduce(std::uint32_t r, cluster::NodeId n);
  /// The first node, round-robin from rr_cursor_, other than `exclude`
  /// with a `k` slot this job may take now; advances the cursor past
  /// it. kInvalidNode when there is none.
  cluster::NodeId round_robin_slot(
      SlotKind k, cluster::NodeId exclude = cluster::kInvalidNode);

  // --- pending maps and their locality index ---------------------------
  /// Set (present) or clear pending position `pos`, holding map `m`, in
  /// the index rows of m's replica nodes; no-op while the index is not
  /// built.
  void index_pending(std::size_t pos, std::uint32_t m, bool present);
  /// Build the index over pending_maps_ unless it is built against the
  /// DFS's current replica lists.
  void sync_locality_index();
  void append_pending(std::uint32_t m);
  /// Swap-remove: the last pending map moves into `pos`.
  void remove_pending(std::size_t pos);

  // --- map task state machine ----------------------------------------
  cluster::NodeId pick_read_source(
      const std::vector<cluster::NodeId>& locs, cluster::NodeId reader);
  /// alive_locations() filtered by source_serving() — replicas the
  /// master would actually read from right now — into `out`.
  void serving_locations(std::uint64_t block_id,
                         std::vector<cluster::NodeId>* out) const;
  void map_startup_done(std::uint32_t m, std::uint32_t epoch);
  /// Dispatch (or re-dispatch after a source failover) the input read of
  /// a map task holding a slot. Freezes on total loss; re-queues with
  /// backoff when replicas exist but none currently serves.
  void start_map_read(std::uint32_t m);
  void map_read_done(std::uint32_t m, std::uint32_t epoch);
  void map_compute_done(std::uint32_t m, std::uint32_t epoch);
  void map_write_done(std::uint32_t m, std::uint32_t epoch);
  void complete_map_task(std::uint32_t m);
  void register_map_output(std::uint32_t m);
  /// Effective tier for this job's persisted map outputs: the spec's
  /// request, degraded to disk when the cluster has no RAM tier.
  cluster::StorageTier map_output_tier() const;
  void on_mapper_available(std::uint32_t m);  // done or reused
  void reset_map_task(std::uint32_t m);

  // --- speculative execution ------------------------------------------
  void schedule_speculation_check();
  void speculation_check();
  void launch_duplicate(std::uint32_t m, cluster::NodeId node);
  void dup_startup_done(std::uint32_t m, std::uint64_t token);
  void dup_read_done(std::uint32_t m, std::uint64_t token);
  void dup_compute_done(std::uint32_t m, std::uint64_t token);
  void dup_write_done(std::uint32_t m, std::uint64_t token);
  /// Cancel and discard a task's duplicate (if any), freeing its slot.
  void cancel_duplicate(std::uint32_t m);
  Duplicate* find_dup(std::uint32_t m, std::uint64_t token);

  // --- reducer speculation (EngineConfig::speculative_reducers) --------
  void speculate_reducers();
  void launch_reduce_duplicate(std::uint32_t r, cluster::NodeId node);
  void rdup_startup_done(std::uint32_t r, std::uint64_t token);
  void rdup_pull_done(std::uint32_t r, std::uint64_t token);
  void rdup_compute_done(std::uint32_t r, std::uint64_t token);
  void cancel_reduce_duplicate(std::uint32_t r);
  ReduceDuplicate* find_rdup(std::uint32_t r, std::uint64_t token);

  // --- shuffle ---------------------------------------------------------
  /// Mapper `m`'s registered output, nullptr if none. Served from the
  /// task's handle; the store is searched again only after an erase
  /// (or while nothing was found), so a dropped output is never read.
  const MapOutput* output_of(std::uint32_t m);
  /// Mapper `m`'s output if a reducer could fetch it now; nullptr when
  /// it is missing, lost or not served (its contributions stay
  /// waiting).
  const MapOutput* serving_output(std::uint32_t m);
  /// Buffer `m`'s contribution to `rt` at its (serving) output's node.
  void mark_contrib_ready(ReduceTask& rt, std::uint32_t m,
                          const MapOutput& out);
  /// A reduce task's share of `out` for initial partition `partition`:
  /// the bucket's records times record_bytes for an output registered
  /// with buckets (payload mode), total_bytes / num_reducers otherwise,
  /// divided among the partition's splits.
  double contrib_bytes(const MapOutput& out, std::uint32_t partition) const;
  double contrib_bytes(std::uint32_t r, std::uint32_t m);
  /// Start one coalesced fetch of `r`'s buffer at `src`: any non-empty
  /// buffer when forced, otherwise only one at the flush threshold.
  void flush_source(std::uint32_t r, cluster::NodeId src, bool force);
  /// Forced flush of every source of `r`, in ascending node order.
  void flush_ready(std::uint32_t r);
  void flush_all_ready();
  void fetch_done(std::uint64_t token);
  void cancel_fetches_of_reducer(std::uint32_t r);
  /// A free fetch-slab slot, marked active.
  std::uint32_t acquire_fetch();
  /// Return `slot` to the free list; its token stops matching.
  void release_fetch(std::uint32_t slot);
  /// Free the per-task shuffle state (contributions, ready buffers,
  /// gathered records) and the fetch slab. The middleware keeps every
  /// run until its chain ends, so a stopped run gives these back.
  void release_shuffle_state();

  // --- reduce task state machine --------------------------------------
  void reduce_startup_done(std::uint32_t r, std::uint32_t epoch);
  void maybe_start_reduce_compute(std::uint32_t r);
  void reduce_compute_done(std::uint32_t r, std::uint32_t epoch);
  /// Post-compute tail shared by the original and a winning duplicate:
  /// sort/merge + reduce UDF (payload mode), output sizing, DFS write.
  void finish_reduce_compute(std::uint32_t r);
  void start_reduce_write(std::uint32_t r);
  void write_next_block(std::uint32_t r, std::uint32_t epoch);
  void block_write_done(std::uint32_t r, std::uint32_t epoch);
  void reduce_done(std::uint32_t r);
  void reset_reduce_task(std::uint32_t r);

  // --- read-path integrity ---------------------------------------------
  /// Checksum check of a map task's input block (payload recompute or
  /// the DFS corruption marker in virtual mode).
  bool map_input_corrupt(std::uint32_t m) const;
  /// A reader caught silent corruption in a DFS partition: scrub the
  /// partition from ground truth and abort so the middleware replans a
  /// recomputation cascade for it — a late data-loss event.
  void handle_corrupt_input(std::uint32_t m);
  /// A reducer caught silent corruption in a mapper's bucket: quarantine
  /// the output and re-execute the mapper within this job.
  void handle_corrupt_map_output(std::uint32_t m);
  /// Return every still-buffered (kReady) contribution of mapper `m` to
  /// kWaiting, unwinding the ready-buffer accounting.
  void scrub_ready_contribs(std::uint32_t m);

  // --- detector-mode resilience ----------------------------------------
  /// Would the master read persisted data from `n` right now? Storage
  /// alive AND reachable AND not suspected. Quarantine deliberately does
  /// not affect serving (blacklisted nodes keep their data useful).
  bool source_serving(cluster::NodeId n) const;
  /// Cancel fetch flows sourced at `n` and rewind its buffered
  /// contributions (the fetch part of a disk loss, without the ledger
  /// effects) — used by suspicion and unreachability.
  void halt_fetches_from(cluster::NodeId n);
  /// Charge one attempt and compute the retry backoff gate. Returns
  /// false when the attempt budget is exhausted (caller escalates).
  /// No-op (always true) without a detector.
  bool charge_attempt(std::uint32_t& attempts, SimTime& not_before);
  /// Charge a failed task attempt against `n`'s quarantine statistics.
  void blame_node(cluster::NodeId n);
  /// One pending wake-up for backoff-deferred tasks; keeps only the
  /// earliest deadline armed.
  void arm_retry_poke(SimTime when);

  // --- lifecycle -------------------------------------------------------
  void on_map_phase_maybe_done();
  void maybe_finish();
  void finish(JobResult::Status status);
  /// Cancel-style teardown + partial-result discard, then finish with
  /// kAbortedDataLoss so the middleware replans from ground truth.
  void abort_data_loss();
  void teardown_all_work();
  void discard_partial_results();
  void cancel_task_work(MapTask& t);
  void cancel_task_work(ReduceTask& t);
  void run_map_udf(std::uint32_t m, MapOutput& out) const;

  bool payload_mode() const;

  // --- slot accounting (through the broker) ----------------------------
  bool map_slot_free(cluster::NodeId n) const;
  bool reduce_slot_free(cluster::NodeId n) const;
  /// Return a slot; dropped when the node's compute is down (the broker
  /// forfeited it when the failure landed).
  void put_map_slot(cluster::NodeId n);
  void put_reduce_slot(cluster::NodeId n);
  /// Publish unmet demand to the broker.
  void publish_demand();

  Env env_;
  JobSpec spec_;
  RecomputeDirective directive_;
  EngineConfig cfg_;
  std::uint32_t ordinal_;
  Rng rng_;
  DoneCallback on_done_;

  RunState state_ = RunState::kCreated;
  JobResult result_;

  std::vector<MapTask> maps_;
  std::vector<ReduceTask> reduces_;
  std::vector<std::uint32_t> pending_maps_;
  std::vector<std::uint32_t> pending_reduces_;
  /// What a placement pass's backoff scan left in a pending list: set
  /// at the end of schedule_maps / schedule_reduces, cleared by every
  /// edit of the list. While it holds, the list's gated tasks are its
  /// suffix and none of their gates has opened, so another scan would
  /// rebuild the same list and arm no earlier retry poke.
  struct ScanRecord {
    bool valid = false;
    SimTime earliest_gate = 0.0;  // of the gated suffix; max if none
    bool holds(SimTime now) const { return valid && earliest_gate > now; }
  };
  ScanRecord map_scan_;
  ScanRecord reduce_scan_;
  /// Locality index: row n holds the pending_maps_ positions whose
  /// block has a replica on node n. Edits of pending_maps_ keep it in
  /// step; an order-preserving erase releases it, and it is rebuilt at
  /// the next locality pass (as it is when the DFS replica lists moved).
  /// Released once nothing is pending: finished runs are kept until the
  /// chain ends.
  BitRows local_pending_;
  std::uint64_t local_replica_version_ = 0;
  std::uint32_t maps_remaining_ = 0;    // not yet done/reused
  std::uint32_t reduces_remaining_ = 0;

  /// Nodes barred from running recomputed mappers
  /// (EngineConfig::recompute_map_node_limit, the Fig. 14 knob).
  std::vector<std::uint8_t> map_node_banned_;
  std::uint32_t rr_cursor_ = 0;  // round-robin node cursor
  /// A map input read's replica list, kept across reads.
  std::vector<cluster::NodeId> read_locs_;

  /// Fetch slab: in-flight fetches by slot, free slots linked through
  /// FetchFlow::next_free from fetch_free_. Loops over in-flight
  /// fetches visit slots in ascending order.
  std::vector<FetchFlow> fetches_;
  static constexpr std::uint32_t kNoFetch = 0xffffffffu;
  std::uint32_t fetch_free_ = kNoFetch;
  /// fetch_done's scratch, kept so a fetch allocates nothing once it
  /// has grown: the finished fetch's lists (swapped out of its slot)
  /// and the packed verification state (payload mode), one entry per
  /// segment.
  std::vector<std::uint32_t> fetch_mappers_;
  std::vector<double> fetch_mapper_bytes_;
  std::vector<const MapOutput*> fetch_outs_;
  std::vector<MapOutputStore::PendingBucket> fetch_pending_;
  std::vector<BucketState> fetch_verdicts_;
  double flush_threshold_ = 0.0;
  bool payload_mode_ = false;
  /// Payload mode: UDF outputs staged between map compute and the end of
  /// the map-output write flow.
  std::unordered_map<std::uint32_t, std::vector<std::vector<Record>>>
      staged_buckets_;

  std::vector<MapOutputKey> outputs_registered_;     // this attempt
  std::vector<std::uint32_t> partitions_committed_;  // this attempt
  sim::EventId bootstrap_ev_ = sim::kInvalidEvent;

  std::unordered_map<std::uint32_t, Duplicate> duplicates_;  // by task
  std::uint64_t next_dup_token_ = 1;
  sim::EventId speculation_ev_ = sim::kInvalidEvent;
  double completed_map_time_sum_ = 0.0;
  std::uint32_t completed_map_count_ = 0;
  std::unordered_map<std::uint32_t, ReduceDuplicate> reduce_duplicates_;
  double completed_reduce_time_sum_ = 0.0;
  std::uint32_t completed_reduce_count_ = 0;

  // Detector-mode resilience (all dormant without env_.detector).
  sim::EventId retry_ev_ = sim::kInvalidEvent;
  SimTime retry_at_ = 0.0;
  /// Set when a task spent its attempt budget; the enclosing recovery
  /// path escalates (kNeedsAbort / abort_data_loss) instead of tearing
  /// the run down mid-iteration.
  bool exhausted_retry_budget_ = false;
};

}  // namespace rcmp::mapred
