#include "mapred/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"

namespace rcmp::mapred {

namespace {
Bytes round_bytes(double b) {
  return static_cast<Bytes>(std::llround(std::max(0.0, b)));
}
}  // namespace

JobRun::JobRun(Env env, JobSpec spec, RecomputeDirective directive,
               EngineConfig cfg, std::uint32_t ordinal, std::uint64_t seed,
               DoneCallback on_done)
    : env_(env),
      spec_(std::move(spec)),
      directive_(std::move(directive)),
      cfg_(cfg),
      ordinal_(ordinal),
      rng_(seed),
      on_done_(std::move(on_done)) {
  RCMP_CHECK(spec_.num_reducers >= 1);
  RCMP_CHECK(directive_.split_factor >= 1);
}

bool JobRun::payload_mode() const { return payload_mode_; }

// ---------------------------------------------------------------------
// slot accounting (through the broker)
// ---------------------------------------------------------------------

bool JobRun::map_slot_free(cluster::NodeId n) const {
  return map_node_banned_[n] == 0 &&
         env_.slots.may_acquire(n, SlotKind::kMap);
}

bool JobRun::reduce_slot_free(cluster::NodeId n) const {
  return env_.slots.may_acquire(n, SlotKind::kReduce);
}

void JobRun::put_map_slot(cluster::NodeId n) {
  if (env_.cluster.compute_alive(n)) env_.slots.release(n, SlotKind::kMap);
}

void JobRun::put_reduce_slot(cluster::NodeId n) {
  if (env_.cluster.compute_alive(n)) env_.slots.release(n, SlotKind::kReduce);
}

void JobRun::publish_demand() {
  env_.slots.set_demand(SlotKind::kMap, !pending_maps_.empty());
  env_.slots.set_demand(SlotKind::kReduce, !pending_reduces_.empty());
}

// ---------------------------------------------------------------------
// setup
// ---------------------------------------------------------------------

void JobRun::start() {
  RCMP_CHECK(state_ == RunState::kCreated);
  state_ = RunState::kRunning;

  result_.logical_id = spec_.logical_id;
  result_.ordinal = ordinal_;
  result_.was_recompute = directive_.active;
  result_.start_time = env_.sim.now();

  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kJobStart,
                          directive_.active ? 1 : 0, obs::kNoField,
                          spec_.logical_id, ordinal_, 0.0,
                          env_.chain_tag);
  }

  payload_mode_ = false;
  if (spec_.mapper != nullptr && spec_.reducer != nullptr) {
    for (dfs::FileId in : spec_.inputs) {
      payload_mode_ |= env_.payloads.file_has_payload(in);
    }
  }

  if (directive_.active) {
    // Damaged partitions are regenerated from scratch. A NO-SPLIT
    // recomputation deterministically reproduces the original layout,
    // so downstream map outputs stay valid; splitting changes the
    // layout and must invalidate them (Fig. 5 rule).
    const bool preserve = directive_.split_factor == 1;
    for (std::uint32_t p : directive_.damaged_partitions) {
      env_.dfs.clear_partition(spec_.output, p, preserve);
      env_.payloads.clear(spec_.output, p);
    }
  }

  build_map_tasks();
  build_reduce_tasks();

  map_node_banned_.assign(env_.cluster.size(), 0);

  // Coalesced shuffle flush threshold: a fraction of the expected
  // per-(source node, reducer) volume.
  double total_out = 0.0;
  for (const MapTask& t : maps_) {
    total_out += t.state == MapState::kReused
                     ? t.out_bytes
                     : static_cast<double>(t.input_bytes) *
                           spec_.map_output_ratio;
  }
  flush_threshold_ =
      std::max(1.0, total_out * cfg_.shuffle_flush_fraction /
                        std::max(1u, env_.cluster.alive_count()) /
                        std::max<std::size_t>(1, reduces_.size()));

  RCMP_INFO() << "t=" << env_.sim.now() << " job " << spec_.name
              << " (ordinal " << ordinal_ << ") starting: "
              << maps_.size() << " mappers ("
              << (maps_.size() - maps_remaining_) << " reused), "
              << reduces_.size() << " reducers"
              << (directive_.active
                      ? " [recompute, split=" +
                            std::to_string(directive_.split_factor) + "]"
                      : "");

  bootstrap_ev_ = env_.sim.schedule_after(cfg_.job_setup_time,
                                          [this] { bootstrap(); });
}

void JobRun::bootstrap() {
  bootstrap_ev_ = sim::kInvalidEvent;
  if (state_ != RunState::kRunning) return;

  // Fig. 14 experiment knob: restrict which nodes run recomputed
  // mappers (varies the recomputation's mapper wave count).
  if (directive_.active && cfg_.recompute_map_node_limit > 0) {
    std::uint32_t allowed = cfg_.recompute_map_node_limit;
    for (cluster::NodeId n = 0; n < env_.cluster.size(); ++n) {
      if (!env_.cluster.compute_alive(n)) continue;
      if (allowed > 0) {
        --allowed;
      } else {
        map_node_banned_[n] = 1;
      }
    }
  }

  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    if (maps_[m].state == MapState::kReused) on_mapper_available(m);
  }
  schedule_tasks();
  on_map_phase_maybe_done();
  if (cfg_.speculative_execution) schedule_speculation_check();
}

void JobRun::build_map_tasks() {
  RCMP_CHECK_MSG(!spec_.inputs.empty(), "job has no inputs");
  RCMP_CHECK_MSG(spec_.inputs.size() <= 64,
                 "at most 64 input files per job");
  for (std::uint32_t in = 0; in < spec_.inputs.size(); ++in) {
    const dfs::FileId file = spec_.inputs[in];
    const std::uint32_t nparts = env_.dfs.num_partitions(file);
    for (std::uint32_t p = 0; p < nparts; ++p) {
      RCMP_CHECK_MSG(env_.dfs.partition_available(file, p),
                     "job " << spec_.name << ": input partition " << p
                            << " of file " << env_.dfs.file_name(file)
                            << " unavailable at submission");
      const dfs::PartitionInfo& part = env_.dfs.partition(file, p);
      for (std::uint32_t i = 0; i < part.blocks.size(); ++i) {
        MapTask t;
        t.input_file = file;
        t.input_index = in;
        t.input_partition = p;
        t.block_index = i;
        t.block_id = part.blocks[i];
        t.input_bytes = env_.dfs.block(t.block_id).size;
        t.input_layout_version = part.layout_version;

        const auto m = static_cast<std::uint32_t>(maps_.size());
        maps_.push_back(std::move(t));
        if (directive_.active && directive_.reuse_map_outputs &&
            map_output_reusable(m)) {
          MapTask& reused = maps_[m];
          const MapOutput* out = output_of(m);
          reused.state = MapState::kReused;
          reused.node = out->node;
          reused.out_bytes = out->total_bytes;
          if (env_.obs != nullptr) {
            env_.obs->check_reuse(obs::ReuseCheck{
                spec_.logical_id, reused.input_partition,
                reused.block_index, out->input_layout_version,
                reused.input_layout_version, directive_.enforce_fig5_rule});
          }
        } else {
          ++maps_remaining_;
        }
      }
    }
  }
  pending_maps_.clear();
  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    if (maps_[m].state == MapState::kPending) pending_maps_.push_back(m);
  }
  map_scan_ = {};
  RCMP_CHECK_MSG(!maps_.empty(), "job has no input blocks");
}

bool JobRun::map_output_reusable(std::uint32_t m) {
  const MapTask& t = maps_[m];
  if (directive_.enforce_fig5_rule) {
    return env_.map_outputs.usable(t.key(spec_.logical_id),
                                   t.input_layout_version, env_.cluster);
  }
  // Rule disabled (demonstration of the Fig. 5 hazard): accept any
  // surviving output regardless of input-layout compatibility.
  const MapOutput* out = output_of(m);
  return out != nullptr && !out->lost &&
         env_.cluster.storage_alive(out->node);
}

void JobRun::build_reduce_tasks() {
  std::vector<std::uint32_t> parts;
  if (directive_.active) {
    parts = directive_.damaged_partitions;
    std::sort(parts.begin(), parts.end());
    RCMP_CHECK_MSG(!parts.empty(), "recompute job with nothing to do");
  } else {
    parts.resize(spec_.num_reducers);
    for (std::uint32_t p = 0; p < spec_.num_reducers; ++p) parts[p] = p;
  }
  const std::uint32_t split = directive_.active ? directive_.split_factor : 1;
  // Ready buffers are sized once per job, for the contributions one
  // gathers before its threshold flush: the flush threshold (set in
  // start()) is that fraction of a node's expected share of the maps.
  const auto buffered = static_cast<std::size_t>(std::ceil(
                            static_cast<double>(maps_.size()) *
                            cfg_.shuffle_flush_fraction /
                            std::max(1u, env_.cluster.alive_count()))) +
                        1;
  for (std::uint32_t p : parts) {
    for (std::uint32_t s = 0; s < split; ++s) {
      ReduceTask rt;
      rt.partition = p;
      rt.split_index = s;
      rt.contrib.assign(maps_.size(), ContribState::kWaiting);
      rt.unfetched = static_cast<std::uint32_t>(maps_.size());
      rt.ready_bytes.assign(env_.cluster.size(), 0.0);
      rt.ready.assign(env_.cluster.size(), {});
      for (auto& list : rt.ready) list.reserve(buffered);
      reduces_.push_back(std::move(rt));
    }
  }
  reduces_remaining_ = static_cast<std::uint32_t>(reduces_.size());
  pending_reduces_.clear();
  for (std::uint32_t r = 0; r < reduces_.size(); ++r)
    pending_reduces_.push_back(r);
  reduce_scan_ = {};
}

// ---------------------------------------------------------------------
// scheduling
// ---------------------------------------------------------------------

void JobRun::schedule_tasks() {
  if (state_ != RunState::kRunning) return;
  schedule_maps();
  schedule_reduces();
  publish_demand();
}

bool JobRun::poke(OpenSlots open) {
  if (state_ != RunState::kRunning) return false;
  // A pass places a task only on a free slot may_acquire admits, and a
  // closed kind has none: there every slot check says no without
  // counting a denial. What else a pass does is the backoff scan
  // (detector mode), a no-op while both scan records hold, and the
  // locality-index sync, which the next pass redoes from the current
  // state. So with nothing placeable and the scans idle, skipping the
  // pass changes nothing but the demand it would have published.
  const bool placeable = (open.map && !pending_maps_.empty()) ||
                         (open.reduce && !pending_reduces_.empty());
  if (placeable || (env_.detector != nullptr && !backoff_scans_idle())) {
    schedule_tasks();
    return true;
  }
  publish_demand();
  return false;
}

bool JobRun::backoff_scans_idle() const {
  const SimTime now = env_.sim.now();
  return (pending_maps_.empty() || map_scan_.holds(now)) &&
         (pending_reduces_.empty() || reduce_scan_.holds(now));
}

void JobRun::schedule_maps() {
  if (pending_maps_.empty()) return;

  // Detector mode: tasks under a retry-backoff gate sit out this pass;
  // one poke event re-runs scheduling at the earliest gate expiry.
  std::vector<std::uint32_t> deferred;
  SimTime wake = std::numeric_limits<double>::max();
  if (env_.detector != nullptr) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < pending_maps_.size(); ++i) {
      const std::uint32_t m = pending_maps_[i];
      if (maps_[m].not_before > env_.sim.now()) {
        deferred.push_back(m);
        wake = std::min(wake, maps_[m].not_before);
        index_pending(i, m, false);
      } else {
        if (w != i) {
          index_pending(i, m, false);
          index_pending(w, m, true);
        }
        pending_maps_[w++] = m;
      }
    }
    if (!deferred.empty()) {
      pending_maps_.resize(w);
      arm_retry_poke(wake);
    }
  }

  // Locality pass: give every node with free map slots its local blocks
  // first (with even data distribution this keeps initial runs fully
  // data-local, as the paper notes for collocated clusters). Nodes go in
  // ascending order; each takes the lowest pending position whose block
  // has a replica on it, found through the index, until its slot check
  // fails. A swap-remove moves the last pending map into the freed
  // position, so the search resumes there. Nodes with no free map slot
  // are skipped: map_slot_free() would deny them without counting a
  // denial. The slot check is never asked with nothing left to place.
  if (!cfg_.ignore_locality && !pending_maps_.empty()) {
    sync_locality_index();
    for (cluster::NodeId n = env_.slots.next_free(0, SlotKind::kMap);
         n != cluster::kInvalidNode && !pending_maps_.empty();
         n = env_.slots.next_free(n + 1, SlotKind::kMap)) {
      if (!env_.cluster.compute_alive(n)) continue;
      bool slot_free = map_slot_free(n);
      std::uint32_t pos = 0;
      while (slot_free) {
        pos = local_pending_.next(n, pos);
        if (pos == BitRows::kNone) break;
        const std::uint32_t m = pending_maps_[pos];
        const auto& reps = env_.dfs.block(maps_[m].block_id).replicas;
        RCMP_CHECK(std::find(reps.begin(), reps.end(), n) != reps.end());
        assign_map(m, n);
        remove_pending(pos);
        slot_free = pos < pending_maps_.size() && map_slot_free(n);
      }
    }
  }

  // Remote pass: remaining tasks go wherever a slot is free. This is
  // what concentrates readers on a hot node after a NO-SPLIT
  // recomputation: every surviving node pulls its map input from the
  // single node holding the regenerated partition (paper Fig. 6).
  while (!pending_maps_.empty()) {
    const cluster::NodeId target = round_robin_slot(SlotKind::kMap);
    if (target == cluster::kInvalidNode) break;
    const std::uint32_t m = pending_maps_.back();
    remove_pending(pending_maps_.size() - 1);
    assign_map(m, target);
  }

  for (const std::uint32_t m : deferred) append_pending(m);
  if (pending_maps_.empty()) local_pending_.release();
  map_scan_ = {true, wake};
}

void JobRun::schedule_reduces() {
  std::vector<std::uint32_t> deferred;
  SimTime wake = std::numeric_limits<double>::max();
  if (env_.detector != nullptr && !pending_reduces_.empty()) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < pending_reduces_.size(); ++i) {
      const std::uint32_t r = pending_reduces_[i];
      if (reduces_[r].not_before > env_.sim.now()) {
        deferred.push_back(r);
        wake = std::min(wake, reduces_[r].not_before);
      } else {
        pending_reduces_[w++] = r;
      }
    }
    if (!deferred.empty()) {
      pending_reduces_.resize(w);
      arm_retry_poke(wake);
    }
  }

  std::size_t head = 0;
  while (head < pending_reduces_.size()) {
    const cluster::NodeId target = round_robin_slot(SlotKind::kReduce);
    if (target == cluster::kInvalidNode) break;
    assign_reduce(pending_reduces_[head], target);
    ++head;
  }
  pending_reduces_.erase(pending_reduces_.begin(),
                         pending_reduces_.begin() +
                             static_cast<std::ptrdiff_t>(head));
  pending_reduces_.insert(pending_reduces_.end(), deferred.begin(),
                          deferred.end());
  reduce_scan_ = {true, wake};
}

cluster::NodeId JobRun::round_robin_slot(SlotKind k,
                                         cluster::NodeId exclude) {
  // Nodes start..size-1, then 0..start-1, visiting only those with a
  // free slot (the rest would be denied without side effects).
  const cluster::NodeId start = rr_cursor_ % env_.cluster.size();
  const std::pair<cluster::NodeId, cluster::NodeId> laps[] = {
      {start, env_.cluster.size()}, {0, start}};
  for (const auto& [from, end] : laps) {
    for (cluster::NodeId n = env_.slots.next_free(from, k);
         n != cluster::kInvalidNode && n < end;
         n = env_.slots.next_free(n + 1, k)) {
      if (n == exclude || !env_.cluster.compute_alive(n)) continue;
      const bool free = k == SlotKind::kMap ? map_slot_free(n)
                                            : reduce_slot_free(n);
      if (free) {
        rr_cursor_ = n + 1;
        return n;
      }
    }
  }
  return cluster::kInvalidNode;
}

// ---------------------------------------------------------------------
// pending maps and their locality index
// ---------------------------------------------------------------------

void JobRun::index_pending(std::size_t pos, std::uint32_t m, bool present) {
  if (local_pending_.empty()) return;
  const auto p = static_cast<std::uint32_t>(pos);
  for (const cluster::NodeId n :
       env_.dfs.block(maps_[m].block_id).replicas) {
    if (present) {
      local_pending_.set(n, p);
    } else {
      local_pending_.clear(n, p);
    }
  }
}

void JobRun::sync_locality_index() {
  const std::uint64_t version = env_.dfs.replica_version();
  if (!local_pending_.empty() && local_replica_version_ == version) return;
  local_pending_.assign(env_.cluster.size(),
                        static_cast<std::uint32_t>(maps_.size()));
  local_replica_version_ = version;
  for (std::size_t i = 0; i < pending_maps_.size(); ++i) {
    index_pending(i, pending_maps_[i], true);
  }
}

void JobRun::append_pending(std::uint32_t m) {
  // Each map is pending at most once, which keeps every position inside
  // the index rows (maps_.size() bits wide).
  RCMP_CHECK(pending_maps_.size() < maps_.size());
  pending_maps_.push_back(m);
  index_pending(pending_maps_.size() - 1, m, true);
  map_scan_.valid = false;
}

void JobRun::remove_pending(std::size_t pos) {
  const std::size_t last = pending_maps_.size() - 1;
  index_pending(pos, pending_maps_[pos], false);
  if (pos != last) {
    index_pending(last, pending_maps_[last], false);
    pending_maps_[pos] = pending_maps_[last];
    index_pending(pos, pending_maps_[pos], true);
  }
  pending_maps_.pop_back();
  map_scan_.valid = false;
}

void JobRun::assign_map(std::uint32_t m, cluster::NodeId n) {
  MapTask& t = maps_[m];
  RCMP_CHECK(t.state == MapState::kPending);
  env_.slots.acquire(n, SlotKind::kMap);
  t.node = n;
  t.state = MapState::kStarting;
  t.start_time = env_.sim.now();
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kTaskStart,
                          obs::kKindMap, n, spec_.logical_id, m, 0.0,
                          env_.chain_tag);
  }
  const std::uint32_t epoch = t.epoch;
  t.ev = env_.sim.schedule_after(
      cfg_.startup_cost(), [this, m, epoch] { map_startup_done(m, epoch); });
}

void JobRun::assign_reduce(std::uint32_t r, cluster::NodeId n) {
  ReduceTask& rt = reduces_[r];
  RCMP_CHECK(rt.state == ReduceState::kUnassigned);
  env_.slots.acquire(n, SlotKind::kReduce);
  rt.node = n;
  rt.state = ReduceState::kStarting;
  rt.start_time = env_.sim.now();
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kTaskStart,
                          obs::kKindReduce, n, spec_.logical_id, r, 0.0,
                          env_.chain_tag);
  }
  const std::uint32_t epoch = rt.epoch;
  rt.ev = env_.sim.schedule_after(cfg_.startup_cost(), [this, r, epoch] {
    reduce_startup_done(r, epoch);
  });
}

// ---------------------------------------------------------------------
// map task state machine
// ---------------------------------------------------------------------

cluster::NodeId JobRun::pick_read_source(
    const std::vector<cluster::NodeId>& locs, cluster::NodeId reader) {
  RCMP_CHECK(!locs.empty());
  // Local replica is free; otherwise read from the least-loaded source
  // disk (HDFS clients prefer close/idle replicas; this is also what
  // lets replicated inputs dodge a congested or degraded drive).
  if (std::find(locs.begin(), locs.end(), reader) != locs.end()) {
    return reader;
  }
  cluster::NodeId best = locs[0];
  double best_pressure = std::numeric_limits<double>::max();
  for (cluster::NodeId cand : locs) {
    const double pressure =
        env_.net.link_pressure(env_.cluster.disk(cand));
    if (pressure < best_pressure) {
      best_pressure = pressure;
      best = cand;
    }
  }
  return best;
}

void JobRun::map_startup_done(std::uint32_t m, std::uint32_t epoch) {
  MapTask& t = maps_[m];
  if (state_ != RunState::kRunning || t.epoch != epoch) return;
  RCMP_CHECK(t.state == MapState::kStarting);
  t.ev = sim::kInvalidEvent;
  start_map_read(m);
}

void JobRun::start_map_read(std::uint32_t m) {
  MapTask& t = maps_[m];
  if (!env_.dfs.has_live_replica(t.block_id)) {
    // Input replica vanished between assignment and now; the Master has
    // not yet detected the failure. Freeze — the detection handler will
    // report the data loss.
    t.state = MapState::kFrozen;
    t.read_src = cluster::kInvalidNode;
    return;
  }
  if (env_.detector != nullptr) {
    serving_locations(t.block_id, &read_locs_);
  } else {
    env_.dfs.alive_locations(t.block_id, &read_locs_);
  }
  if (read_locs_.empty()) {
    // Replicas survive but none currently serves (suspected or
    // unreachable sources). Give the slot back and retry with backoff:
    // either the partition heals or detection replaces the replica.
    put_map_slot(t.node);
    reset_map_task(m);
    if (exhausted_retry_budget_) {
      exhausted_retry_budget_ = false;
      abort_data_loss();
    }
    return;
  }
  const cluster::NodeId src = pick_read_source(read_locs_, t.node);
  t.read_src = src;
  t.state = MapState::kReading;
  const std::uint32_t epoch = t.epoch;
  res::FlowSpec fs;
  auto path = env_.cluster.path_transfer(src, t.node,
                                         /*read_src=*/true,
                                         /*write_dst=*/false,
                                         env_.dfs.block(t.block_id).tier,
                                         cluster::StorageTier::kDisk);
  fs.path = std::move(path.links);
  fs.weights = std::move(path.weights);
  fs.bytes = t.input_bytes;
  fs.on_complete = [this, m, epoch] { map_read_done(m, epoch); };
  t.flow = env_.net.start_flow(std::move(fs));
}

void JobRun::map_read_done(std::uint32_t m, std::uint32_t epoch) {
  MapTask& t = maps_[m];
  if (state_ != RunState::kRunning || t.epoch != epoch) return;
  RCMP_CHECK(t.state == MapState::kReading);
  t.flow = res::kInvalidFlow;
  if (map_input_corrupt(m)) {
    handle_corrupt_input(m);
    return;
  }
  t.state = MapState::kComputing;
  const SimTime dt = static_cast<double>(t.input_bytes) /
                     cfg_.map_cpu_rate *
                     env_.cluster.cpu_factor(t.node);
  t.ev = env_.sim.schedule_after(
      dt, [this, m, epoch] { map_compute_done(m, epoch); });
}

void JobRun::map_compute_done(std::uint32_t m, std::uint32_t epoch) {
  MapTask& t = maps_[m];
  if (state_ != RunState::kRunning || t.epoch != epoch) return;
  RCMP_CHECK(t.state == MapState::kComputing);
  t.ev = sim::kInvalidEvent;

  if (payload_mode_) {
    MapOutput staged;  // only buckets are used from this staging object
    run_map_udf(m, staged);
    std::uint64_t records = 0;
    for (const auto& b : staged.buckets) records += b.size();
    t.out_bytes =
        static_cast<double>(records) * static_cast<double>(cfg_.record_bytes);
    staged_buckets_[m] = std::move(staged.buckets);
  } else {
    t.out_bytes =
        static_cast<double>(t.input_bytes) * spec_.map_output_ratio;
  }

  t.state = MapState::kWriting;
  res::FlowSpec fs;
  auto path = env_.cluster.path_tier_write(t.node, map_output_tier());
  fs.path = std::move(path.links);
  fs.weights = std::move(path.weights);
  fs.bytes = round_bytes(t.out_bytes);
  fs.on_complete = [this, m, epoch] { map_write_done(m, epoch); };
  t.flow = env_.net.start_flow(std::move(fs));
}

cluster::StorageTier JobRun::map_output_tier() const {
  return (spec_.map_output_tier == cluster::StorageTier::kMemory &&
          env_.cluster.ram_enabled())
             ? cluster::StorageTier::kMemory
             : cluster::StorageTier::kDisk;
}

void JobRun::run_map_udf(std::uint32_t m, MapOutput& out) const {
  const MapTask& t = maps_[m];
  out.buckets.assign(spec_.num_reducers, {});
  Emitter em;
  spec_.mapper->map_all(env_.payloads.block_records(
                            t.input_file, t.input_partition, t.block_index),
                        spec_.udf_salt(), em);
  for (const Record& o : em.records()) {
    const std::uint32_t p =
        partition_of(o.key, spec_.num_reducers, spec_.partition_salt());
    out.buckets[p].push_back(o);
  }
}

void JobRun::map_write_done(std::uint32_t m, std::uint32_t epoch) {
  MapTask& t = maps_[m];
  if (state_ != RunState::kRunning || t.epoch != epoch) return;
  RCMP_CHECK(t.state == MapState::kWriting);
  t.flow = res::kInvalidFlow;
  complete_map_task(m);
}

void JobRun::complete_map_task(std::uint32_t m) {
  MapTask& t = maps_[m];
  cancel_duplicate(m);  // the original won (or the winner adopted t)
  register_map_output(m);
  t.state = MapState::kDone;
  t.end_time = env_.sim.now();
  t.executed = true;
  t.spurious = false;  // a committed replacement supersedes the old copy
  t.read_src = cluster::kInvalidNode;
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(t.end_time, obs::EventType::kTaskFinish,
                          obs::kKindMap, t.node, spec_.logical_id, m,
                          t.end_time - t.start_time, env_.chain_tag);
  }
  completed_map_time_sum_ += t.end_time - t.start_time;
  ++completed_map_count_;
  RCMP_CHECK(maps_remaining_ > 0);
  --maps_remaining_;
  ++result_.mappers_executed;
  put_map_slot(t.node);
  on_mapper_available(m);
  schedule_tasks();
  on_map_phase_maybe_done();
}

void JobRun::register_map_output(std::uint32_t m) {
  MapTask& t = maps_[m];
  MapOutput out;
  out.node = t.node;
  out.input_layout_version = t.input_layout_version;
  out.total_bytes = t.out_bytes;
  if (payload_mode_) {
    auto it = staged_buckets_.find(m);
    RCMP_CHECK(it != staged_buckets_.end());
    out.buckets = std::move(it->second);
    staged_buckets_.erase(it);
  }
  out.tier = map_output_tier();
  const auto key = t.key(spec_.logical_id);
  env_.map_outputs.put(key, std::move(out));
  outputs_registered_.push_back(key);
}

void JobRun::on_mapper_available(std::uint32_t m) {
  // One lookup serves every reducer. An unusable output leaves every
  // contribution waiting; a rerun or the source serving again makes
  // them ready.
  const MapOutput* out = serving_output(m);
  if (out == nullptr) return;
  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    ReduceTask& rt = reduces_[r];
    if (rt.state == ReduceState::kDone) continue;
    if (rt.contrib[m] != ContribState::kWaiting) continue;
    mark_contrib_ready(rt, m, *out);
    // Only out->node's buffer grew. Every other serving source of a
    // fetching reducer is below the threshold already: buffers grow
    // only here (each growth is flushed on the spot) and in
    // reset_reduce_task (the reducer then restarts with a forced
    // flush), and a source that stops serving is cleared by
    // halt_fetches_from. So checking out->node alone starts exactly the
    // flow a scan of every node would.
    if (rt.state == ReduceState::kFetching)
      flush_source(r, out->node, /*force=*/false);
  }
}

void JobRun::reset_map_task(std::uint32_t m) {
  cancel_duplicate(m);
  MapTask& t = maps_[m];
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kTaskReexec,
                          obs::kKindMap, t.node, spec_.logical_id, m, 0.0,
                          env_.chain_tag);
  }
  const bool was_available =
      t.state == MapState::kDone || t.state == MapState::kReused;
  cancel_task_work(t);
  if (was_available) {
    const MapOutput* out = output_of(m);
    const bool intact = out != nullptr && !out->lost &&
                        env_.cluster.storage_alive(out->node);
    if (t.state == MapState::kDone && !intact) {
      // Drop the (lost) registered output so a fresh one replaces it.
      env_.map_outputs.drop(t.key(spec_.logical_id));
    }
    // Detector mode only: an output that is merely *unavailable* (its
    // serving node suspected or unreachable) stays persisted — this
    // re-execution is speculative recovery, and reconciliation readopts
    // the copy if the node turns out to be alive.
    if (intact) t.spurious = true;
  }
  if (was_available) ++maps_remaining_;
  if (!charge_attempt(t.attempts, t.not_before))
    exhausted_retry_budget_ = true;
  ++t.epoch;
  t.state = MapState::kPending;
  t.node = cluster::kInvalidNode;
  t.read_src = cluster::kInvalidNode;
  append_pending(m);
}

// ---------------------------------------------------------------------
// speculative execution
// ---------------------------------------------------------------------

void JobRun::schedule_speculation_check() {
  speculation_ev_ = env_.sim.schedule_after(
      cfg_.speculative_check_interval, [this] { speculation_check(); });
}

void JobRun::speculation_check() {
  speculation_ev_ = sim::kInvalidEvent;
  if (state_ != RunState::kRunning) return;
  schedule_speculation_check();

  if (cfg_.speculative_reducers) speculate_reducers();

  if (completed_map_count_ < cfg_.speculative_min_completed) return;
  const double avg =
      completed_map_time_sum_ / completed_map_count_;
  const double threshold = cfg_.speculative_slowness * avg;

  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    const MapTask& t = maps_[m];
    const bool running = t.state == MapState::kReading ||
                         t.state == MapState::kComputing ||
                         t.state == MapState::kWriting;
    if (!running) continue;
    if (env_.sim.now() - t.start_time <= threshold) continue;
    if (duplicates_.count(m) > 0) continue;

    // Find a free map slot on a different node.
    const cluster::NodeId target = round_robin_slot(SlotKind::kMap, t.node);
    if (target == cluster::kInvalidNode) continue;
    launch_duplicate(m, target);
  }
}

void JobRun::launch_duplicate(std::uint32_t m, cluster::NodeId node) {
  env_.slots.acquire(node, SlotKind::kMap);
  Duplicate dup;
  dup.token = next_dup_token_++;
  dup.node = node;
  dup.state = MapState::kStarting;
  const std::uint64_t token = dup.token;
  dup.ev = env_.sim.schedule_after(
      cfg_.startup_cost(), [this, m, token] { dup_startup_done(m, token); });
  duplicates_[m] = std::move(dup);
  ++result_.speculative_launched;
  RCMP_DEBUG() << "t=" << env_.sim.now() << " speculating mapper " << m
               << " on node " << node;
}

JobRun::Duplicate* JobRun::find_dup(std::uint32_t m, std::uint64_t token) {
  auto it = duplicates_.find(m);
  if (it == duplicates_.end() || it->second.token != token) return nullptr;
  return &it->second;
}

void JobRun::dup_startup_done(std::uint32_t m, std::uint64_t token) {
  Duplicate* dup = find_dup(m, token);
  if (dup == nullptr || state_ != RunState::kRunning) return;
  dup->ev = sim::kInvalidEvent;

  const MapTask& t = maps_[m];
  env_.dfs.alive_locations(t.block_id, &read_locs_);
  if (read_locs_.empty()) {
    cancel_duplicate(m);
    return;
  }
  // Load-aware selection naturally sends the duplicate to a different
  // replica than the straggling original — the benefit extra replicas
  // buy speculation. With one replica the duplicate has no choice but
  // the same (possibly slow) source.
  const cluster::NodeId src = pick_read_source(read_locs_, dup->node);
  dup->state = MapState::kReading;
  res::FlowSpec fs;
  auto path = env_.cluster.path_transfer(src, dup->node,
                                         /*read_src=*/true,
                                         /*write_dst=*/false,
                                         env_.dfs.block(t.block_id).tier,
                                         cluster::StorageTier::kDisk);
  fs.path = std::move(path.links);
  fs.weights = std::move(path.weights);
  fs.bytes = t.input_bytes;
  fs.on_complete = [this, m, token] { dup_read_done(m, token); };
  dup->flow = env_.net.start_flow(std::move(fs));
}

void JobRun::dup_read_done(std::uint32_t m, std::uint64_t token) {
  Duplicate* dup = find_dup(m, token);
  if (dup == nullptr || state_ != RunState::kRunning) return;
  dup->flow = res::kInvalidFlow;
  if (map_input_corrupt(m)) {
    handle_corrupt_input(m);
    return;
  }
  dup->state = MapState::kComputing;
  const SimTime dt = static_cast<double>(maps_[m].input_bytes) /
                     cfg_.map_cpu_rate *
                     env_.cluster.cpu_factor(dup->node);
  dup->ev = env_.sim.schedule_after(
      dt, [this, m, token] { dup_compute_done(m, token); });
}

void JobRun::dup_compute_done(std::uint32_t m, std::uint64_t token) {
  Duplicate* dup = find_dup(m, token);
  if (dup == nullptr || state_ != RunState::kRunning) return;
  dup->ev = sim::kInvalidEvent;

  const MapTask& t = maps_[m];
  if (payload_mode_) {
    MapOutput staged;
    run_map_udf(m, staged);
    std::uint64_t records = 0;
    for (const auto& b : staged.buckets) records += b.size();
    dup->out_bytes = static_cast<double>(records) *
                     static_cast<double>(cfg_.record_bytes);
    dup->staged_buckets = std::move(staged.buckets);
  } else {
    dup->out_bytes =
        static_cast<double>(t.input_bytes) * spec_.map_output_ratio;
  }
  dup->state = MapState::kWriting;
  res::FlowSpec fs;
  auto path = env_.cluster.path_tier_write(dup->node, map_output_tier());
  fs.path = std::move(path.links);
  fs.weights = std::move(path.weights);
  fs.bytes = round_bytes(dup->out_bytes);
  fs.on_complete = [this, m, token] { dup_write_done(m, token); };
  dup->flow = env_.net.start_flow(std::move(fs));
}

void JobRun::dup_write_done(std::uint32_t m, std::uint64_t token) {
  Duplicate* dup = find_dup(m, token);
  if (dup == nullptr || state_ != RunState::kRunning) return;
  dup->flow = res::kInvalidFlow;

  // The duplicate won the race: it becomes the task's execution. Stop
  // the straggling original and adopt the duplicate's node/output.
  MapTask& t = maps_[m];
  RCMP_CHECK(t.state == MapState::kReading ||
             t.state == MapState::kComputing ||
             t.state == MapState::kWriting);
  cancel_task_work(t);
  put_map_slot(t.node);
  t.node = dup->node;
  t.out_bytes = dup->out_bytes;
  if (payload_mode_) {
    staged_buckets_[m] = std::move(dup->staged_buckets);
  }
  ++result_.speculative_won;
  RCMP_DEBUG() << "t=" << env_.sim.now() << " speculative copy of mapper "
               << m << " won on node " << t.node;
  // complete_map_task() erases the duplicate entry (without refunding
  // the slot twice: the task now occupies the duplicate's slot).
  duplicates_.erase(m);
  complete_map_task(m);
}

void JobRun::cancel_duplicate(std::uint32_t m) {
  auto it = duplicates_.find(m);
  if (it == duplicates_.end()) return;
  Duplicate& dup = it->second;
  if (dup.ev != sim::kInvalidEvent) env_.sim.cancel(dup.ev);
  if (dup.flow != res::kInvalidFlow) env_.net.cancel_flow(dup.flow);
  put_map_slot(dup.node);
  duplicates_.erase(it);
}

// Reducer speculation: only the compute phase races (the fetched bytes
// are re-pulled from the original's local disk rather than re-shuffled
// from every mapper, like Hadoop's reduce-side speculation shortcut in
// spirit: the expensive part a straggling reducer repeats is compute).
void JobRun::speculate_reducers() {
  if (completed_reduce_count_ < cfg_.speculative_min_completed) return;
  const double avg = completed_reduce_time_sum_ / completed_reduce_count_;
  const double threshold = cfg_.speculative_slowness * avg;

  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    const ReduceTask& rt = reduces_[r];
    if (rt.state != ReduceState::kComputing) continue;
    if (env_.sim.now() - rt.start_time <= threshold) continue;
    if (reduce_duplicates_.count(r) > 0) continue;
    if (env_.reduce_spec_gate) {
      ReduceSpecCandidate cand;
      cand.reducer = r;
      cand.elapsed = env_.sim.now() - rt.start_time;
      cand.avg_reduce_time = avg;
      cand.fetched_bytes = rt.fetched_bytes;
      cand.startup_cost = cfg_.startup_cost();
      if (!env_.reduce_spec_gate(cand)) continue;
    }

    const cluster::NodeId target =
        round_robin_slot(SlotKind::kReduce, rt.node);
    if (target == cluster::kInvalidNode) continue;
    launch_reduce_duplicate(r, target);
  }
}

void JobRun::launch_reduce_duplicate(std::uint32_t r,
                                     cluster::NodeId node) {
  env_.slots.acquire(node, SlotKind::kReduce);
  ReduceDuplicate dup;
  dup.token = next_dup_token_++;
  dup.node = node;
  const std::uint64_t token = dup.token;
  dup.ev = env_.sim.schedule_after(cfg_.startup_cost(), [this, r, token] {
    rdup_startup_done(r, token);
  });
  reduce_duplicates_[r] = std::move(dup);
  ++result_.speculative_launched;
  RCMP_DEBUG() << "t=" << env_.sim.now() << " speculating reducer " << r
               << " on node " << node;
}

JobRun::ReduceDuplicate* JobRun::find_rdup(std::uint32_t r,
                                           std::uint64_t token) {
  auto it = reduce_duplicates_.find(r);
  if (it == reduce_duplicates_.end() || it->second.token != token)
    return nullptr;
  return &it->second;
}

void JobRun::rdup_startup_done(std::uint32_t r, std::uint64_t token) {
  ReduceDuplicate* dup = find_rdup(r, token);
  if (dup == nullptr || state_ != RunState::kRunning) return;
  dup->ev = sim::kInvalidEvent;
  const ReduceTask& rt = reduces_[r];
  if (rt.state != ReduceState::kComputing) {
    cancel_reduce_duplicate(r);
    return;
  }
  // Re-pull the already-shuffled bytes from the original's staging area
  // (its local disk, or its RAM when the job shuffles in memory).
  res::FlowSpec fs;
  auto path = env_.cluster.path_transfer(rt.node, dup->node,
                                         /*read_src=*/true,
                                         /*write_dst=*/true,
                                         map_output_tier(),
                                         map_output_tier());
  fs.path = std::move(path.links);
  fs.weights = std::move(path.weights);
  fs.bytes = round_bytes(rt.fetched_bytes);
  fs.on_complete = [this, r, token] { rdup_pull_done(r, token); };
  dup->flow = env_.net.start_flow(std::move(fs));
}

void JobRun::rdup_pull_done(std::uint32_t r, std::uint64_t token) {
  ReduceDuplicate* dup = find_rdup(r, token);
  if (dup == nullptr || state_ != RunState::kRunning) return;
  dup->flow = res::kInvalidFlow;
  const ReduceTask& rt = reduces_[r];
  if (rt.state != ReduceState::kComputing) {
    cancel_reduce_duplicate(r);
    return;
  }
  // No tail debt: the per-segment fetch latency was paid once by the
  // original; the duplicate streams one consolidated spill file.
  const SimTime dt = rt.fetched_bytes / cfg_.reduce_cpu_rate *
                     env_.cluster.cpu_factor(dup->node);
  dup->ev = env_.sim.schedule_after(
      dt, [this, r, token] { rdup_compute_done(r, token); });
}

void JobRun::rdup_compute_done(std::uint32_t r, std::uint64_t token) {
  ReduceDuplicate* dup = find_rdup(r, token);
  if (dup == nullptr || state_ != RunState::kRunning) return;
  dup->ev = sim::kInvalidEvent;
  ReduceTask& rt = reduces_[r];
  RCMP_CHECK(rt.state == ReduceState::kComputing);
  // The duplicate finished its compute first: stop the straggling
  // original and write the output from the duplicate's node.
  if (rt.ev != sim::kInvalidEvent) {
    env_.sim.cancel(rt.ev);
    rt.ev = sim::kInvalidEvent;
  }
  put_reduce_slot(rt.node);
  rt.node = dup->node;
  ++result_.speculative_won;
  RCMP_DEBUG() << "t=" << env_.sim.now() << " speculative copy of reducer "
               << r << " won on node " << rt.node;
  // The task now occupies the duplicate's slot; no double refund.
  reduce_duplicates_.erase(r);
  finish_reduce_compute(r);
}

void JobRun::cancel_reduce_duplicate(std::uint32_t r) {
  auto it = reduce_duplicates_.find(r);
  if (it == reduce_duplicates_.end()) return;
  ReduceDuplicate& dup = it->second;
  if (dup.ev != sim::kInvalidEvent) env_.sim.cancel(dup.ev);
  if (dup.flow != res::kInvalidFlow) env_.net.cancel_flow(dup.flow);
  put_reduce_slot(dup.node);
  reduce_duplicates_.erase(it);
}

void JobRun::on_map_phase_maybe_done() {
  if (state_ != RunState::kRunning) return;
  if (maps_remaining_ != 0) return;
  result_.map_phase_end = env_.sim.now();
  flush_all_ready();
}

// ---------------------------------------------------------------------
// shuffle
// ---------------------------------------------------------------------

const MapOutput* JobRun::output_of(std::uint32_t m) {
  MapTask& t = maps_[m];
  const std::uint64_t erasures = env_.map_outputs.erasures();
  if (t.output == nullptr || t.output_erasures != erasures) {
    t.output = env_.map_outputs.find(t.key(spec_.logical_id));
    t.output_erasures = erasures;
  }
  return t.output;
}

double JobRun::contrib_bytes(const MapOutput& out,
                             std::uint32_t partition) const {
  const std::uint32_t split =
      directive_.active ? directive_.split_factor : 1;
  // Only payload-mode registration gives an output buckets (one per
  // reducer partition), so they tell how its shares were sized.
  const double share =
      out.buckets.empty()
          ? out.total_bytes / spec_.num_reducers
          : static_cast<double>(out.buckets[partition].size()) *
                static_cast<double>(cfg_.record_bytes);
  return share / split;
}

double JobRun::contrib_bytes(std::uint32_t r, std::uint32_t m) {
  const MapOutput* out = output_of(m);
  RCMP_CHECK_MSG(out != nullptr, "contribution from unregistered mapper");
  return contrib_bytes(*out, reduces_[r].partition);
}

const MapOutput* JobRun::serving_output(std::uint32_t m) {
  const MapOutput* out = output_of(m);
  if (out == nullptr || out->lost || !source_serving(out->node))
    return nullptr;
  return out;
}

void JobRun::mark_contrib_ready(ReduceTask& rt, std::uint32_t m,
                                const MapOutput& out) {
  RCMP_CHECK(rt.contrib[m] == ContribState::kWaiting);
  rt.contrib[m] = ContribState::kReady;
  rt.ready_bytes[out.node] += contrib_bytes(out, rt.partition);
  rt.ready[out.node].push_back(m);
}

void JobRun::flush_source(std::uint32_t r, cluster::NodeId src,
                          bool force) {
  ReduceTask& rt = reduces_[r];
  RCMP_CHECK(rt.state == ReduceState::kFetching);
  // Zero-byte contributions (empty payload buckets) still need a
  // (zero-byte) fetch so the reducer's unfetched count drains.
  if (rt.ready[src].empty()) return;
  if (!force && rt.ready_bytes[src] < flush_threshold_) return;
  if (!source_serving(src)) return;  // rewound at detection/suspicion

  // The buffer is copied out, not moved: both lists keep their
  // capacity for the next fetch.
  const std::uint32_t slot = acquire_fetch();
  FetchFlow& ff = fetches_[slot];
  ff.reducer = r;
  ff.reducer_epoch = rt.epoch;
  ff.src = src;
  ff.mappers.assign(rt.ready[src].begin(), rt.ready[src].end());
  ff.bytes = rt.ready_bytes[src];
  rt.ready[src].clear();
  rt.ready_bytes[src] = 0.0;
  ff.mapper_bytes.clear();
  ff.mapper_bytes.reserve(ff.mappers.size());
  for (std::uint32_t m : ff.mappers) {
    RCMP_CHECK(rt.contrib[m] == ContribState::kReady);
    rt.contrib[m] = ContribState::kInflight;
    ff.mapper_bytes.push_back(contrib_bytes(r, m));
  }

  // Serve from memory only when every output in the batch is still
  // resident — a partially-spilled batch streams at disk speed.
  cluster::StorageTier src_tier = cluster::StorageTier::kDisk;
  if (map_output_tier() == cluster::StorageTier::kMemory) {
    src_tier = cluster::StorageTier::kMemory;
    for (std::uint32_t m : ff.mappers) {
      const MapOutput* out = output_of(m);
      if (out == nullptr || out->tier != cluster::StorageTier::kMemory) {
        src_tier = cluster::StorageTier::kDisk;
        break;
      }
    }
  }
  const std::uint64_t token = (std::uint64_t{ff.gen} << 32) | slot;
  res::FlowSpec fs;
  auto path = env_.cluster.path_transfer(src, rt.node,
                                         /*read_src=*/true,
                                         /*write_dst=*/true, src_tier,
                                         map_output_tier());
  fs.path = std::move(path.links);
  fs.weights = std::move(path.weights);
  fs.bytes = round_bytes(ff.bytes);
  fs.on_complete = [this, token] { fetch_done(token); };
  ff.flow = env_.net.start_flow(std::move(fs));
}

std::uint32_t JobRun::acquire_fetch() {
  std::uint32_t slot = fetch_free_;
  if (slot != kNoFetch) {
    fetch_free_ = fetches_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(fetches_.size());
    fetches_.emplace_back();
  }
  fetches_[slot].active = true;
  return slot;
}

void JobRun::release_fetch(std::uint32_t slot) {
  FetchFlow& ff = fetches_[slot];
  ff.active = false;
  ++ff.gen;
  ff.next_free = fetch_free_;
  fetch_free_ = slot;
}

void JobRun::flush_ready(std::uint32_t r) {
  for (cluster::NodeId src = 0; src < env_.cluster.size(); ++src)
    flush_source(r, src, /*force=*/true);
}

void JobRun::flush_all_ready() {
  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    if (reduces_[r].state == ReduceState::kFetching) flush_ready(r);
  }
}

void JobRun::fetch_done(std::uint64_t token) {
  const auto slot = static_cast<std::uint32_t>(token);
  if (slot >= fetches_.size()) return;  // released with the run
  FetchFlow& ff = fetches_[slot];
  if (!ff.active || ff.gen != token >> 32) return;  // cancelled
  // Free the slot before anything below can start or cancel fetches:
  // its lists move to the scratch (a swap, so both keep capacity).
  const std::uint32_t r = ff.reducer;
  const std::uint32_t reducer_epoch = ff.reducer_epoch;
  const cluster::NodeId src = ff.src;
  const double bytes = ff.bytes;
  fetch_mappers_.swap(ff.mappers);
  fetch_mapper_bytes_.swap(ff.mapper_bytes);
  release_fetch(slot);
  if (state_ != RunState::kRunning) return;

  ReduceTask& rt = reduces_[r];
  if (rt.epoch != reducer_epoch) return;
  RCMP_CHECK(rt.state == ReduceState::kFetching);

  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kShuffleFetch, 0,
                          src, spec_.logical_id, r, bytes, env_.chain_tag);
  }

  // In payload mode every segment's output is looked up and its bucket
  // checked before the loop, the checks in shared lane passes. The loop
  // consumes the verdicts in segment order, so recovery runs exactly as
  // with one check per segment; nothing in it touches the store
  // (handle_corrupt_map_output runs after it). Virtual segments carry
  // no records and keep the per-segment marker check: a pre-pass over
  // them measured slower on dco_late_kill.
  const std::size_t n = fetch_mappers_.size();
  if (payload_mode_) {
    fetch_outs_.resize(n);
    fetch_pending_.resize(n);
    fetch_verdicts_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      fetch_outs_[i] = output_of(fetch_mappers_[i]);
    }
    MapOutputStore::bucket_states(fetch_outs_, rt.partition, fetch_pending_,
                                  fetch_verdicts_);
  }

  // Each mapper's segment is accepted independently: a segment whose
  // output vanished mid-flight (corruption handled elsewhere dropped
  // it) rewinds to kWaiting, a segment failing its checksum triggers
  // mapper re-execution, the rest land normally.
  std::vector<std::uint32_t> corrupt;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t m = fetch_mappers_[i];
    RCMP_CHECK(rt.contrib[m] == ContribState::kInflight);
    const MapOutput* out = payload_mode_ ? fetch_outs_[i] : output_of(m);
    if (out == nullptr) {
      rt.contrib[m] = ContribState::kWaiting;
      continue;
    }
    const BucketState bs =
        payload_mode_ ? fetch_verdicts_[i]
                      : MapOutputStore::bucket_state(*out, rt.partition);
    if (bs != BucketState::kIntact) {
      if (bs == BucketState::kMissingSum && env_.obs != nullptr) {
        // An unverifiable bucket must never pass silently: surface it to
        // the auditor (aborts under audit), then fall through to the
        // corrupt-output recovery path.
        env_.obs->report_violation(
            "shuffle fetch of mapper " + std::to_string(m) + " bucket " +
            std::to_string(rt.partition) +
            " has payload but no captured checksum (unverifiable read)");
      }
      rt.contrib[m] = ContribState::kWaiting;
      corrupt.push_back(m);
      continue;
    }
    rt.contrib[m] = ContribState::kFetched;
    RCMP_CHECK(rt.unfetched > 0);
    --rt.unfetched;
    const double seg_bytes =
        i < fetch_mapper_bytes_.size() ? fetch_mapper_bytes_[i] : 0.0;
    rt.fetched_bytes += seg_bytes;
    result_.shuffle_bytes += seg_bytes;
    // Each mapper's output is a separate transfer; per-transfer latency
    // serializes over the reducer's parallel copiers and is paid before
    // the reduce phase (what makes the paper's SLOW SHUFFLE slow).
    rt.tail_debt += cfg_.shuffle_tail_latency /
                    std::max(1u, cfg_.shuffle_fetch_parallelism);
    if (payload_mode_) {
      const std::uint32_t split =
          directive_.active ? directive_.split_factor : 1;
      for (const Record& rec : out->buckets[rt.partition]) {
        if (split > 1 &&
            partition_of(rec.key, split, directive_.split_salt) !=
                rt.split_index) {
          continue;
        }
        rt.gathered.push_back(rec);
      }
    }
  }
  for (std::uint32_t m : corrupt) handle_corrupt_map_output(m);
  maybe_start_reduce_compute(r);
}

void JobRun::cancel_fetches_of_reducer(std::uint32_t r) {
  for (std::uint32_t s = 0; s < fetches_.size(); ++s) {
    if (fetches_[s].active && fetches_[s].reducer == r) {
      env_.net.cancel_flow(fetches_[s].flow);
      release_fetch(s);
    }
  }
}

// ---------------------------------------------------------------------
// reduce task state machine
// ---------------------------------------------------------------------

void JobRun::reduce_startup_done(std::uint32_t r, std::uint32_t epoch) {
  ReduceTask& rt = reduces_[r];
  if (state_ != RunState::kRunning || rt.epoch != epoch) return;
  RCMP_CHECK(rt.state == ReduceState::kStarting);
  rt.ev = sim::kInvalidEvent;
  rt.state = ReduceState::kFetching;
  // Late-wave reducers find all map outputs ready: fetch them at once.
  flush_ready(r);
  maybe_start_reduce_compute(r);
}

void JobRun::maybe_start_reduce_compute(std::uint32_t r) {
  ReduceTask& rt = reduces_[r];
  if (rt.state != ReduceState::kFetching || rt.unfetched != 0) return;
  rt.state = ReduceState::kComputing;
  // Shuffle is complete for this reducer: map-output + DFS usage is at a
  // local peak, which boundary-only sampling used to miss (§IV-C).
  if (env_.obs != nullptr) env_.obs->sample_storage();
  const SimTime dt = rt.fetched_bytes / cfg_.reduce_cpu_rate *
                         env_.cluster.cpu_factor(rt.node) +
                     rt.tail_debt;
  const std::uint32_t epoch = rt.epoch;
  rt.ev = env_.sim.schedule_after(
      dt, [this, r, epoch] { reduce_compute_done(r, epoch); });
}

void JobRun::reduce_compute_done(std::uint32_t r, std::uint32_t epoch) {
  ReduceTask& rt = reduces_[r];
  if (state_ != RunState::kRunning || rt.epoch != epoch) return;
  RCMP_CHECK(rt.state == ReduceState::kComputing);
  rt.ev = sim::kInvalidEvent;
  cancel_reduce_duplicate(r);  // the original won the race (if any)
  finish_reduce_compute(r);
}

void JobRun::finish_reduce_compute(std::uint32_t r) {
  ReduceTask& rt = reduces_[r];
  if (payload_mode_) {
    // Sort-merge: one reduce call per key. Each split owns whole keys,
    // so grouping within the split is complete.
    std::sort(rt.gathered.begin(), rt.gathered.end());
    Emitter em;
    spec_.reducer->reduce_all(rt.gathered, spec_.udf_salt(), em);
    rt.out_records = std::move(em.records());
    rt.gathered.clear();
    rt.gathered.shrink_to_fit();
    rt.out_bytes = static_cast<double>(rt.out_records.size()) *
                   static_cast<double>(cfg_.record_bytes);
  } else {
    rt.out_bytes = rt.fetched_bytes * spec_.reduce_output_ratio;
  }
  start_reduce_write(r);
}

void JobRun::start_reduce_write(std::uint32_t r) {
  ReduceTask& rt = reduces_[r];
  rt.state = ReduceState::kWriting;
  if (env_.cluster.alive_storage_nodes().empty()) {
    // Nowhere to put the output. Stall instead of asserting inside
    // plan_write; failure detection (or a rejoin) unblocks or aborts.
    rt.write_blocked = true;
    return;
  }
  rt.planned = env_.dfs.plan_write(spec_.output, rt.node,
                                   round_bytes(rt.out_bytes),
                                   spec_.output_placement);
  rt.next_block = 0;
  rt.outstanding_writes = 0;
  rt.write_flows.clear();
  write_next_block(r, rt.epoch);
}

void JobRun::write_next_block(std::uint32_t r, std::uint32_t epoch) {
  ReduceTask& rt = reduces_[r];
  if (state_ != RunState::kRunning || rt.epoch != epoch) return;
  RCMP_CHECK(rt.state == ReduceState::kWriting);

  if (rt.next_block >= rt.planned.size()) {
    // All blocks written (possibly zero): commit. The plan moves into
    // the block table; the reducer is done once it is committed.
    const std::size_t blocks = rt.planned.size();
    env_.dfs.commit_partition(spec_.output, rt.partition,
                              std::move(rt.planned));
    if (payload_mode_) {
      env_.payloads.append(
          spec_.output, rt.partition, std::move(rt.out_records),
          static_cast<std::uint32_t>(std::max<std::size_t>(1, blocks)));
      rt.out_records.clear();
    }
    if (std::find(partitions_committed_.begin(),
                  partitions_committed_.end(),
                  rt.partition) == partitions_committed_.end()) {
      partitions_committed_.push_back(rt.partition);
    }
    result_.output_bytes += rt.out_bytes;
    reduce_done(r);
    return;
  }

  // Replication pipeline for one block: all replica streams concurrent.
  const auto& block = rt.planned[rt.next_block];
  rt.write_flows.clear();
  rt.outstanding_writes = static_cast<std::uint32_t>(block.replicas.size());
  for (cluster::NodeId rep : block.replicas) {
    res::FlowSpec fs;
    auto path = env_.cluster.path_transfer(rt.node, rep,
                                           /*read_src=*/false,
                                           /*write_dst=*/true,
                                           cluster::StorageTier::kDisk,
                                           block.tier);
    fs.path = std::move(path.links);
    fs.weights = std::move(path.weights);
    fs.bytes = block.size;
    fs.on_complete = [this, r, epoch] { block_write_done(r, epoch); };
    rt.write_flows.push_back(env_.net.start_flow(std::move(fs)));
  }
}

void JobRun::block_write_done(std::uint32_t r, std::uint32_t epoch) {
  ReduceTask& rt = reduces_[r];
  if (state_ != RunState::kRunning || rt.epoch != epoch) return;
  if (rt.state != ReduceState::kWriting || rt.write_blocked) return;
  RCMP_CHECK(rt.outstanding_writes > 0);
  --rt.outstanding_writes;
  if (rt.outstanding_writes == 0) {
    ++rt.next_block;
    write_next_block(r, epoch);
  }
}

void JobRun::reduce_done(std::uint32_t r) {
  ReduceTask& rt = reduces_[r];
  rt.state = ReduceState::kDone;
  rt.end_time = env_.sim.now();
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(rt.end_time, obs::EventType::kTaskFinish,
                          obs::kKindReduce, rt.node, spec_.logical_id, r,
                          rt.end_time - rt.start_time, env_.chain_tag);
  }
  ++result_.reducers_executed;
  completed_reduce_time_sum_ += rt.end_time - rt.start_time;
  ++completed_reduce_count_;
  RCMP_CHECK(reduces_remaining_ > 0);
  --reduces_remaining_;
  put_reduce_slot(rt.node);
  schedule_tasks();
  maybe_finish();
}

void JobRun::reset_reduce_task(std::uint32_t r) {
  cancel_reduce_duplicate(r);
  ReduceTask& rt = reduces_[r];
  RCMP_CHECK(rt.state != ReduceState::kDone);
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kTaskReexec,
                          obs::kKindReduce, rt.node, spec_.logical_id, r,
                          0.0, env_.chain_tag);
  }
  cancel_task_work(rt);
  cancel_fetches_of_reducer(r);
  ++rt.epoch;
  rt.state = ReduceState::kUnassigned;
  rt.node = cluster::kInvalidNode;
  rt.fetched_bytes = 0.0;
  rt.tail_debt = 0.0;
  rt.gathered.clear();
  rt.out_records.clear();
  rt.planned.clear();
  rt.next_block = 0;
  rt.outstanding_writes = 0;
  rt.write_blocked = false;
  std::fill(rt.ready_bytes.begin(), rt.ready_bytes.end(), 0.0);
  for (auto& v : rt.ready) v.clear();
  rt.unfetched = static_cast<std::uint32_t>(maps_.size());
  std::fill(rt.contrib.begin(), rt.contrib.end(), ContribState::kWaiting);
  // Re-buffer contributions from mappers whose outputs are available.
  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    const MapTask& t = maps_[m];
    if (t.state != MapState::kDone && t.state != MapState::kReused)
      continue;
    if (const MapOutput* out = serving_output(m))
      mark_contrib_ready(rt, m, *out);
  }
  if (!charge_attempt(rt.attempts, rt.not_before))
    exhausted_retry_budget_ = true;
  pending_reduces_.push_back(r);
  reduce_scan_.valid = false;
}

// ---------------------------------------------------------------------
// failures
// ---------------------------------------------------------------------

void JobRun::on_node_killed(cluster::NodeId n) {
  // A whole-node kill is both failure flavors at once; the order matters
  // only in that compute teardown must not observe half-rewound shuffle
  // state, which matches the original single-pass ordering.
  on_compute_failed(n);
  on_disk_failed(n);
}

void JobRun::on_compute_failed(cluster::NodeId n) {
  if (state_ != RunState::kRunning) return;
  // The scheduler's own failure handler (registered before any chain's)
  // already zeroed the node's inventory and forfeited every slot held
  // there.

  // Drop all speculative duplicates: any of them may have been running
  // on, or reading from, the dead node. Speculation re-arms later.
  std::vector<std::uint32_t> dup_tasks;
  for (const auto& [m, dup] : duplicates_) dup_tasks.push_back(m);
  for (std::uint32_t m : dup_tasks) cancel_duplicate(m);
  std::vector<std::uint32_t> rdup_tasks;
  for (const auto& [r, dup] : reduce_duplicates_) rdup_tasks.push_back(r);
  for (std::uint32_t r : rdup_tasks) cancel_reduce_duplicate(r);

  for (auto& t : maps_) {
    if (t.node == n &&
        (t.state == MapState::kStarting || t.state == MapState::kReading ||
         t.state == MapState::kComputing ||
         t.state == MapState::kWriting)) {
      cancel_task_work(t);
      t.state = MapState::kFrozen;
      blame_node(n);
    }
  }
  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    ReduceTask& rt = reduces_[r];
    if (rt.node == n &&
        (rt.state == ReduceState::kStarting ||
         rt.state == ReduceState::kFetching ||
         rt.state == ReduceState::kComputing ||
         rt.state == ReduceState::kWriting)) {
      cancel_task_work(rt);
      cancel_fetches_of_reducer(r);
      rt.state = ReduceState::kFrozen;
      blame_node(n);
    }
  }
}

void JobRun::on_disk_failed(cluster::NodeId n) {
  if (state_ != RunState::kRunning) return;

  // Shuffle transfers sourced at the dead disk stop flowing. Tasks
  // running on the node are untouched: a disk-only failure leaves the
  // node computing (its inputs/outputs stream over the network).
  halt_fetches_from(n);

  // Output writes with a replica stream to the dead node stall until
  // the Master replans them at detection time.
  for (auto& rt : reduces_) {
    if (rt.state != ReduceState::kWriting || rt.write_blocked) continue;
    if (rt.next_block >= rt.planned.size()) continue;
    const auto& reps = rt.planned[rt.next_block].replicas;
    if (std::find(reps.begin(), reps.end(), n) != reps.end()) {
      for (res::FlowId f : rt.write_flows) env_.net.cancel_flow(f);
      rt.write_flows.clear();
      rt.write_blocked = true;
    }
  }
}

void JobRun::on_node_recovered(cluster::NodeId n) {
  if (state_ != RunState::kRunning) return;
  if (!env_.cluster.is_compute_node(n)) return;
  // The node rejoins with an empty disk and full slots (the scheduler
  // refilled its inventory); pending work can land on it immediately,
  // and its disk becomes a write target again.
  // Writes that stalled because no storage target survived can resume
  // against the rejoined disk.
  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    ReduceTask& rt = reduces_[r];
    if (rt.write_blocked && rt.state == ReduceState::kWriting) {
      rt.write_blocked = false;
      start_reduce_write(r);
    }
  }
  schedule_tasks();
}

JobRun::FailureOutcome JobRun::on_detected_failure(cluster::NodeId n) {
  (void)n;  // all state was tagged at kill time; n is informational
  if (state_ != RunState::kRunning) return FailureOutcome::kRecovered;

  // 1) Restart frozen reducers from scratch on surviving nodes.
  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    if (reduces_[r].state == ReduceState::kFrozen) reset_reduce_task(r);
  }

  // 2) Re-plan writes whose replica pipeline lost a target.
  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    ReduceTask& rt = reduces_[r];
    if (rt.write_blocked) {
      RCMP_CHECK(rt.state == ReduceState::kWriting);
      rt.write_blocked = false;
      start_reduce_write(r);
    }
  }

  // 3) Re-execute mappers whose persisted output is gone but is still
  //    needed by some unfetched contribution.
  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    MapTask& t = maps_[m];
    if (t.state != MapState::kDone && t.state != MapState::kReused)
      continue;
    if (serving_output(m) != nullptr) continue;
    bool needed = false;
    for (const auto& rt : reduces_) {
      if (rt.state == ReduceState::kDone) continue;
      if (rt.contrib[m] != ContribState::kFetched) {
        needed = true;
        break;
      }
    }
    if (needed) reset_map_task(m);
  }

  // 4) Re-queue mappers frozen by the kill.
  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    if (maps_[m].state == MapState::kFrozen) reset_map_task(m);
  }

  // 5) Irreversible-loss assessment: every task that still has to run
  //    must be able to read its input; every committed partition must
  //    still be available.
  for (const MapTask& t : maps_) {
    if (t.state == MapState::kDone || t.state == MapState::kReused)
      continue;
    if (!env_.dfs.has_live_replica(t.block_id)) {
      RCMP_WARN() << "t=" << env_.sim.now() << " job " << spec_.name
                  << ": map input block lost — aborting";
      return FailureOutcome::kNeedsAbort;
    }
  }
  for (std::uint32_t p : partitions_committed_) {
    if (!env_.dfs.partition_available(spec_.output, p)) {
      RCMP_WARN() << "t=" << env_.sim.now() << " job " << spec_.name
                  << ": committed output partition " << p
                  << " lost — aborting";
      return FailureOutcome::kNeedsAbort;
    }
  }

  // 6) Detector mode: a task that burned through its per-attempt retry
  //    budget stops retrying against a persistently bad placement and
  //    escalates to the middleware's replan instead.
  if (exhausted_retry_budget_) {
    exhausted_retry_budget_ = false;
    RCMP_WARN() << "t=" << env_.sim.now() << " job " << spec_.name
                << ": task attempt budget exhausted — aborting for replan";
    return FailureOutcome::kNeedsAbort;
  }

  schedule_tasks();
  on_map_phase_maybe_done();
  return FailureOutcome::kRecovered;
}

// ---------------------------------------------------------------------
// detector-driven resilience (all paths below are unreachable without
// an attached cluster::FailureDetector)
// ---------------------------------------------------------------------

bool JobRun::source_serving(cluster::NodeId n) const {
  if (!env_.cluster.storage_alive(n)) return false;
  if (env_.detector == nullptr) return true;
  // A suspected or partitioned node's persisted data is *unavailable*
  // (not lost): fetches avoid it, and reconciliation re-admits it.
  if (!env_.cluster.reachable(n)) return false;
  return !env_.detector->suspected(n);
}

void JobRun::serving_locations(std::uint64_t block_id,
                               std::vector<cluster::NodeId>* out) const {
  env_.dfs.alive_locations(block_id, out);
  std::erase_if(*out,
                [this](cluster::NodeId l) { return !source_serving(l); });
}

bool JobRun::charge_attempt(std::uint32_t& attempts, SimTime& not_before) {
  if (env_.detector == nullptr) return true;  // oracle mode: no budgets
  ++attempts;
  // Always back off — even the exhausting attempt. If the caller's
  // escalation is deferred (or the job is replanned and the task
  // returns), the task must not spin hot in the scheduler.
  const double growth = std::pow(
      cfg_.retry_backoff_factor,
      static_cast<double>(std::min(attempts, 8u) - 1));
  double delay = cfg_.retry_backoff_base * growth;
  if (cfg_.retry_backoff_jitter > 0.0) {
    // Decorrelated jitter: draw from [base, 3 * delay] and blend by the
    // jitter factor. Guarded so jitter-off runs draw no RNG at all
    // (byte-identical to pre-jitter builds).
    const double hi = std::max(cfg_.retry_backoff_base, 3.0 * delay);
    const double draw = rng_.uniform(cfg_.retry_backoff_base, hi);
    delay += cfg_.retry_backoff_jitter * (draw - delay);
  }
  not_before = env_.sim.now() + delay;
  const std::uint32_t budget = env_.retry_budget
                                   ? env_.retry_budget(attempts)
                                   : cfg_.max_task_attempts;
  return budget == 0 || attempts < budget;
}

void JobRun::blame_node(cluster::NodeId n) {
  if (env_.detector != nullptr) env_.detector->record_task_failure(n);
}

void JobRun::arm_retry_poke(SimTime when) {
  if (retry_ev_ != sim::kInvalidEvent) {
    if (retry_at_ <= when) return;
    env_.sim.cancel(retry_ev_);
  }
  retry_at_ = when;
  retry_ev_ = env_.sim.schedule_after(when - env_.sim.now(), [this] {
    retry_ev_ = sim::kInvalidEvent;
    if (state_ != RunState::kRunning) return;
    schedule_tasks();
  });
}

void JobRun::halt_fetches_from(cluster::NodeId n) {
  for (std::uint32_t s = 0; s < fetches_.size(); ++s) {
    const FetchFlow& ff = fetches_[s];
    if (!ff.active || ff.src != n) continue;
    env_.net.cancel_flow(ff.flow);
    ReduceTask& rt = reduces_[ff.reducer];
    if (rt.epoch == ff.reducer_epoch) {
      for (std::uint32_t m : ff.mappers) {
        if (rt.contrib[m] == ContribState::kInflight)
          rt.contrib[m] = ContribState::kWaiting;
      }
    }
    release_fetch(s);
  }

  // Buffered-but-unfetched contributions whose source went away rewind
  // to waiting; they re-buffer when the source serves again (or after a
  // mapper re-execution).
  for (auto& rt : reduces_) {
    if (rt.state == ReduceState::kDone) continue;
    for (std::uint32_t m : rt.ready[n]) {
      if (rt.contrib[m] == ContribState::kReady)
        rt.contrib[m] = ContribState::kWaiting;
    }
    rt.ready[n].clear();
    rt.ready_bytes[n] = 0.0;
  }
}

void JobRun::on_suspected(cluster::NodeId n) {
  if (state_ != RunState::kRunning) return;
  // Drop all speculative duplicates: any of them may be running on, or
  // reading from, the suspected node (mirrors on_compute_failed).
  std::vector<std::uint32_t> dup_tasks;
  for (const auto& [m, dup] : duplicates_) dup_tasks.push_back(m);
  for (std::uint32_t m : dup_tasks) cancel_duplicate(m);
  std::vector<std::uint32_t> rdup_tasks;
  for (const auto& [r, dup] : reduce_duplicates_) rdup_tasks.push_back(r);
  for (std::uint32_t r : rdup_tasks) cancel_reduce_duplicate(r);

  for (auto& t : maps_) {
    if (t.node == n &&
        (t.state == MapState::kStarting || t.state == MapState::kReading ||
         t.state == MapState::kComputing ||
         t.state == MapState::kWriting)) {
      cancel_task_work(t);
      t.state = MapState::kFrozen;
      // Unlike a real compute failure, the broker never saw a cluster
      // event for a suspicion: hand the frozen task's slot back
      // explicitly (may_acquire's detector gate keeps it off node n).
      env_.slots.release(n, SlotKind::kMap);
      blame_node(n);
    }
  }
  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    ReduceTask& rt = reduces_[r];
    if (rt.node == n &&
        (rt.state == ReduceState::kStarting ||
         rt.state == ReduceState::kFetching ||
         rt.state == ReduceState::kComputing ||
         rt.state == ReduceState::kWriting)) {
      cancel_task_work(rt);
      cancel_fetches_of_reducer(r);
      rt.state = ReduceState::kFrozen;
      env_.slots.release(n, SlotKind::kReduce);
      blame_node(n);
    }
  }
  // Suspicion is a master-side belief: in-flight writes TO the node
  // physically proceed, but nothing new fetches FROM it.
  halt_fetches_from(n);
}

void JobRun::on_node_reconciled(cluster::NodeId n) {
  if (state_ != RunState::kRunning) return;
  // The suspicion never touched the shared slot inventory: the
  // may_acquire gate simply lifts once the detector clears n.
  // Readopt persisted outputs whose spurious re-execution has not
  // committed yet: cancel the replacement work and restore the task to
  // its pre-suspicion terminal state, leaving the DFS and map-output
  // ledgers exactly as if the node had never been suspected.
  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    MapTask& t = maps_[m];
    if (!t.spurious) continue;
    if (t.state == MapState::kDone || t.state == MapState::kReused) {
      t.spurious = false;  // replacement already committed; keep it
      continue;
    }
    const MapOutput* out = serving_output(m);
    if (out == nullptr) continue;
    cancel_duplicate(m);
    if (t.state == MapState::kPending) {
      auto it = std::find(pending_maps_.begin(), pending_maps_.end(), m);
      if (it != pending_maps_.end()) {
        pending_maps_.erase(it);
        local_pending_.release();  // positions shifted: rebuild lazily
        map_scan_.valid = false;
      }
    } else if (t.state != MapState::kFrozen) {  // frozen holds no slot
      cancel_task_work(t);
      put_map_slot(t.node);
    }
    ++t.epoch;
    t.state = t.executed ? MapState::kDone : MapState::kReused;
    t.node = out->node;
    t.read_src = cluster::kInvalidNode;
    t.spurious = false;
    RCMP_CHECK(maps_remaining_ > 0);
    --maps_remaining_;
    on_mapper_available(m);
  }
  // Contributions that rewound to waiting when n stopped serving (but
  // whose tasks were never reset) re-buffer now.
  on_source_reachable(n);
  schedule_tasks();
  on_map_phase_maybe_done();
}

void JobRun::on_source_unreachable(cluster::NodeId n) {
  if (state_ != RunState::kRunning) return;
  halt_fetches_from(n);
  // In-flight input reads sourced at n fail over to a serving replica
  // (or requeue with backoff if none serves right now).
  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    MapTask& t = maps_[m];
    if (t.state == MapState::kReading && t.read_src == n) {
      if (t.flow != res::kInvalidFlow) {
        env_.net.cancel_flow(t.flow);
        t.flow = res::kInvalidFlow;
      }
      blame_node(n);
      start_map_read(m);
    }
  }
  // Speculative map duplicates do not track their read source; a
  // partition event is rare enough to just drop any that are reading
  // (speculation re-arms on the next check).
  std::vector<std::uint32_t> doomed;
  for (const auto& [m, dup] : duplicates_) {
    if (dup.state == MapState::kReading) doomed.push_back(m);
  }
  for (std::uint32_t m : doomed) cancel_duplicate(m);
  if (exhausted_retry_budget_) {
    exhausted_retry_budget_ = false;
    abort_data_loss();
    return;
  }
  schedule_tasks();
}

void JobRun::on_source_reachable(cluster::NodeId n) {
  if (state_ != RunState::kRunning) return;
  // Persisted outputs on n serve again: re-buffer waiting contributions.
  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    const MapTask& t = maps_[m];
    if (t.state != MapState::kDone && t.state != MapState::kReused)
      continue;
    const MapOutput* out = output_of(m);
    if (out != nullptr && !out->lost && out->node == n) {
      on_mapper_available(m);
    }
  }
  if (maps_remaining_ == 0) flush_all_ready();
  schedule_tasks();
}

// ---------------------------------------------------------------------
// read-path integrity
// ---------------------------------------------------------------------

bool JobRun::map_input_corrupt(std::uint32_t m) const {
  const MapTask& t = maps_[m];
  if (env_.dfs.partition_corrupt(t.input_file, t.input_partition))
    return true;
  // Payload mode: recompute the block checksum against the one recorded
  // when the partition was written (no-op for virtual-size inputs).
  return !env_.payloads.verify_block(t.input_file, t.input_partition,
                                     t.block_index);
}

void JobRun::handle_corrupt_input(std::uint32_t m) {
  const MapTask& t = maps_[m];
  ++result_.corrupt_blocks_detected;
  RCMP_WARN() << "t=" << env_.sim.now() << " job " << spec_.name
              << ": mapper " << m << " read corrupt data from "
              << env_.dfs.file_name(t.input_file) << " partition "
              << t.input_partition
              << " — dropping partition, aborting for recomputation";
  // The partition's surviving replicas are untrustworthy; drop them so
  // the middleware's replan regenerates the partition from upstream.
  // A corrupt-and-dropped partition keeps its layout: a NO-SPLIT
  // regeneration reproduces it bit-identically, so surviving downstream
  // map outputs stay valid under the Fig. 5 rule.
  env_.dfs.clear_partition(t.input_file, t.input_partition,
                           /*preserve_layout=*/true);
  env_.payloads.clear(t.input_file, t.input_partition);
  abort_data_loss();
}

void JobRun::handle_corrupt_map_output(std::uint32_t m) {
  if (state_ != RunState::kRunning) return;
  MapTask& t = maps_[m];
  ++result_.corrupt_map_outputs_detected;
  RCMP_WARN() << "t=" << env_.sim.now() << " job " << spec_.name
              << ": map output of mapper " << m << " (node " << t.node
              << ") failed shuffle checksum — re-executing mapper";
  // Quarantine the output (in-flight fetches of clean buckets still
  // read it; nothing new trusts it) and rewind every reducer that
  // buffered-but-not-fetched from it.
  env_.map_outputs.mark_lost(t.key(spec_.logical_id));
  scrub_ready_contribs(m);
  // Two reducers can detect the same corrupt output; only the first
  // detection resets the mapper (and blames the node whose disk served
  // the corrupt bytes — the reset clears t.node).
  if (t.state == MapState::kDone || t.state == MapState::kReused) {
    blame_node(t.node);
    reset_map_task(m);
  }
  if (exhausted_retry_budget_) {
    exhausted_retry_budget_ = false;
    abort_data_loss();
    return;
  }
  schedule_tasks();
}

void JobRun::scrub_ready_contribs(std::uint32_t m) {
  for (auto& rt : reduces_) {
    if (rt.state == ReduceState::kDone) continue;
    if (rt.contrib[m] != ContribState::kReady) continue;
    for (cluster::NodeId src = 0; src < env_.cluster.size(); ++src) {
      auto& list = rt.ready[src];
      auto it = std::find(list.begin(), list.end(), m);
      if (it == list.end()) continue;
      list.erase(it);
      rt.ready_bytes[src] =
          std::max(0.0, rt.ready_bytes[src] -
                            contrib_bytes(static_cast<std::uint32_t>(
                                              &rt - reduces_.data()),
                                          m));
      break;
    }
    rt.contrib[m] = ContribState::kWaiting;
  }
}

// ---------------------------------------------------------------------
// lifecycle
// ---------------------------------------------------------------------

void JobRun::cancel_task_work(MapTask& t) {
  if (t.ev != sim::kInvalidEvent) {
    env_.sim.cancel(t.ev);
    t.ev = sim::kInvalidEvent;
  }
  if (t.flow != res::kInvalidFlow) {
    env_.net.cancel_flow(t.flow);
    t.flow = res::kInvalidFlow;
  }
  staged_buckets_.erase(static_cast<std::uint32_t>(&t - maps_.data()));
}

void JobRun::cancel_task_work(ReduceTask& t) {
  if (t.ev != sim::kInvalidEvent) {
    env_.sim.cancel(t.ev);
    t.ev = sim::kInvalidEvent;
  }
  for (res::FlowId f : t.write_flows) env_.net.cancel_flow(f);
  t.write_flows.clear();
}

void JobRun::teardown_all_work() {
  if (bootstrap_ev_ != sim::kInvalidEvent) {
    env_.sim.cancel(bootstrap_ev_);
    bootstrap_ev_ = sim::kInvalidEvent;
  }
  if (speculation_ev_ != sim::kInvalidEvent) {
    env_.sim.cancel(speculation_ev_);
    speculation_ev_ = sim::kInvalidEvent;
  }
  if (retry_ev_ != sim::kInvalidEvent) {
    env_.sim.cancel(retry_ev_);
    retry_ev_ = sim::kInvalidEvent;
  }
  std::vector<std::uint32_t> dup_tasks;
  for (const auto& [m, dup] : duplicates_) dup_tasks.push_back(m);
  for (std::uint32_t m : dup_tasks) cancel_duplicate(m);
  std::vector<std::uint32_t> rdup_tasks;
  for (const auto& [r, dup] : reduce_duplicates_) rdup_tasks.push_back(r);
  for (std::uint32_t r : rdup_tasks) cancel_reduce_duplicate(r);
  for (auto& t : maps_) cancel_task_work(t);
  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    cancel_task_work(reduces_[r]);
  }
  for (std::uint32_t s = 0; s < fetches_.size(); ++s) {
    if (!fetches_[s].active) continue;
    env_.net.cancel_flow(fetches_[s].flow);
    release_fetch(s);
  }
  local_pending_.release();
}

void JobRun::release_shuffle_state() {
  const auto release = [](auto& v) {
    std::remove_reference_t<decltype(v)>().swap(v);
  };
  for (ReduceTask& rt : reduces_) {
    release(rt.contrib);
    release(rt.ready_bytes);
    release(rt.ready);
    release(rt.gathered);
  }
  release(fetches_);
  fetch_free_ = kNoFetch;
  release(fetch_mappers_);
  release(fetch_mapper_bytes_);
  release(fetch_outs_);
  release(fetch_pending_);
  release(fetch_verdicts_);
}

void JobRun::discard_partial_results() {
  // Discard this attempt's partial results (paper §V-A: "RCMP currently
  // discards the partial results computed before the failure").
  for (const MapOutputKey& key : outputs_registered_) {
    env_.map_outputs.drop(key);
  }
  const bool preserve =
      !directive_.active || directive_.split_factor == 1;
  for (std::uint32_t p : partitions_committed_) {
    env_.dfs.clear_partition(spec_.output, p, preserve);
    env_.payloads.clear(spec_.output, p);
  }
}

void JobRun::cancel() {
  if (state_ != RunState::kRunning) return;
  state_ = RunState::kCancelled;
  result_.status = JobResult::Status::kCancelled;
  result_.end_time = env_.sim.now();
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kJobCancel, 0,
                          obs::kNoField, spec_.logical_id, ordinal_, 0.0,
                          env_.chain_tag);
  }
  teardown_all_work();
  discard_partial_results();
  release_shuffle_state();
  // Torn-down tasks can no longer release their slots one by one —
  // hand everything still held back to the arbiter.
  env_.slots.release_all();
  RCMP_INFO() << "t=" << env_.sim.now() << " job " << spec_.name
              << " (ordinal " << ordinal_ << ") cancelled";
}

void JobRun::abort_data_loss() {
  RCMP_CHECK(state_ == RunState::kRunning);
  teardown_all_work();
  discard_partial_results();
  finish(JobResult::Status::kAbortedDataLoss);
}

void JobRun::maybe_finish() {
  if (state_ != RunState::kRunning) return;
  if (reduces_remaining_ != 0) return;
  finish(JobResult::Status::kCompleted);
}

void JobRun::finish(JobResult::Status status) {
  state_ = RunState::kFinished;
  if (speculation_ev_ != sim::kInvalidEvent) {
    env_.sim.cancel(speculation_ev_);
    speculation_ev_ = sim::kInvalidEvent;
  }
  result_.status = status;
  result_.end_time = env_.sim.now();
  // An aborted run tore work down without per-task releases; a completed
  // run holds nothing, making this a no-op. Either way the arbiter gets
  // every remaining slot back and this chain's demand flags clear.
  env_.slots.release_all();
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kJobFinish,
                          static_cast<std::uint8_t>(status), obs::kNoField,
                          spec_.logical_id, ordinal_, result_.duration(),
                          env_.chain_tag);
  }
  result_.mappers_reused = 0;
  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    const MapTask& t = maps_[m];
    if (t.state == MapState::kReused) ++result_.mappers_reused;
    if (t.executed) {
      result_.map_timings.push_back(
          TaskTiming{true, m, t.node, t.start_time, t.end_time});
    }
  }
  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    const ReduceTask& rt = reduces_[r];
    if (rt.state == ReduceState::kDone) {
      result_.reduce_timings.push_back(
          TaskTiming{false, r, rt.node, rt.start_time, rt.end_time});
    }
  }
  release_shuffle_state();
  RCMP_INFO() << "t=" << env_.sim.now() << " job " << spec_.name
              << " (ordinal " << ordinal_ << ") finished in "
              << result_.duration() << "s";
  if (on_done_) on_done_(*this);
}

}  // namespace rcmp::mapred
