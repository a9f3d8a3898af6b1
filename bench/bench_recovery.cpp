// Coordinator-recovery bench: what does a master crash cost once the
// write-ahead decision journal is on?
//
// Scene: the failure-drill chaos testbed (8 nodes, 2 racks, payload
// records) at chain depths 3/5/7, journal attached. Per depth the bench
// runs the chain crash-free (the reference checksum, the journal length
// N and the baseline makespan), then crashes the master at the earliest
// meaningful journal boundary (k=1: almost nothing durable, recovery is
// nearly a cold restart) and at the last one that still fires (k=N-2:
// the final record lands at chain completion, so nearly the whole
// decision history replays and recovery should adopt nearly every job).
// Recovery time is simulated time from the crash to chain completion —
// NOT the makespan delta: a later crash fires later, which exactly
// offsets the recompute it saves when measured end-to-end.
//
// Acceptance bars, enforced per point (exit 1):
//   - every crash run completes and its final output checksum is
//     byte-equal to the crash-free run (recovery is correctness-first);
//   - the coordinator recovered exactly once via journal replay;
//   - the late crash replays more records than the early one at the
//     same depth (replay depth must actually track journal length);
//   - a late crash recovers faster than an early one — the point of
//     the journal is that replayed (adopted) work is not redone.
//
// Like bench_cache, emits a machine-readable summary
// (--json_out=BENCH_recovery.json) and gates on a checked-in baseline
// (--baseline=bench/BENCH_recovery.baseline.json, exit 1 when any
// record runs >2x slower than its baseline wall time).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workloads/scenario.hpp"

namespace {

using rcmp::bench::BenchRecord;
using rcmp::core::Strategy;
using rcmp::workloads::Scenario;
using rcmp::workloads::ScenarioConfig;

ScenarioConfig scene_config(std::uint32_t depth) {
  auto cfg = rcmp::workloads::payload_config(8, depth,
                                             /*records_per_node=*/256);
  cfg.cluster.racks = 2;
  cfg.input_replication = 4;
  cfg.journal = true;
  cfg.seed = 42;
  return cfg;
}

double wall_ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

struct SceneRun {
  bool completed = false;
  double makespan_s = 0.0;
  double crash_at_s = 0.0;
  double wall_ns = 0.0;
  rcmp::mapred::Checksum checksum{};
  std::uint64_t journal_records = 0;
  std::uint64_t crashes = 0;
  std::uint64_t replayed = 0;
};

/// One scenario run, optionally with a master crash armed at journal
/// record `crash_at` (-1 = crash-free). Simulation outputs are
/// deterministic, so repeats only tighten the wall-time estimate:
/// report the best of three.
SceneRun run_scene(std::uint32_t depth, long crash_at) {
  const auto strategy = rcmp::bench::make_strategy(Strategy::kRcmpSplit);
  SceneRun out;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    Scenario s(scene_config(depth));
    if (crash_at >= 0) {
      // arm_master_crash, but also stamping the simulated crash time so
      // recovery cost can be measured from the crash, not from t=0.
      s.journal()->arm_crash(
          static_cast<std::uint64_t>(crash_at), [&s, &out] {
            out.crash_at_s = s.sim().now();
            s.sim().schedule_after(0.0, [&s] { s.crash_master(); });
          });
    }
    const auto r = s.run_chaos(strategy, {});
    const double wall = wall_ns_since(start);
    out.wall_ns = rep == 0 ? wall : std::min(out.wall_ns, wall);
    out.completed = r.completed;
    if (!r.completed) return out;
    out.makespan_s = s.sim().now();
    out.checksum = s.final_output_checksum();
    out.journal_records = s.journal()->size();
    out.crashes = s.obs().metrics.counter("master.recovery.crashes");
    out.replayed =
        s.obs().metrics.counter("master.recovery.replayed_records");
  }
  return out;
}

/// One crash point at a given depth, gated against the crash-free run.
BenchRecord crash_point(std::uint32_t depth, const char* label,
                        long crash_at, const SceneRun& clean,
                        SceneRun* out) {
  const SceneRun run = run_scene(depth, crash_at);
  if (!run.completed) {
    std::fprintf(stderr, "d%u_%s: crash run did not complete\n", depth,
                 label);
    std::exit(1);
  }
  if (!(run.checksum == clean.checksum)) {
    std::fprintf(stderr,
                 "d%u_%s: output diverged from the crash-free run\n",
                 depth, label);
    std::exit(1);
  }
  if (run.crashes != 1) {
    std::fprintf(stderr, "d%u_%s: expected 1 recovery, saw %llu\n",
                 depth, label,
                 static_cast<unsigned long long>(run.crashes));
    std::exit(1);
  }
  const double recovery_s = run.makespan_s - run.crash_at_s;
  if (out != nullptr) *out = run;

  BenchRecord rec;
  rec.name = "recovery/d" + std::to_string(depth) + "_" + label;
  rec.real_time_ns = run.wall_ns;
  rec.counters.emplace_back("clean_s", clean.makespan_s);
  rec.counters.emplace_back("crash_at_s", run.crash_at_s);
  rec.counters.emplace_back("crash_s", run.makespan_s);
  rec.counters.emplace_back("recovery_s", recovery_s);
  rec.counters.emplace_back("journal_records",
                            static_cast<double>(clean.journal_records));
  rec.counters.emplace_back("replayed",
                            static_cast<double>(run.replayed));
  std::printf("d%u %-5s  wall %7.1f ms  clean %8.1f s  crash@ %6.1f s  "
              "done %8.1f s  recovery %7.1f s  replayed %llu/%llu\n",
              depth, label, rec.real_time_ns / 1e6, clean.makespan_s,
              run.crash_at_s, run.makespan_s, recovery_s,
              static_cast<unsigned long long>(run.replayed),
              static_cast<unsigned long long>(clean.journal_records));
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  rcmp::bench::GateArgs gate;
  if (!rcmp::bench::parse_gate_args(argc, argv, gate)) return 1;

  rcmp::bench::print_figure_header(
      "BENCH recovery",
      "Coordinator crash recovery via write-ahead journal replay on the "
      "chaos testbed at chain depths 3/5/7: crash at the first vs last "
      "journal boundary, recovery time = simulated time from crash to "
      "chain completion. Outputs must stay byte-identical; late crashes "
      "must replay more and recover faster than early ones.");

  std::vector<BenchRecord> records;
  for (const std::uint32_t depth : {3u, 5u, 7u}) {
    const SceneRun clean = run_scene(depth, /*crash_at=*/-1);
    if (!clean.completed) {
      std::fprintf(stderr, "d%u: crash-free run did not complete\n",
                   depth);
      return 1;
    }
    if (clean.journal_records < 3) {
      std::fprintf(stderr, "d%u: journal too short (%llu records)\n",
                   depth,
                   static_cast<unsigned long long>(
                       clean.journal_records));
      return 1;
    }
    SceneRun early, late;
    records.push_back(crash_point(depth, "early", 1, clean, &early));
    records.push_back(crash_point(
        depth, "late",
        static_cast<long>(clean.journal_records) - 2, clean, &late));

    // Replay depth must track the crash point: a late crash has nearly
    // the whole history durable, an early one almost none of it.
    if (late.replayed <= early.replayed) {
      std::fprintf(stderr,
                   "d%u: late crash replayed %llu records vs %llu early "
                   "— replay is not tracking journal length\n",
                   depth, static_cast<unsigned long long>(late.replayed),
                   static_cast<unsigned long long>(early.replayed));
      return 1;
    }
    // The journal's acceptance bar: replayed decisions are not redone,
    // so the more that was durable, the faster the recovery.
    const double early_rec = early.makespan_s - early.crash_at_s;
    const double late_rec = late.makespan_s - late.crash_at_s;
    if (late_rec >= early_rec) {
      std::fprintf(stderr,
                   "d%u: late crash recovered in %.1f s vs %.1f s early "
                   "— journal replay is not saving recomputation\n",
                   depth, late_rec, early_rec);
      return 1;
    }
  }

  return rcmp::bench::finish_gate(gate, records);
}
