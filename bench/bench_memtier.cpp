// Memory-tier bench: the M3R question — how much of RCMP's recompute
// advantage survives when persistence gets RAM-cheap?
//
// Scene: the STIC-like iterative chain (every job feeds the next,
// partition-stable placement, so shuffles stay node-local and
// I/O-bound), run disk-only and memory-resident at memory/disk cost
// ratios 1x, 10x and 100x. Per ratio the bench reports host wall time
// (the regression-gated cost of simulating the tier machinery), both
// makespans, and their ratio. The 100x point carries the acceptance
// bar: the memory tier must improve end-to-end makespan by at least
// 2x over disk-only RCMP at seed 42, or the bench exits nonzero.
//
// A second scene sizes RAM below the working set so mid-chain writes
// force oldest-first demotion (spill-to-disk): the run must still
// complete — spills change timing, never data — and must actually
// spill, or the pressure path is untested.
//
// Like bench_detector, emits a machine-readable summary
// (--json_out=BENCH_memtier.json) and can gate on a checked-in
// baseline (--baseline=bench/BENCH_memtier.baseline.json, exit 1 when
// any record runs >2x slower than its baseline wall time).
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

ScenarioConfig base_config() {
  auto cfg = rcmp::workloads::stic_config(1, 1);
  cfg.seed = 42;
  return cfg;
}

double wall_ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// Disk-only RCMP reference: the memory tier disabled at the cluster
/// level (ram_bytes 0), i.e. the exact pre-tier code path.
double disk_total() {
  Scenario s(base_config());
  const auto r = s.run(rcmp::bench::make_strategy(Strategy::kRcmpSplit));
  if (!r.completed) {
    std::fprintf(stderr, "disk-only run failed to complete\n");
    std::exit(1);
  }
  return r.total_time;
}

BenchRecord ratio_point(double ratio, double disk_s, double* speedup_out) {
  auto cfg = base_config();
  cfg.cluster.ram_bytes = 64ULL << 30;  // ample: pure-tier comparison
  cfg.cluster.mem_cost_ratio = ratio;
  auto strategy = rcmp::bench::make_strategy(Strategy::kRcmpSplit);
  strategy.memory_tier = true;

  const auto start = std::chrono::steady_clock::now();
  Scenario s(cfg);
  const auto r = s.run(strategy);
  const double wall = wall_ns_since(start);
  if (!r.completed) {
    std::fprintf(stderr, "memory-tier run at ratio %g did not complete\n",
                 ratio);
    std::exit(1);
  }
  const double speedup = disk_s / r.total_time;
  if (speedup_out != nullptr) *speedup_out = speedup;

  BenchRecord rec;
  char name[64];
  std::snprintf(name, sizeof(name), "memtier/ratio%g", ratio);
  rec.name = name;
  rec.real_time_ns = wall;
  rec.counters.emplace_back("disk_s", disk_s);
  rec.counters.emplace_back("mem_s", r.total_time);
  rec.counters.emplace_back("speedup", speedup);
  std::printf("ratio %6.0fx  wall %7.1f ms  disk %8.1f s  mem %8.1f s  "
              "(%.2fx)\n",
              ratio, wall / 1e6, disk_s, r.total_time, speedup);
  return rec;
}

BenchRecord pressure_point() {
  // RAM sized well below the per-node working set (each job holds
  // ~4 GiB of output plus ~4 GiB of map outputs per node): mid-chain
  // writes must demote older memory blocks to disk.
  auto cfg = base_config();
  cfg.cluster.ram_bytes = 2ULL << 30;
  cfg.cluster.mem_cost_ratio = 100.0;
  auto strategy = rcmp::bench::make_strategy(Strategy::kRcmpSplit);
  strategy.memory_tier = true;

  const auto start = std::chrono::steady_clock::now();
  Scenario s(cfg);
  const auto r = s.run(strategy);
  const double wall = wall_ns_since(start);
  if (!r.completed) {
    std::fprintf(stderr, "spill-pressure run did not complete\n");
    std::exit(1);
  }
  const auto spills = s.obs().metrics.counter("storage.tier.spills");
  if (spills == 0) {
    std::fprintf(stderr,
                 "spill-pressure scene produced no spills — RAM not "
                 "under pressure, the demotion path is untested\n");
    std::exit(1);
  }

  BenchRecord rec;
  rec.name = "memtier/spill_pressure";
  rec.real_time_ns = wall;
  rec.counters.emplace_back("total_s", r.total_time);
  rec.counters.emplace_back("spills", static_cast<double>(spills));
  std::printf("spill pressure  wall %7.1f ms  chain %8.1f s  "
              "spills %llu\n",
              wall / 1e6, r.total_time,
              static_cast<unsigned long long>(spills));
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  rcmp::bench::GateArgs gate;
  if (!rcmp::bench::parse_gate_args(argc, argv, gate)) return 1;

  rcmp::bench::print_figure_header(
      "BENCH memtier",
      "Memory-tier intermediate storage on the iterative STIC chain: "
      "disk-only RCMP vs memory-resident outputs at 1x/10x/100x "
      "memory/disk cost ratios, plus a RAM-pressure scene that must "
      "spill and still complete.");

  const double disk_s = disk_total();
  std::vector<BenchRecord> records;
  double speedup100 = 0.0;
  for (double ratio : {1.0, 10.0, 100.0}) {
    records.push_back(ratio_point(
        ratio, disk_s, ratio == 100.0 ? &speedup100 : nullptr));
  }
  records.push_back(pressure_point());

  // The PR's acceptance bar: at M3R's 100x ratio the memory tier must
  // at least halve the iterative chain's makespan.
  if (speedup100 < 2.0) {
    std::fprintf(stderr,
                 "memory-tier acceptance bar missed: %.2fx < 2x at "
                 "ratio 100\n",
                 speedup100);
    return 1;
  }

  return rcmp::bench::finish_gate(gate, records);
}
