// Result-cache bench: the ReStore/Nectar question — what does
// cross-tenant sharing of recomputable results buy end-to-end?
//
// Scene: four STIC-like chains admitted one at a time on one shared
// cluster (max_concurrent=1, so later tenants arrive after earlier
// ones published), at three dataset-overlap levels:
//
//   overlap0    every tenant reads a distinct dataset — no hit is
//               legal, so this point measures pure cache overhead
//               (fingerprinting + probes on every admission);
//   overlap50   two pairs of tenants share a dataset — half the
//               chains should resolve entirely from the cache;
//   overlap100  all four tenants read one dataset — three of four
//               chains borrow their whole prefix.
//
// Per point the bench runs the same config cache-off and cache-on and
// reports host wall time (the regression-gated cost), both makespans,
// the speedup and the hit count. The 100%-overlap point carries the
// acceptance bar: the cache must improve shared-dataset makespan by at
// least 2x at seed 42, or the bench exits nonzero. The 0%-overlap
// point carries the inverse bar: no hits may occur, and the makespan
// must stay within 1% of cache-off (probing must be ~free).
//
// Like bench_memtier, emits a machine-readable summary
// (--json_out=BENCH_cache.json) and can gate on a checked-in baseline
// (--baseline=bench/BENCH_cache.baseline.json, exit 1 when any record
// runs >2x slower than its baseline wall time).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workloads/multi_scenario.hpp"

namespace {

using rcmp::bench::BenchRecord;
using rcmp::core::Strategy;
using rcmp::workloads::MultiScenario;
using rcmp::workloads::MultiScenarioConfig;

constexpr std::uint32_t kChains = 4;

MultiScenarioConfig scene_config(const std::vector<std::uint64_t>& ids) {
  MultiScenarioConfig cfg;
  cfg.base = rcmp::workloads::stic_config(1, 1);
  cfg.base.seed = 42;
  cfg.chains = kChains;
  cfg.max_concurrent = 1;  // serialize: later tenants see publications
  cfg.dataset_ids = ids;
  return cfg;
}

double wall_ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

struct SceneRun {
  double makespan_s = 0.0;
  double wall_ns = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t publishes = 0;
};

/// Simulation outputs are deterministic, so repeats only tighten the
/// wall-time estimate: report the best of three (the regression gate
/// compares wall times, and single ~50 ms runs jitter past 2x under
/// host load).
SceneRun run_scene(const std::vector<std::uint64_t>& ids, bool cache_on) {
  auto strategy = rcmp::bench::make_strategy(Strategy::kRcmpSplit);
  strategy.result_cache = cache_on;
  SceneRun out;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    MultiScenario ms(scene_config(ids));
    ms.run(strategy);
    const double wall = wall_ns_since(start);
    out.wall_ns = rep == 0 ? wall : std::min(out.wall_ns, wall);
    out.makespan_s = ms.sim().now();
    out.hits = ms.obs().metrics.counter("cache.hits");
    out.publishes = ms.obs().metrics.counter("cache.publishes");
  }
  return out;
}

BenchRecord overlap_point(const std::string& name,
                          const std::vector<std::uint64_t>& ids,
                          SceneRun* on_out, SceneRun* off_out) {
  const SceneRun off = run_scene(ids, /*cache_on=*/false);
  const SceneRun on = run_scene(ids, /*cache_on=*/true);
  if (off.hits != 0 || off.publishes != 0) {
    std::fprintf(stderr, "%s: cache-off run touched the cache\n",
                 name.c_str());
    std::exit(1);
  }
  const double speedup = off.makespan_s / on.makespan_s;
  if (on_out != nullptr) *on_out = on;
  if (off_out != nullptr) *off_out = off;

  BenchRecord rec;
  rec.name = "cache/" + name;
  rec.real_time_ns = off.wall_ns + on.wall_ns;
  rec.counters.emplace_back("off_s", off.makespan_s);
  rec.counters.emplace_back("on_s", on.makespan_s);
  rec.counters.emplace_back("speedup", speedup);
  rec.counters.emplace_back("hits", static_cast<double>(on.hits));
  rec.counters.emplace_back("publishes",
                            static_cast<double>(on.publishes));
  std::printf("%-11s  wall %7.1f ms  off %8.1f s  on %8.1f s  "
              "(%.2fx)  hits %llu  publishes %llu\n",
              name.c_str(), rec.real_time_ns / 1e6, off.makespan_s,
              on.makespan_s, speedup,
              static_cast<unsigned long long>(on.hits),
              static_cast<unsigned long long>(on.publishes));
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  rcmp::bench::GateArgs gate;
  if (!rcmp::bench::parse_gate_args(argc, argv, gate)) return 1;

  rcmp::bench::print_figure_header(
      "BENCH cache",
      "Cluster-wide fingerprint-keyed result cache on four serialized "
      "STIC chains: cache-off vs cache-on makespans at 0%/50%/100% "
      "dataset overlap. 0% must be hit-free and overhead-neutral; "
      "100% must cut shared-dataset makespan by at least 2x.");

  std::vector<BenchRecord> records;
  SceneRun on0, off0;
  records.push_back(overlap_point(
      "overlap0", {0x11, 0x22, 0x33, 0x44}, &on0, &off0));
  records.push_back(overlap_point(
      "overlap50", {0xDA7A, 0xDA7A, 0xBEEF, 0xBEEF}, nullptr, nullptr));
  SceneRun on100, off100;
  records.push_back(overlap_point(
      "overlap100", {0xDA7A, 0xDA7A, 0xDA7A, 0xDA7A}, &on100, &off100));

  // Inverse bar: with zero overlap every probe misses, and probing must
  // not move the makespan (the zero-cost-when-cold contract).
  if (on0.hits != 0) {
    std::fprintf(stderr,
                 "overlap0 produced %llu cache hits — distinct datasets "
                 "must never cross-hit\n",
                 static_cast<unsigned long long>(on0.hits));
    return 1;
  }
  if (std::fabs(on0.makespan_s - off0.makespan_s) >
      0.01 * off0.makespan_s) {
    std::fprintf(stderr,
                 "overlap0 makespan drifted: off %.3f s vs on %.3f s — "
                 "cold probing is supposed to be free\n",
                 off0.makespan_s, on0.makespan_s);
    return 1;
  }

  // The PR's acceptance bar: full dataset overlap must at least halve
  // the four-tenant makespan (three whole-chain borrows ~> 4x).
  if (on100.hits == 0) {
    std::fprintf(stderr, "overlap100 produced no cache hits\n");
    return 1;
  }
  const double speedup100 = off100.makespan_s / on100.makespan_s;
  if (speedup100 < 2.0) {
    std::fprintf(stderr,
                 "result-cache acceptance bar missed: %.2fx < 2x at "
                 "100%% overlap\n",
                 speedup100);
    return 1;
  }

  return rcmp::bench::finish_gate(gate, records);
}
