// Multi-tenant scheduler bench: chain-count scaling and blast radius.
//
// Scaling: the same payload chain shape run as 1..16 concurrent tenants
// on one shared 8-node cluster. Reported per point: host wall time (the
// regression-gated cost of simulating the multi-tenant machinery),
// simulated makespan, mean per-chain completion time and the
// scheduler's grant, denial, poke and kick counters (kick_passes: the
// kicks that ran a placement pass). With the cluster saturated, the
// makespan should grow roughly linearly in the chain count while the
// scheduler keeps every chain live (grants on all chains, bounded
// denial overhead).
//
// Blast radius: four tenants, two active when a node dies, two
// submitted long after. Only the damaged pair may replan — the late
// pair's replan counters must stay zero.
//
// Like micro_simcore, emits a machine-readable summary
// (--json_out=BENCH_multichain.json) and can gate on a checked-in
// baseline (--baseline=bench/BENCH_multichain.baseline.json, exit 1
// when any record runs >2x slower than its baseline wall time).
#include <algorithm>
#include <chrono>
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

MultiScenarioConfig chains_config(std::uint32_t chains) {
  MultiScenarioConfig cfg;
  cfg.base = rcmp::workloads::payload_config(/*nodes=*/8,
                                             /*chain_length=*/3,
                                             /*records_per_node=*/128);
  cfg.chains = chains;
  return cfg;
}

double wall_ns_since(
    std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

BenchRecord scale_point(std::uint32_t chains) {
  const auto start = std::chrono::steady_clock::now();
  MultiScenario ms(chains_config(chains));
  const auto results =
      ms.run(rcmp::bench::make_strategy(Strategy::kRcmpSplit));
  const double wall = wall_ns_since(start);

  double makespan = 0.0, sum = 0.0;
  std::uint64_t grants = 0;
  for (std::uint32_t c = 0; c < chains; ++c) {
    if (!results[c].completed) {
      std::fprintf(stderr, "chain %u failed to complete\n", c);
      std::exit(1);
    }
    makespan = std::max(makespan, results[c].total_time);
    sum += results[c].total_time;
    grants += ms.scheduler().grants(c);
  }
  BenchRecord rec;
  rec.name = "multichain/scale/" + std::to_string(chains);
  rec.real_time_ns = wall;
  rec.counters.emplace_back("makespan_s", makespan);
  rec.counters.emplace_back("mean_chain_s",
                            sum / static_cast<double>(chains));
  rec.counters.emplace_back("grants", static_cast<double>(grants));
  rec.counters.emplace_back(
      "denials", static_cast<double>(ms.scheduler().total_denials()));
  rec.counters.emplace_back(
      "pokes", static_cast<double>(ms.scheduler().pokes_run()));
  rec.counters.emplace_back(
      "kicks", static_cast<double>(ms.scheduler().kicks_run()));
  rec.counters.emplace_back(
      "kick_passes", static_cast<double>(ms.scheduler().kick_passes()));
  std::printf("%8u chains  wall %8.1f ms  makespan %9.1f s  mean %9.1f s"
              "  grants %7llu  denials %6llu\n",
              chains, wall / 1e6, makespan,
              sum / static_cast<double>(chains),
              static_cast<unsigned long long>(grants),
              static_cast<unsigned long long>(ms.scheduler().total_denials()));
  return rec;
}

BenchRecord blast_radius_point() {
  constexpr rcmp::SimTime kLate = 100000.0;
  auto cfg = chains_config(4);
  cfg.base.per_node_input = 96 * cfg.base.engine.record_bytes;
  cfg.base.block_size = cfg.base.per_node_input / 4;
  cfg.submit_at = {0.0, 0.0, kLate, kLate};

  // Fault-free probe: pick a kill time with both early chains past
  // their first job, then replay with the failure injected.
  rcmp::SimTime t_kill = 0.0;
  {
    MultiScenario probe(cfg);
    const auto r =
        probe.run(rcmp::bench::make_strategy(Strategy::kRcmpSplit));
    t_kill = std::max(r[0].runs[0].end_time, r[1].runs[0].end_time) + 5.0;
  }

  const auto start = std::chrono::steady_clock::now();
  MultiScenario ms(cfg);
  ms.start(rcmp::bench::make_strategy(Strategy::kRcmpSplit));
  ms.sim().run_until(t_kill);
  ms.cluster().kill(2);
  const auto results = ms.finish();
  const double wall = wall_ns_since(start);

  std::uint32_t damaged_replans = 0, untouched_replans = 0, completed = 0;
  for (std::uint32_t c = 0; c < 4; ++c) {
    completed += results[c].completed ? 1 : 0;
    const auto replans =
        ms.scheduler().replans(c) + ms.scheduler().restarts(c);
    (c < 2 ? damaged_replans : untouched_replans) += replans;
  }
  if (untouched_replans != 0) {
    std::fprintf(stderr, "blast radius leak: %u replans on late chains\n",
                 untouched_replans);
    std::exit(1);
  }
  BenchRecord rec;
  rec.name = "multichain/blast_radius";
  rec.real_time_ns = wall;
  rec.counters.emplace_back("completed", static_cast<double>(completed));
  rec.counters.emplace_back("damaged_replans",
                            static_cast<double>(damaged_replans));
  rec.counters.emplace_back("untouched_replans",
                            static_cast<double>(untouched_replans));
  std::printf("blast radius  wall %8.1f ms  completed %u/4  "
              "damaged replans %u  untouched replans %u\n",
              wall / 1e6, completed, damaged_replans, untouched_replans);
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  rcmp::bench::GateArgs gate;
  if (!rcmp::bench::parse_gate_args(argc, argv, gate)) return 1;

  rcmp::bench::print_figure_header(
      "BENCH multichain",
      "Multi-tenant scheduler: 1->16 chain scaling on one shared "
      "cluster, plus blast-radius isolation on a mid-run node kill.");

  std::vector<BenchRecord> records;
  for (std::uint32_t chains : {1u, 2u, 4u, 8u, 16u}) {
    records.push_back(scale_point(chains));
  }
  records.push_back(blast_radius_point());

  return rcmp::bench::finish_gate(gate, records);
}
