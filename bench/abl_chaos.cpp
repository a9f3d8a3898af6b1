// Ablation: completion-time cost of each chaos fault mode.
//
// One mode at a time against the STIC chain under RCMP SPLIT, averaged
// over seeds: how expensive is a transient reboot vs a disk swap vs a
// TaskTracker death vs a permanent kill vs a rack outage vs silent
// corruption? This is the per-mode baseline an ops team reads before
// composing a mixed campaign (EXPERIMENTS.md, trace-driven chaos).
#include "cluster/chaos.hpp"
#include "bench_util.hpp"

int main() {
  using namespace rcmp;
  using namespace rcmp::bench;
  using cluster::FaultEvent;
  using cluster::FaultMode;
  print_figure_header(
      "Ablation: completion time per chaos fault mode",
      "STIC SLOTS 1-1, 2 racks, one event at job 3 (15 s in), "
      "RCMP SPLIT, mean of 3 seeds.");

  auto base = workloads::stic_config(1, 1);
  base.cluster.racks = 2;

  const int kRepeats = 3;
  auto mean_chaos_time = [&](const cluster::FaultSchedule& schedule,
                             std::uint32_t* injected) {
    Samples t;
    *injected = 0;
    for (int i = 0; i < kRepeats; ++i) {
      auto cfg = base;
      cfg.seed = 1000 + static_cast<std::uint64_t>(i) * 7919;
      workloads::Scenario s(cfg);
      const auto r =
          s.run_chaos(make_strategy(core::Strategy::kRcmpSplit), schedule);
      if (!r.completed) continue;  // logged; excluded from the mean
      t.add(r.total_time);
      *injected += s.injector()->counts().injected() +
                   s.injector()->counts().rack_events;
    }
    return t.mean();
  };

  std::uint32_t ignore = 0;
  const double clean = mean_chaos_time({}, &ignore);

  struct Mode {
    const char* name;
    FaultEvent event;
  };
  const Mode modes[] = {
      {"none (baseline)", {}},
      {"transient (90 s reboot)",
       FaultEvent{FaultMode::kTransient, 3, 15.0, cluster::kInvalidNode,
                  cluster::kAnyRack, 90.0}},
      {"disk-only swap", FaultEvent{FaultMode::kDisk, 3, 15.0}},
      {"compute-only death", FaultEvent{FaultMode::kCompute, 3, 15.0}},
      {"permanent kill", FaultEvent{FaultMode::kKill, 3, 15.0}},
      {"rack outage",
       FaultEvent{FaultMode::kRack, 3, 15.0, cluster::kInvalidNode, 1}},
      {"silent DFS corruption",
       FaultEvent{FaultMode::kCorruptPartition, 3, 5.0}},
      {"silent map-output corruption",
       FaultEvent{FaultMode::kCorruptMapOutput, 3, 15.0}},
  };

  Table t({"fault mode", "injected", "total (s)", "slowdown"});
  for (const Mode& m : modes) {
    cluster::FaultSchedule schedule;
    if (m.event.at_job_ordinal != 0 && m.name[0] != 'n')
      schedule.events.push_back(m.event);
    std::uint32_t injected = 0;
    const double total = mean_chaos_time(schedule, &injected);
    t.add_row({m.name, Table::num(injected / double(kRepeats), 1),
               Table::num(total, 0), Table::num(total / clean, 2) + "x"});
  }
  std::fputs(t.to_string().c_str(), stdout);
  std::printf(
      "\nexpected: disk-only and transient pay one recomputation cascade "
      "but keep full compute capacity, so they are cheap; compute-only "
      "loses no data but runs every remaining wave a slot short; a kill "
      "pays both; a rack outage pays the largest cascade on the least "
      "capacity; corruption costs one detection + targeted "
      "re-execution.\n");
  return 0;
}
