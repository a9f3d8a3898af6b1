// Failure-detector bench: detection latency and false-suspicion
// overhead.
//
// Latency: the same payload chain, one mid-chain node kill, swept over
// heartbeat-interval / suspicion-timeout pairs. Reported per point:
// host wall time (the regression-gated cost of simulating the
// heartbeat machinery), the measured time-to-detect — which must stay
// within suspicion_timeout + one heartbeat interval, the detector's
// contract — and the chain slowdown versus a fault-free run.
//
// Overhead: (a) detector on, no chaos — the heartbeat control plane
// must not move simulated time at all versus the oracle model, and its
// host-time cost is what the wall-time gate watches; (b) a
// heartbeat-loss window long enough to falsely suspect a healthy node —
// the chain pays for spurious recomputation until reconciliation, and
// the bench reports that slowdown next to the suspicion counters.
//
// Like bench_multichain, emits a machine-readable summary
// (--json_out=BENCH_detector.json) and can gate on a checked-in
// baseline (--baseline=bench/BENCH_detector.baseline.json, exit 1 when
// any record runs >2x slower than its baseline wall time).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/chaos.hpp"
#include "workloads/scenario.hpp"

namespace {

using rcmp::bench::BenchRecord;
using rcmp::cluster::FaultEvent;
using rcmp::cluster::FaultMode;
using rcmp::cluster::FaultSchedule;
using rcmp::core::Strategy;
using rcmp::workloads::Scenario;
using rcmp::workloads::ScenarioConfig;

ScenarioConfig base_config() {
  auto cfg = rcmp::workloads::payload_config(/*nodes=*/8,
                                             /*chain_length=*/5,
                                             /*records_per_node=*/256);
  cfg.cluster.racks = 2;
  cfg.input_replication = 4;
  return cfg;
}

double wall_ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

FaultSchedule one_event(FaultMode mode, rcmp::SimTime downtime = 60.0) {
  FaultEvent ev;
  ev.mode = mode;
  ev.at_job_ordinal = 2;
  ev.delay = 15.0;
  ev.downtime = downtime;
  FaultSchedule plan;
  plan.events.push_back(ev);
  return plan;
}

/// Fault-free oracle total time for the base config (no detector).
double oracle_total() {
  Scenario s(base_config());
  const auto r =
      s.run(rcmp::bench::make_strategy(Strategy::kRcmpSplit));
  if (!r.completed) {
    std::fprintf(stderr, "oracle run failed to complete\n");
    std::exit(1);
  }
  return r.total_time;
}

BenchRecord latency_point(double hb, double timeout, double baseline_s) {
  auto cfg = base_config();
  cfg.detector.enabled = true;
  cfg.detector.heartbeat_interval = hb;
  cfg.detector.suspicion_timeout = timeout;

  const auto start = std::chrono::steady_clock::now();
  Scenario s(cfg);
  const auto r = s.run_chaos(
      rcmp::bench::make_strategy(Strategy::kRcmpSplit),
      one_event(FaultMode::kKill));
  const double wall = wall_ns_since(start);
  if (!r.completed) {
    std::fprintf(stderr, "latency run hb=%g to=%g did not complete\n",
                 hb, timeout);
    std::exit(1);
  }
  const double ttd = s.detector()->last_time_to_detect();
  if (ttd < 0.0 || ttd > timeout + hb + 1e-9) {
    std::fprintf(stderr,
                 "detection latency contract violated: ttd=%g with "
                 "timeout=%g interval=%g\n",
                 ttd, timeout, hb);
    std::exit(1);
  }

  BenchRecord rec;
  char name[64];
  std::snprintf(name, sizeof(name), "detector/latency/hb%g_to%g", hb,
                timeout);
  rec.name = name;
  rec.real_time_ns = wall;
  rec.counters.emplace_back("time_to_detect_s", ttd);
  rec.counters.emplace_back("total_s", r.total_time);
  rec.counters.emplace_back("slowdown", r.total_time / baseline_s);
  std::printf("hb %4.1f s  timeout %5.1f s  wall %7.1f ms  "
              "time-to-detect %5.1f s  chain %7.1f s  (%.2fx)\n",
              hb, timeout, wall / 1e6, ttd, r.total_time,
              r.total_time / baseline_s);
  return rec;
}

BenchRecord overhead_point(double baseline_s) {
  auto cfg = base_config();
  cfg.detector.enabled = true;

  const auto start = std::chrono::steady_clock::now();
  Scenario s(cfg);
  const auto r =
      s.run(rcmp::bench::make_strategy(Strategy::kRcmpSplit));
  const double wall = wall_ns_since(start);
  if (!r.completed || r.total_time != baseline_s) {
    std::fprintf(stderr,
                 "detector-on fault-free run diverged from oracle: "
                 "%.9f vs %.9f\n",
                 r.total_time, baseline_s);
    std::exit(1);
  }

  BenchRecord rec;
  rec.name = "detector/overhead/no_chaos";
  rec.real_time_ns = wall;
  rec.counters.emplace_back(
      "heartbeats",
      static_cast<double>(s.detector()->heartbeats_received()));
  rec.counters.emplace_back("total_s", r.total_time);
  std::printf("no-chaos overhead  wall %7.1f ms  heartbeats %llu  "
              "chain %7.1f s (oracle-identical)\n",
              wall / 1e6,
              static_cast<unsigned long long>(
                  s.detector()->heartbeats_received()),
              r.total_time);
  return rec;
}

BenchRecord false_suspicion_point(double baseline_s) {
  auto cfg = base_config();
  cfg.detector.enabled = true;

  const auto start = std::chrono::steady_clock::now();
  Scenario s(cfg);
  const auto r = s.run_chaos(
      rcmp::bench::make_strategy(Strategy::kRcmpSplit),
      one_event(FaultMode::kHeartbeatLoss, /*downtime=*/60.0));
  const double wall = wall_ns_since(start);
  if (!r.completed) {
    std::fprintf(stderr, "false-suspicion run did not complete\n");
    std::exit(1);
  }
  const auto* d = s.detector();
  if (d->false_suspicions() == 0 || d->reconciliations() == 0) {
    std::fprintf(stderr,
                 "heartbeat-loss drill raised no reconciled false "
                 "suspicion\n");
    std::exit(1);
  }

  BenchRecord rec;
  rec.name = "detector/overhead/false_suspicion";
  rec.real_time_ns = wall;
  rec.counters.emplace_back("false_suspicions",
                            static_cast<double>(d->false_suspicions()));
  rec.counters.emplace_back("reconciliations",
                            static_cast<double>(d->reconciliations()));
  rec.counters.emplace_back("total_s", r.total_time);
  rec.counters.emplace_back("slowdown", r.total_time / baseline_s);
  std::printf("false suspicion    wall %7.1f ms  suspected %u  "
              "reconciled %u  chain %7.1f s  (%.2fx)\n",
              wall / 1e6, d->false_suspicions(), d->reconciliations(),
              r.total_time, r.total_time / baseline_s);
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  rcmp::bench::GateArgs gate;
  if (!rcmp::bench::parse_gate_args(argc, argv, gate)) return 1;

  rcmp::bench::print_figure_header(
      "BENCH detector",
      "Heartbeat failure detector: time-to-detect across heartbeat/"
      "timeout settings on a mid-chain kill, control-plane overhead "
      "with no chaos, and the cost of one reconciled false suspicion.");

  const double baseline_s = oracle_total();
  std::vector<BenchRecord> records;
  for (const auto& [hb, timeout] :
       std::vector<std::pair<double, double>>{
           {1.0, 10.0}, {3.0, 30.0}, {5.0, 30.0}, {3.0, 60.0}}) {
    records.push_back(latency_point(hb, timeout, baseline_s));
  }
  records.push_back(overhead_point(baseline_s));
  records.push_back(false_suspicion_point(baseline_s));

  return rcmp::bench::finish_gate(gate, records);
}
