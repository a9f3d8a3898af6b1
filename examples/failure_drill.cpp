// Failure drill: subject one computation to an escalating series of
// failure scenarios — single, double, nested, and "everything at once" —
// and verify after each that the final output is byte-equivalent to the
// failure-free run. This is the example to adapt when qualifying RCMP's
// recovery behavior for an ops runbook.
//
// Three parts:
//   1. classic ordinal kill drills (the paper's §V-A methodology),
//   2. typed chaos drills — transient rejoin, disk-only loss,
//      compute-only loss, rack outage, silent corruption — via the
//      ChaosEngine on a two-rack 7-job chain,
//   3. a trace-driven campaign: a STIC-like availability trace
//      (failure_trace.hpp) compressed into a FaultSchedule and replayed
//      end to end.
//
//   $ ./failure_drill
//   $ ./failure_drill --trace drill.jsonl --metrics drill-metrics.json
//
// --trace/--metrics apply to the "all five modes at once" chaos drill
// (the richest one); --trace also writes PATH.chrome.json for
// chrome://tracing. Same build + same (default) seeds => byte-identical
// exports.
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>

#include "cluster/chaos.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "workloads/scenario.hpp"

namespace {

using namespace rcmp;

// Resilience policy applied to every drill (--policy); empty = the
// static baseline. Oracle receives each drill's own fault ordinals.
std::string g_policy_name;                 // NOLINT
core::PolicyParams g_policy_params;        // NOLINT

core::StrategyConfig drill_strategy(
    std::vector<std::uint32_t> fault_ordinals = {}) {
  core::StrategyConfig strategy;
  strategy.strategy = core::Strategy::kRcmpSplit;
  if (!g_policy_name.empty()) {
    core::PolicyParams params = g_policy_params;
    params.oracle_fault_ordinals = std::move(fault_ordinals);
    strategy.policy = core::make_policy(g_policy_name, params);
  }
  return strategy;
}

std::vector<std::uint32_t> schedule_ordinals(
    const cluster::FaultSchedule& schedule) {
  std::vector<std::uint32_t> ordinals;
  for (const auto& ev : schedule.events) {
    ordinals.push_back(ev.at_job_ordinal);
  }
  return ordinals;
}

mapred::Checksum reference_for(const workloads::ScenarioConfig& config,
                               double* clean_time) {
  workloads::Scenario scenario(config);
  core::StrategyConfig strategy;
  strategy.strategy = core::Strategy::kRcmpSplit;
  *clean_time = scenario.run(strategy).total_time;
  return scenario.final_output_checksum();
}

const char* outcome_label(const core::ChainResult& result, bool checksum_ok) {
  if (!result.completed) {
    switch (result.fail_reason) {
      case core::ChainResult::FailReason::kSourceDataLost:
        return "FAILED(source)";
      case core::ChainResult::FailReason::kCapacityFloor:
        return "FAILED(floor)";
      case core::ChainResult::FailReason::kRetryBudgetExhausted:
        return "FAILED(budget)";
      case core::ChainResult::FailReason::kRecoveryBudgetExhausted:
        return "FAILED(recovery)";
      case core::ChainResult::FailReason::kNone:
        return "FAILED";
    }
  }
  return checksum_ok ? "VERIFIED" : "CORRUPT";
}

void write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "failure_drill: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string metrics_path;
  // Detector overrides; --detector (or any knob) also reruns parts 1-3
  // under heartbeat detection instead of the oracle. Part 4 always uses
  // the detector.
  cluster::DetectorConfig detcfg;
  bool use_detector = false;
  // Coordinator-recovery knobs: --journal attaches the write-ahead
  // decision journal to every chaos drill (pure bookkeeping — outputs
  // must stay byte-identical); the master-crash drills always journal.
  bool journal_all = false;
  std::string journal_path;
  long master_crash_at = -1;
  std::uint32_t recovery_budget = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace" && has_value) {
      trace_path = argv[++i];
    } else if (arg == "--metrics" && has_value) {
      metrics_path = argv[++i];
    } else if (arg == "--detector") {
      use_detector = true;
    } else if (arg == "--heartbeat-interval" && has_value) {
      use_detector = true;
      detcfg.heartbeat_interval = std::atof(argv[++i]);
    } else if (arg == "--suspicion-timeout" && has_value) {
      use_detector = true;
      detcfg.suspicion_timeout = std::atof(argv[++i]);
    } else if (arg == "--quarantine-threshold" && has_value) {
      use_detector = true;
      detcfg.quarantine_threshold =
          static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--policy" && has_value) {
      g_policy_name = argv[++i];
    } else if (arg == "--atlas-risk-threshold" && has_value) {
      g_policy_params.atlas.risk_threshold = std::atof(argv[++i]);
    } else if (arg == "--atlas-decay" && has_value) {
      g_policy_params.atlas.decay = std::atof(argv[++i]);
    } else if (arg == "--spec-cost-ratio" && has_value) {
      g_policy_params.binocular.cost_ratio = std::atof(argv[++i]);
    } else if (arg == "--journal") {
      journal_all = true;
    } else if (arg == "--journal-log" && has_value) {
      journal_path = argv[++i];
    } else if (arg == "--master-crash-at" && has_value) {
      master_crash_at = std::atol(argv[++i]);
    } else if (arg == "--recovery-budget" && has_value) {
      recovery_budget = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: failure_drill [--trace PATH] [--metrics PATH]\n"
                   "                     [--detector]\n"
                   "                     [--heartbeat-interval SECONDS]\n"
                   "                     [--suspicion-timeout SECONDS]\n"
                   "                     [--quarantine-threshold N]\n"
                   "                     [--policy "
                   "static|oracle|atlas|binocular]\n"
                   "                     [--atlas-risk-threshold X]\n"
                   "                     [--atlas-decay X]\n"
                   "                     [--spec-cost-ratio X]\n"
                   "                     [--journal] [--journal-log PATH]\n"
                   "                     [--master-crash-at RECORD]\n"
                   "                     [--recovery-budget N]\n");
      return 2;
    }
  }
  if (master_crash_at >= 0 && !journal_all) {
    std::fprintf(stderr,
                 "failure_drill: --master-crash-at needs --journal (a "
                 "crashed coordinator cannot recover without a "
                 "write-ahead journal)\n");
    return 2;
  }
  // Validate the policy knobs up front (ConfigError, like any other bad
  // flag) instead of dying mid-drill.
  try {
    core::make_policy(g_policy_name.empty() ? "static" : g_policy_name,
                      g_policy_params);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "failure_drill: %s\n", e.what());
    return 2;
  }
  detcfg.enabled = use_detector;
  // Reject bad knobs here with a clean exit instead of letting the
  // detector's ConfigError terminate mid-drill.
  if (use_detector &&
      (detcfg.heartbeat_interval <= 0.0 ||
       detcfg.suspicion_timeout <= 0.0)) {
    std::fprintf(stderr,
                 "failure_drill: heartbeat interval and suspicion "
                 "timeout must be positive\n");
    return 2;
  }

  bool all_ok = true;

  // -- part 1: the paper's ordinal kill drills ------------------------
  auto config =
      workloads::payload_config(/*nodes=*/8, /*chain_length=*/5,
                                /*records_per_node=*/512);
  config.detector = detcfg;
  double clean_time = 0.0;
  const mapred::Checksum reference = reference_for(config, &clean_time);
  std::printf("reference run: %.1f s, %llu records\n\n", clean_time,
              static_cast<unsigned long long>(reference.count));

  struct Drill {
    const char* name;
    std::vector<std::uint32_t> failures;
  };
  const Drill drills[] = {
      {"single failure, early (job 2)", {2}},
      {"single failure, late (job 5)", {5}},
      {"double failure, same job", {3, 3}},
      {"double failure, spread", {2, 5}},
      {"nested failure (during recovery)", {4, 6}},
      {"triple failure", {2, 4, 6}},
  };

  Table t({"drill", "failures", "jobs started", "slowdown", "output"});
  for (const Drill& d : drills) {
    workloads::Scenario scenario(config);
    const core::StrategyConfig strategy = drill_strategy(d.failures);
    cluster::FailurePlan plan;
    plan.at_job_ordinals = d.failures;
    const auto result = scenario.run(strategy, plan);
    const bool ok =
        result.completed && scenario.final_output_checksum() == reference;
    all_ok &= ok;
    t.add_row({d.name, std::to_string(result.failures_observed),
               std::to_string(result.jobs_started),
               Table::num(result.total_time / clean_time) + "x",
               outcome_label(result, ok)});
  }
  std::fputs(t.to_string().c_str(), stdout);

  // -- part 2: typed chaos drills on a two-rack 7-job chain -----------
  auto chaos_config =
      workloads::payload_config(/*nodes=*/10, /*chain_length=*/7,
                                /*records_per_node=*/512);
  chaos_config.cluster.racks = 2;
  chaos_config.detector = detcfg;
  // Storage loss is permanent in this simulator (no re-replication), so
  // the campaign's source-input durability is pure replication headroom:
  // with replication 4, any three storage-loss events provably cannot
  // destroy a source partition.
  chaos_config.input_replication = 4;
  chaos_config.journal = journal_all;
  double chaos_clean = 0.0;
  const mapred::Checksum chaos_ref =
      reference_for(chaos_config, &chaos_clean);

  using cluster::FaultEvent;
  using cluster::FaultMode;
  struct ChaosDrill {
    const char* name;
    cluster::FaultSchedule schedule;
  };
  const ChaosDrill chaos_drills[] = {
      {"transient (kill + rejoin)",
       {{FaultEvent{FaultMode::kTransient, 2, 15.0, cluster::kInvalidNode,
                    cluster::kAnyRack, 120.0}}}},
      {"disk-only loss (node keeps computing)",
       {{FaultEvent{FaultMode::kDisk, 3, 15.0}}}},
      {"compute-only loss (data survives)",
       {{FaultEvent{FaultMode::kCompute, 3, 15.0}}}},
      {"rack outage",
       {{FaultEvent{FaultMode::kRack, 2, 15.0, cluster::kInvalidNode, 1}}}},
      {"silent DFS corruption",
       {{FaultEvent{FaultMode::kCorruptPartition, 3, 5.0}}}},
      {"silent map-output corruption",
       {{FaultEvent{FaultMode::kCorruptMapOutput, 2, 20.0}}}},
      {"all five modes at once",
       {{FaultEvent{FaultMode::kTransient, 2, 15.0, cluster::kInvalidNode,
                    cluster::kAnyRack, 120.0},
         FaultEvent{FaultMode::kDisk, 3, 10.0},
         FaultEvent{FaultMode::kCorruptPartition, 4, 5.0},
         FaultEvent{FaultMode::kCompute, 5, 12.0},
         FaultEvent{FaultMode::kCorruptMapOutput, 5, 20.0},
         FaultEvent{FaultMode::kKill, 6, 15.0},
         FaultEvent{FaultMode::kRack, 7, 15.0, cluster::kInvalidNode, 1}}}},
  };

  std::printf("\nchaos drills (typed fault injection, 2 racks, 7 jobs):\n");
  Table ct({"drill", "injected", "recoveries", "replans", "slowdown",
            "output"});
  for (std::size_t di = 0; di < std::size(chaos_drills); ++di) {
    const ChaosDrill& d = chaos_drills[di];
    // The last (richest) drill is the one --trace/--metrics capture.
    const bool exported = di + 1 == std::size(chaos_drills);
    auto drill_config = chaos_config;
    if (exported && !trace_path.empty()) {
      drill_config.trace_capacity = 1 << 20;
    }
    workloads::Scenario scenario(drill_config);
    if (exported && master_crash_at >= 0) {
      scenario.arm_master_crash(static_cast<std::uint64_t>(master_crash_at));
    }
    const core::StrategyConfig strategy =
        drill_strategy(schedule_ordinals(d.schedule));
    const auto result = scenario.run_chaos(strategy, d.schedule);
    const auto& counts = scenario.injector()->counts();
    const bool ok =
        result.completed && scenario.final_output_checksum() == chaos_ref;
    all_ok &= ok;
    ct.add_row({d.name, std::to_string(counts.injected()),
                std::to_string(counts.recoveries),
                std::to_string(result.replans),
                Table::num(result.total_time / chaos_clean) + "x",
                outcome_label(result, ok)});
    if (exported) {
      if (!trace_path.empty()) {
        write_file(trace_path, scenario.obs().tracer.export_jsonl());
        write_file(trace_path + ".chrome.json",
                   scenario.obs().tracer.export_chrome());
      }
      if (!metrics_path.empty()) {
        write_file(metrics_path, scenario.obs().metrics.dump_json());
      }
    }
  }
  std::fputs(ct.to_string().c_str(), stdout);

  // -- part 2b: master-crash drills (write-ahead journal replay) ------
  // The one component every drill above leaves untouched is the
  // coordinator itself. These drills kill it mid-chain — volatile
  // scheduling state, cache registry and detector bookkeeping are wiped
  // — and a fresh coordinator must replay the decision journal against
  // the surviving cluster ledger and still produce byte-identical
  // output.
  auto mc_config = chaos_config;
  mc_config.journal = true;
  struct MasterDrill {
    const char* name;
    cluster::FaultSchedule schedule;
  };
  const MasterDrill mc_drills[] = {
      {"master crash, early (job 2)",
       {{FaultEvent{FaultMode::kMasterCrash, 2, 15.0}}}},
      {"master crash, late (job 6)",
       {{FaultEvent{FaultMode::kMasterCrash, 6, 15.0}}}},
      {"double master crash",
       {{FaultEvent{FaultMode::kMasterCrash, 2, 15.0},
         FaultEvent{FaultMode::kMasterCrash, 5, 12.0}}}},
      {"master crash during node-kill recovery",
       {{FaultEvent{FaultMode::kKill, 3, 15.0},
         FaultEvent{FaultMode::kMasterCrash, 4, 10.0}}}},
  };

  std::printf("\nmaster-crash drills (coordinator killed, journal "
              "replay):\n");
  Table mct({"drill", "crashes", "journaled", "replans", "slowdown",
             "output"});
  for (std::size_t mi = 0; mi < std::size(mc_drills); ++mi) {
    const MasterDrill& d = mc_drills[mi];
    workloads::Scenario scenario(mc_config);
    core::StrategyConfig strategy =
        drill_strategy(schedule_ordinals(d.schedule));
    strategy.max_master_recoveries = recovery_budget;
    const auto result = scenario.run_chaos(strategy, d.schedule);
    const bool ok =
        result.completed && scenario.final_output_checksum() == chaos_ref;
    all_ok &= ok;
    mct.add_row({d.name, std::to_string(result.master_crashes),
                 std::to_string(scenario.journal()->size()),
                 std::to_string(result.replans),
                 Table::num(result.total_time / chaos_clean) + "x",
                 outcome_label(result, ok)});
    // The last (richest) drill's journal is the --journal-log artifact.
    if (mi + 1 == std::size(mc_drills) && !journal_path.empty()) {
      write_file(journal_path, scenario.journal()->export_jsonl());
    }
  }
  std::fputs(mct.to_string().c_str(), stdout);

  // -- part 3: trace-driven campaign ----------------------------------
  // Compress a multi-year availability trace into a chaos schedule.
  // Every storage-loss event in this simulator is permanent (no
  // re-replication), so the drill keeps the per-campaign event count
  // below the input replication headroom — the same calculation an ops
  // team makes when sizing a real campaign.
  std::printf("\ntrace-driven campaign (STIC-like availability trace):\n");
  Table tt({"seed", "events", "injected", "transients", "disk", "compute",
            "slowdown", "output"});
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto trace =
        cluster::generate_trace(cluster::stic_trace_model(), seed);
    cluster::TraceScheduleOptions opt;
    opt.max_events = 3;
    opt.p_transient = 0.6;  // most real failures are reboots
    opt.p_disk = 0.2;
    opt.p_compute = 0.2;  // no permanent kills in this drill
    const auto schedule = cluster::schedule_from_trace(trace, opt, seed);

    workloads::Scenario scenario(chaos_config);
    const core::StrategyConfig strategy =
        drill_strategy(schedule_ordinals(schedule));
    const auto result = scenario.run_chaos(strategy, schedule);
    const auto& counts = scenario.injector()->counts();
    const bool ok =
        result.completed && scenario.final_output_checksum() == chaos_ref;
    all_ok &= ok;
    tt.add_row({std::to_string(seed),
                std::to_string(schedule.events.size()),
                std::to_string(counts.injected()),
                std::to_string(counts.transients),
                std::to_string(counts.disk_failures),
                std::to_string(counts.compute_failures),
                Table::num(result.total_time / chaos_clean) + "x",
                outcome_label(result, ok)});
  }
  std::fputs(tt.to_string().c_str(), stdout);

  // -- part 4: heartbeat-detector drills ------------------------------
  // The oracle never suspects a live node; heartbeats do. Each drill
  // verifies that detection mistakes — a partitioned-but-alive node, a
  // healthy node whose heartbeats are lost, and a real kill seen only
  // through silence — still end in byte-identical output.
  auto det_config = chaos_config;
  det_config.detector = detcfg;
  det_config.detector.enabled = true;
  struct DetectorDrill {
    const char* name;
    cluster::FaultSchedule schedule;
  };
  const DetectorDrill det_drills[] = {
      {"kill, seen only through missing heartbeats",
       {{FaultEvent{FaultMode::kKill, 3, 15.0}}}},
      {"network partition (false suspicion, heals)",
       {{FaultEvent{FaultMode::kNetworkPartition, 3, 15.0,
                    cluster::kInvalidNode, cluster::kAnyRack, 60.0}}}},
      {"heartbeat loss only (node stays healthy)",
       {{FaultEvent{FaultMode::kHeartbeatLoss, 3, 15.0,
                    cluster::kInvalidNode, cluster::kAnyRack, 60.0}}}},
  };

  std::printf("\ndetector drills (heartbeats replace the failure oracle):\n");
  Table dt({"drill", "suspicions", "false", "reconciled", "quarantines",
            "ttd (s)", "slowdown", "output"});
  for (const DetectorDrill& d : det_drills) {
    workloads::Scenario scenario(det_config);
    const core::StrategyConfig strategy =
        drill_strategy(schedule_ordinals(d.schedule));
    const auto result = scenario.run_chaos(strategy, d.schedule);
    const cluster::FailureDetector& det = *scenario.detector();
    const bool ok =
        result.completed && scenario.final_output_checksum() == chaos_ref;
    all_ok &= ok;
    dt.add_row({d.name, std::to_string(det.suspicions()),
                std::to_string(det.false_suspicions()),
                std::to_string(det.reconciliations()),
                std::to_string(det.quarantines()),
                det.last_time_to_detect() >= 0.0
                    ? Table::num(det.last_time_to_detect(), 1)
                    : "-",
                Table::num(result.total_time / chaos_clean) + "x",
                outcome_label(result, ok)});
  }
  std::fputs(dt.to_string().c_str(), stdout);

  std::printf("\n%s\n", all_ok ? "all drills recovered with identical "
                                 "output."
                               : "DRILL FAILURE — see table.");
  return all_ok ? 0 : 1;
}
