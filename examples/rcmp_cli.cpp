// rcmp_cli: a command-line driver over the full library, for exploring
// configurations without writing C++.
//
//   $ ./rcmp_cli --nodes 10 --chain 7 --strategy rcmp-split --fail 7
//   $ ./rcmp_cli --preset dco --strategy repl --replication 3
//   $ ./rcmp_cli --nodes 8 --storage-nodes 4 --fail 3 --fail 5 --verbose
//
// Prints a per-run breakdown and the chain summary. Run with --help for
// the full flag list.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "workloads/scenario.hpp"

namespace {

using namespace rcmp;

void usage() {
  std::puts(
      "rcmp_cli — RCMP multi-job failure-resilience simulator\n"
      "\n"
      "cluster:\n"
      "  --preset stic|stic22|dco     calibrated testbed preset\n"
      "  --nodes N                    node count (default 10)\n"
      "  --storage-nodes N            non-collocated: first N nodes "
      "store only\n"
      "  --slots N                    map & reduce slots per node\n"
      "  --disk-mbps X                per-node disk bandwidth\n"
      "  --oversubscription X         fabric oversubscription factor\n"
      "workload:\n"
      "  --chain N                    number of jobs (default 7)\n"
      "  --gb-per-node X              job input per node in GiB\n"
      "  --reducers N                 reducers per job (default: 1 wave)\n"
      "  --slow-shuffle               +10 s per shuffle transfer\n"
      "strategy:\n"
      "  --strategy rcmp-split|rcmp-nosplit|rcmp-scatter|repl|optimistic\n"
      "  --replication N              replication factor for repl\n"
      "  --split N                    reducer split ratio (0 = auto)\n"
      "  --hybrid-every N             static hybrid replication period\n"
      "  --hybrid-dynamic             dynamic hybrid (checkpoint "
      "interval)\n"
      "  --no-reuse                   do not reuse persisted map outputs\n"
      "memory tier (DESIGN.md §13):\n"
      "  --ram-gb X                   per-node RAM capacity in GiB\n"
      "                               (default 0 = tier disabled)\n"
      "  --mem-cost-ratio X           memory bandwidth as a multiple of\n"
      "                               disk bandwidth (default 100)\n"
      "  --memory-tier                keep intermediate outputs\n"
      "                               memory-resident (three-way hybrid\n"
      "                               with --hybrid-dynamic; needs\n"
      "                               --ram-gb)\n"
      "result cache (DESIGN.md §14):\n"
      "  --result-cache               arm the fingerprint-keyed result\n"
      "                               cache (publish + probe at every\n"
      "                               admission/replan; needs\n"
      "                               --dataset-id)\n"
      "  --dataset-id N               non-zero dataset identity anchoring\n"
      "                               the chain's fingerprints (equal ids\n"
      "                               = byte-identical input contract)\n"
      "policy (adaptive overrides on top of the static strategy):\n"
      "  --policy NAME                static|oracle|atlas|binocular\n"
      "                               (oracle reads the --fail plan)\n"
      "  --atlas-risk-threshold X     risk score that opens a bad window\n"
      "  --atlas-decay X              per-boundary risk decay, in [0, 1)\n"
      "  --policy-replication N       replicas at a policy replication\n"
      "                               point (default 2)\n"
      "  --spec-cost-ratio X          binocular: race a duplicate only\n"
      "                               when expected remaining time\n"
      "                               exceeds X times its cost\n"
      "failures:\n"
      "  --fail N                     inject a failure at job ordinal N\n"
      "                               (repeatable)\n"
      "  --seed N                     RNG seed\n"
      "coordinator recovery (DESIGN.md §15):\n"
      "  --journal                    attach the write-ahead decision\n"
      "                               journal (pure bookkeeping until a\n"
      "                               master crash)\n"
      "  --master-crash-at N          crash the coordinator at the append\n"
      "                               of journal record N and recover it\n"
      "                               by replay (needs --journal)\n"
      "  --recovery-budget N          master recoveries allowed before\n"
      "                               the chain aborts (0 = unlimited)\n"
      "  --journal-log PATH           write the journal as JSONL to PATH\n"
      "                               (needs --journal)\n"
      "detection (default: oracle model, i.e. the paper's fixed timer):\n"
      "  --detector                   heartbeat failure detector\n"
      "  --heartbeat-interval X       seconds between heartbeats\n"
      "                               (implies --detector, default 3)\n"
      "  --suspicion-timeout X        seconds without a heartbeat before\n"
      "                               suspicion (implies --detector,\n"
      "                               default 30)\n"
      "  --quarantine-threshold N     failed attempts before a node is\n"
      "                               blacklisted, 0 disables (implies\n"
      "                               --detector, default 3)\n"
      "misc:\n"
      "  --speculation                enable speculative execution\n"
      "  --trace PATH                 write a JSONL event trace to PATH\n"
      "                               (and Chrome trace_event JSON to\n"
      "                               PATH.chrome.json)\n"
      "  --metrics PATH               write the metrics registry JSON\n"
      "  --no-audit                   disable the invariant auditor\n"
      "  --verbose                    narrate job lifecycle events\n");
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "rcmp_sim: %s (try --help)\n", msg.c_str());
  std::exit(2);
}

void write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) die("cannot write " + path);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  workloads::ScenarioConfig cfg = workloads::stic_config(1, 1);
  core::StrategyConfig strategy;
  strategy.strategy = core::Strategy::kRcmpSplit;
  cluster::FailurePlan failures;
  bool nodes_set = false;
  std::string trace_path;
  std::string metrics_path;
  std::string journal_path;
  std::optional<std::uint64_t> master_crash_at;
  std::string policy_name;
  core::PolicyParams policy_params;
  bool policy_knob_set = false;

  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) die(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--preset") {
      const std::string p = next_value(i);
      if (p == "stic") {
        cfg = workloads::stic_config(1, 1);
      } else if (p == "stic22") {
        cfg = workloads::stic_config(2, 2);
      } else if (p == "dco") {
        cfg = workloads::dco_config();
      } else {
        die("unknown preset: " + p);
      }
    } else if (arg == "--nodes") {
      cfg.cluster.nodes = static_cast<std::uint32_t>(
          std::atoi(next_value(i)));
      nodes_set = true;
    } else if (arg == "--storage-nodes") {
      cfg.cluster.storage_nodes = static_cast<std::uint32_t>(
          std::atoi(next_value(i)));
    } else if (arg == "--slots") {
      const auto s = static_cast<std::uint32_t>(std::atoi(next_value(i)));
      cfg.cluster.map_slots = s;
      cfg.cluster.reduce_slots = s;
    } else if (arg == "--disk-mbps") {
      cfg.cluster.disk_bw = std::atof(next_value(i)) * 1e6;
    } else if (arg == "--oversubscription") {
      cfg.cluster.fabric_oversubscription = std::atof(next_value(i));
    } else if (arg == "--chain") {
      cfg.chain_length = static_cast<std::uint32_t>(
          std::atoi(next_value(i)));
    } else if (arg == "--gb-per-node") {
      cfg.per_node_input =
          static_cast<Bytes>(std::atof(next_value(i)) * kGiB);
    } else if (arg == "--reducers") {
      cfg.reducers_per_job = static_cast<std::uint32_t>(
          std::atoi(next_value(i)));
    } else if (arg == "--slow-shuffle") {
      cfg.engine.shuffle_tail_latency = 10.0;
    } else if (arg == "--strategy") {
      const std::string s = next_value(i);
      if (s == "rcmp-split") {
        strategy.strategy = core::Strategy::kRcmpSplit;
      } else if (s == "rcmp-nosplit") {
        strategy.strategy = core::Strategy::kRcmpNoSplit;
      } else if (s == "rcmp-scatter") {
        strategy.strategy = core::Strategy::kRcmpScatter;
      } else if (s == "repl") {
        strategy.strategy = core::Strategy::kReplication;
        if (strategy.replication < 2) strategy.replication = 3;
      } else if (s == "optimistic") {
        strategy.strategy = core::Strategy::kOptimistic;
      } else {
        die("unknown strategy: " + s);
      }
    } else if (arg == "--replication") {
      strategy.replication = static_cast<std::uint32_t>(
          std::atoi(next_value(i)));
    } else if (arg == "--split") {
      strategy.split_factor = static_cast<std::uint32_t>(
          std::atoi(next_value(i)));
    } else if (arg == "--hybrid-every") {
      strategy.hybrid_every = static_cast<std::uint32_t>(
          std::atoi(next_value(i)));
    } else if (arg == "--hybrid-dynamic") {
      strategy.hybrid_dynamic = true;
    } else if (arg == "--no-reuse") {
      strategy.reuse_map_outputs = false;
    } else if (arg == "--ram-gb") {
      cfg.cluster.ram_bytes =
          static_cast<Bytes>(std::atof(next_value(i)) * kGiB);
    } else if (arg == "--mem-cost-ratio") {
      cfg.cluster.mem_cost_ratio = std::atof(next_value(i));
    } else if (arg == "--memory-tier") {
      strategy.memory_tier = true;
    } else if (arg == "--result-cache") {
      strategy.result_cache = true;
    } else if (arg == "--dataset-id") {
      cfg.dataset_id = static_cast<std::uint64_t>(
          std::atoll(next_value(i)));
    } else if (arg == "--policy") {
      policy_name = next_value(i);
    } else if (arg == "--atlas-risk-threshold") {
      policy_params.atlas.risk_threshold = std::atof(next_value(i));
      policy_knob_set = true;
    } else if (arg == "--atlas-decay") {
      policy_params.atlas.decay = std::atof(next_value(i));
      policy_knob_set = true;
    } else if (arg == "--policy-replication") {
      policy_params.replication = static_cast<std::uint32_t>(
          std::atoi(next_value(i)));
      policy_params.atlas.replication = policy_params.replication;
      policy_knob_set = true;
    } else if (arg == "--spec-cost-ratio") {
      policy_params.binocular.cost_ratio = std::atof(next_value(i));
      policy_knob_set = true;
    } else if (arg == "--fail") {
      failures.at_job_ordinals.push_back(
          static_cast<std::uint32_t>(std::atoi(next_value(i))));
    } else if (arg == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(std::atoll(next_value(i)));
    } else if (arg == "--journal") {
      cfg.journal = true;
    } else if (arg == "--master-crash-at") {
      master_crash_at =
          static_cast<std::uint64_t>(std::atoll(next_value(i)));
    } else if (arg == "--recovery-budget") {
      strategy.max_master_recoveries = static_cast<std::uint32_t>(
          std::atoi(next_value(i)));
    } else if (arg == "--journal-log") {
      journal_path = next_value(i);
    } else if (arg == "--detector") {
      cfg.detector.enabled = true;
    } else if (arg == "--heartbeat-interval") {
      cfg.detector.enabled = true;
      cfg.detector.heartbeat_interval = std::atof(next_value(i));
    } else if (arg == "--suspicion-timeout") {
      cfg.detector.enabled = true;
      cfg.detector.suspicion_timeout = std::atof(next_value(i));
    } else if (arg == "--quarantine-threshold") {
      cfg.detector.enabled = true;
      cfg.detector.quarantine_threshold = static_cast<std::uint32_t>(
          std::atoi(next_value(i)));
    } else if (arg == "--speculation") {
      cfg.engine.speculative_execution = true;
    } else if (arg == "--trace") {
      trace_path = next_value(i);
      cfg.trace_capacity = 1 << 20;
    } else if (arg == "--metrics") {
      metrics_path = next_value(i);
    } else if (arg == "--no-audit") {
      cfg.audit = false;
    } else if (arg == "--verbose") {
      Log::set_level(LogLevel::kInfo);
    } else {
      die("unknown flag: " + arg);
    }
  }
  if (nodes_set && cfg.cluster.nodes < 2) die("need at least 2 nodes");
  if (strategy.memory_tier && cfg.cluster.ram_bytes == 0) {
    die("--memory-tier needs a RAM capacity (--ram-gb)");
  }
  if (strategy.result_cache && cfg.dataset_id == 0) {
    die("--result-cache needs a dataset identity (--dataset-id)");
  }
  if (master_crash_at.has_value() && !cfg.journal) {
    die("--master-crash-at needs --journal (a crashed coordinator "
        "cannot recover without a write-ahead journal)");
  }
  if (!journal_path.empty() && !cfg.journal) {
    die("--journal-log needs --journal");
  }
  // Infeasible combinations (replication > nodes, impossible failure
  // plans, ...) are validated by the library; report them like any
  // other bad flag instead of terminating on the exception.
  std::optional<workloads::Scenario> scenario;
  core::ChainResult result;
  try {
    // A policy knob without --policy still gets validated (against the
    // inert static shim), so a typo'd threshold fails fast either way.
    if (!policy_name.empty() || policy_knob_set) {
      policy_params.oracle_fault_ordinals = failures.at_job_ordinals;
      strategy.policy = core::make_policy(
          policy_name.empty() ? "static" : policy_name, policy_params);
    }
    scenario.emplace(cfg);
    if (master_crash_at.has_value()) {
      scenario->arm_master_crash(*master_crash_at);
    }
    result = scenario->run(strategy, failures);
  } catch (const ConfigError& e) {
    die(e.what());
  }

  if (!trace_path.empty()) {
    write_file(trace_path, scenario->obs().tracer.export_jsonl());
    write_file(trace_path + ".chrome.json",
               scenario->obs().tracer.export_chrome());
  }
  if (!metrics_path.empty()) {
    write_file(metrics_path, scenario->obs().metrics.dump_json());
  }
  if (!journal_path.empty()) {
    write_file(journal_path, scenario->journal()->export_jsonl());
  }

  Table t({"#", "job", "kind", "status", "duration (s)", "mappers",
           "(reused)", "reducers"});
  for (const auto& run : result.runs) {
    const char* status =
        run.status == mapred::JobResult::Status::kCompleted ? "ok"
        : run.status == mapred::JobResult::Status::kCancelled
            ? "cancelled"
            : "aborted";
    t.add_row({std::to_string(run.ordinal),
               "job" + std::to_string(run.logical_id + 1),
               run.was_recompute ? "recompute" : "initial", status,
               Table::num(run.duration(), 1),
               std::to_string(run.mappers_executed),
               std::to_string(run.mappers_reused),
               std::to_string(run.reducers_executed)});
  }
  std::fputs(t.to_string().c_str(), stdout);
  if (const cluster::FailureDetector* d = scenario->detector()) {
    std::printf(
        "\ndetector: %llu heartbeats, %u suspicion(s) (%u false, "
        "%u reconciled), %u quarantine(s)",
        static_cast<unsigned long long>(d->heartbeats_received()),
        d->suspicions(), d->false_suspicions(), d->reconciliations(),
        d->quarantines());
    if (d->last_time_to_detect() >= 0.0) {
      std::printf(", last time-to-detect %.1f s", d->last_time_to_detect());
    }
    std::printf("\n");
  }
  if (result.policy_decisions > 0 || result.policy_pre_replications > 0 ||
      result.policy_speculation_gated > 0) {
    std::printf(
        "\npolicy %s: %u decision(s), %u pre-replication(s), "
        "%u speculation launch(es) gated\n",
        policy_name.c_str(), result.policy_decisions,
        result.policy_pre_replications, result.policy_speculation_gated);
  }
  if (strategy.result_cache) {
    std::printf("\nresult cache: %u hit(s), %u publication(s)\n",
                result.cache_hits, result.cache_published);
  }
  if (result.master_crashes > 0) {
    std::printf(
        "\nmaster: %u crash(es) recovered by journal replay "
        "(%zu records durable)\n",
        result.master_crashes, scenario->journal()->size());
  }
  std::printf(
      "\nchain %s in %.1f simulated seconds — %u jobs started, "
      "%u failures, %u restarts, peak storage %.1f GB\n",
      result.completed ? "completed" : "DID NOT COMPLETE",
      result.total_time, result.jobs_started, result.failures_observed,
      result.restarts, static_cast<double>(result.peak_storage) / 1e9);
  return result.completed ? 0 : 1;
}
