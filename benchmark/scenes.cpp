#include "scenes.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>

#include "common/error.hpp"
#include "obs/audit.hpp"
#include "oracle.hpp"
#include "workloads/multi_scenario.hpp"
#include "workloads/scenario.hpp"

namespace rcmp::rbench {
namespace {

using Clock = std::chrono::steady_clock;
using cluster::FaultEvent;
using cluster::FaultMode;

// --- workload shapes ---------------------------------------------------
//
// Each optimisable layer does most of its work in one workload and
// little in another (README.md has the full map):
//   dco_late_kill   event queue, flow network, engine task scheduling;
//   tenants_steady  multi-tenant scheduler and middleware, no recovery;
//   tenants_chaos   the same tenants through replan, detector, journal
//                   replay and failure-point audits;
//   cache_shared    result-cache reads next to publishes, where the
//                   auditor's eager replay dominates host time.
//
// The three multi-tenant scenes share one 8-node cluster shape, sized so
// that a drive takes under a second: a run then holds seventeen rounds
// or more, enough that its fastest round is a fast-mode round even on a
// contended host (see rcmp_bench.cpp).

constexpr std::uint32_t kTenantNodes = 8;
constexpr std::uint32_t kTenantChains = 40;
constexpr std::uint32_t kTenantChainLength = 5;
constexpr std::uint32_t kRecordsPerNode = 64;
constexpr std::uint32_t kCacheChains = 64;
constexpr std::uint32_t kCacheDatasets = 8;
/// A run constructs its scene at least kSetups times and for at least
/// kSetupSeconds: the DCO scene builds in about 2 ms, and with three
/// samples per round its setup_s median spread over 20% across runs.
constexpr int kSetups = 3;
constexpr double kSetupSeconds = 0.05;
/// Ring large enough that no workload overwrites a traced event.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 22;
/// Over ten times the busiest workload's events: a wedged scene (every
/// chain stalled while heartbeats keep ticking) fails the run instead of
/// hanging it.
constexpr std::uint64_t kMaxEvents = 5'000'000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

core::StrategyConfig rcmp_split() {
  core::StrategyConfig s;
  s.strategy = core::Strategy::kRcmpSplit;
  return s;
}

workloads::MultiScenarioConfig tenant_scene(std::uint32_t chains,
                                            std::uint64_t seed) {
  workloads::MultiScenarioConfig cfg;
  cfg.base = workloads::payload_config(kTenantNodes, kTenantChainLength,
                                       kRecordsPerNode);
  cfg.base.cluster.racks = 2;
  cfg.base.seed = seed;
  cfg.chains = chains;
  return cfg;
}

/// Authored schedule over the 200+ global job starts of tenants_chaos:
/// every fault mode except rack kills, victims drawn from the seed at
/// fire time. Three storage losses (kill, transient, disk) stay below
/// the input replication of 4, so no source partition can be lost.
///
/// The shape keeps every run finishing, which the benchmark needs:
///  - ordinals start after the first wave (ordinals 1-40 all start at
///    t=0, before any map output exists to corrupt);
///  - downtimes outlast the detector's 30 s suspicion timeout, because a
///    transient node that rejoins before it is suspected stalls every
///    chain (its lost tasks are never reported);
///  - node losses come first and the two coordinator crashes last: with
///    a crash before or between the losses, some seeds leave a chain
///    replanning the same job forever.
cluster::FaultSchedule chaos_schedule() {
  cluster::FaultSchedule s;
  const FaultMode modes[] = {
      FaultMode::kKill,          FaultMode::kCompute,
      FaultMode::kTransient,     FaultMode::kDisk,
      FaultMode::kCompute,       FaultMode::kCorruptMapOutput,
      FaultMode::kCorruptPartition, FaultMode::kNetworkPartition,
      FaultMode::kHeartbeatLoss, FaultMode::kMasterCrash,
      FaultMode::kMasterCrash,
  };
  std::uint32_t ordinal = 45;
  for (FaultMode mode : modes) {
    FaultEvent ev;
    ev.mode = mode;
    ev.at_job_ordinal = ordinal;
    ev.delay = 1.0;
    ev.downtime = 60.0;
    s.events.push_back(ev);
    ordinal += 15;
  }
  return s;
}

/// Benchmark-side spans around the calls into each layer, kept in memory
/// and written as Chrome trace_event JSON when the run ends.
class SpanLog {
 public:
  /// Opens a span under `parent` (0 = none); returns its id.
  std::uint32_t open(const char* name, std::uint32_t parent) {
    spans_.push_back({name, now_us(), -1.0, parent});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void close(std::uint32_t id) { spans_[id - 1].end_us = now_us(); }

  /// Seconds covered by closed spans whose name starts with `prefix`.
  double total_s(std::string_view prefix) const {
    double us = 0.0;
    for (const Span& s : spans_) {
      if (s.end_us >= 0.0 && std::string_view(s.name).starts_with(prefix)) {
        us += s.end_us - s.start_us;
      }
    }
    return us * 1e-6;
  }

  std::string chrome_json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"traceEvents\":[";
    const char* sep = "\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_us < 0.0) continue;  // left open by an exception
      os << sep << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
         << ",\"dur\":" << s.end_us - s.start_us << ",\"args\":{\"id\":"
         << i + 1 << ",\"parent\":" << s.parent << "}}";
      sep = ",\n";
    }
    os << "\n]}\n";
    return os.str();
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;  // < 0 while open
    std::uint32_t parent;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Wraps one auditor entry point so every call records a span under
/// `*parent` (the drive span, opened after the wrapping).
template <class... A>
void time_hook(std::function<void(A...)>& hook, const char* name,
               SpanLog& log, const std::uint32_t* parent) {
  if (!hook) return;
  hook = [inner = std::move(hook), name, &log, parent](A... args) {
    const std::uint32_t id = log.open(name, *parent);
    inner(args...);
    log.close(id);
  };
}

/// One run's measurement state, shared by both scene types. The timed
/// hooks hold pointers into it, so it never moves.
struct Run {
  explicit Run(const RunOptions& o) : opt(o) {}
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  const RunOptions& opt;
  RunReport rep;
  SpanLog spans;
  std::uint32_t root = spans.open("run", 0);
  std::uint32_t drive = 0;

  /// Constructs the scene repeatedly (see kSetups), timing each, and
  /// keeps the last one. Traced runs then time the auditor's entry
  /// points.
  template <class Scene, class Config>
  std::unique_ptr<Scene> build(const Config& cfg) {
    std::unique_ptr<Scene> scene;
    double spent = 0.0;
    for (int i = 0; i < kSetups || spent < kSetupSeconds; ++i) {
      scene.reset();
      const auto t0 = Clock::now();
      const std::uint32_t id = spans.open("setup", root);
      scene = std::make_unique<Scene>(cfg);
      spans.close(id);
      rep.setup_s.push_back(seconds_since(t0));
      spent += rep.setup_s.back();
    }
    scene->sim().set_max_events(kMaxEvents);
    if (opt.traced) {
      obs::Observability& obs = scene->obs();
      time_hook(obs.audit_hook, "audit.run_checks", spans, &drive);
      time_hook(obs.reuse_hook, "audit.reuse", spans, &drive);
      time_hook(obs.cache_hit_hook, "audit.cache_hit", spans, &drive);
      time_hook(obs.journal_replay_hook, "audit.journal_replay", spans,
                &drive);
      time_hook(obs.eviction_check_hook, "audit.eviction", spans, &drive);
      time_hook(obs.policy_replication_hook, "audit.policy_replication",
                spans, &drive);
    }
    return scene;
  }

  /// Times `fn`, the whole simulated run; false when it threw.
  template <class F>
  bool timed_drive(F&& fn) {
    const auto t0 = Clock::now();
    drive = spans.open("drive", root);
    try {
      fn();
    } catch (const std::exception& e) {
      rep.error = e.what();
    }
    spans.close(drive);
    rep.drive_s = seconds_since(t0);
    return rep.error.empty();
  }

  /// Tracer-side counts plus the export cost; writes both traces when
  /// the run has a trace directory.
  void trace_values(const obs::Tracer& tracer) {
    double maps = 0, reduces = 0, reexecs = 0, fetches = 0;
    for (const obs::TraceEvent& ev : tracer.events()) {
      switch (static_cast<obs::EventType>(ev.type)) {
        case obs::EventType::kTaskStart:
          (ev.kind == obs::kKindMap ? maps : reduces) += 1;
          break;
        case obs::EventType::kTaskReexec:
          reexecs += 1;
          break;
        case obs::EventType::kShuffleFetch:
          fetches += 1;
          break;
        default:
          break;
      }
    }
    const std::uint32_t exp = spans.open("trace.export", root);
    const std::string jsonl = tracer.export_jsonl();
    spans.close(exp);
    spans.close(root);

    Values& v = rep.traced;
    v.emplace_back("mapred.map_tasks", maps);
    v.emplace_back("mapred.reduce_tasks", reduces);
    v.emplace_back("mapred.task_reexecs", reexecs);
    v.emplace_back("mapred.shuffle_fetches", fetches);
    v.emplace_back("trace.events",
                   static_cast<double>(tracer.size() + tracer.dropped()));
    v.emplace_back("trace.dropped", static_cast<double>(tracer.dropped()));
    v.emplace_back("trace.export_s", spans.total_s("trace.export"));
    v.emplace_back("audit.s", spans.total_s("audit."));

    if (!opt.trace_dir.empty()) {
      const std::string base = opt.trace_dir + "/" + opt.workload;
      std::ofstream(base + ".trace.jsonl", std::ios::binary) << jsonl;
      std::ofstream(base + ".spans.json", std::ios::binary)
          << spans.chrome_json();
    }
  }
};

/// Sum of a per-tenant counter: the middleware prefixes tenant metrics
/// with "t<chain>." and leaves single-tenant ones bare.
double tenant_counter_sum(const obs::MetricsRegistry& m,
                          std::uint32_t chains, const std::string& name) {
  double sum = static_cast<double>(m.counter(name));
  for (std::uint32_t c = 0; c < chains; ++c) {
    // Built in place: GCC 12 flags "t" + to_string(c) + "." with a
    // false -Wrestrict.
    std::string tagged = std::to_string(c);
    tagged.insert(0, 1, 't');
    tagged += '.';
    tagged += name;
    sum += static_cast<double>(m.counter(tagged));
  }
  return sum;
}

/// Where the layer counters come from; layers a scene does not have
/// stay null and read 0.
struct LayerSources {
  const sim::Simulation& sim;
  const obs::Observability& obs;
  const res::FlowNetwork* net = nullptr;
  const core::ChainScheduler* sched = nullptr;
  const cluster::FailureDetector* detector = nullptr;
  std::uint32_t faults_injected = 0;
};

void record_results(RunReport& rep, const LayerSources& src,
                    const std::vector<core::ChainResult>& results,
                    std::uint32_t chain_length) {
  double jobs = 0, replans = 0, restarts = 0, reused = 0;
  for (const auto& r : results) {
    rep.chain_done_s.push_back(r.total_time);
    if (!r.completed) ++rep.ops_failed;
    jobs += r.jobs_started;
    replans += r.replans;
    restarts += r.restarts;
    for (const auto& run : r.runs) reused += run.mappers_reused;
  }
  const auto chains = static_cast<std::uint32_t>(results.size());
  Values& v = rep.counters;
  auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  v.emplace_back("sim.events", count(src.sim.events_processed()));
  v.emplace_back("sim.events_cancelled", count(src.sim.events_cancelled()));
  v.emplace_back("sim.peak_pending", count(src.sim.peak_pending()));

  const double reallocs = src.net ? count(src.net->reallocations()) : 0.0;
  const double flows = src.net ? count(src.net->flows_reallocated()) : 0.0;
  v.emplace_back("net.reallocations", reallocs);
  v.emplace_back("net.flows_reallocated", flows);
  v.emplace_back("net.flows_per_realloc", ratio(flows, reallocs));

  v.emplace_back("mapred.mappers_reused", reused);
  v.emplace_back("mapred.useful_job_ratio",
                 ratio(static_cast<double>(chains) * chain_length, jobs));

  double grants = 0, denials = 0, pokes = 0;
  if (src.sched != nullptr) {
    for (std::uint32_t c = 0; c < src.sched->num_chains(); ++c) {
      grants += count(src.sched->grants(c));
    }
    denials = count(src.sched->total_denials());
    pokes = count(src.sched->pokes_run());
  }
  v.emplace_back("sched.grants", grants);
  v.emplace_back("sched.denials", denials);
  v.emplace_back("sched.pokes", pokes);
  v.emplace_back("sched.pokes_per_grant", ratio(pokes, grants));

  const obs::MetricsRegistry& m = src.obs.metrics;
  v.emplace_back("chain.jobs_started", jobs);
  v.emplace_back("chain.replans", replans);
  v.emplace_back("chain.restarts", restarts);
  v.emplace_back("master.recovery.replays",
                 tenant_counter_sum(m, chains, "master.recovery.replays"));
  v.emplace_back("master.recovery.replayed_records",
                 tenant_counter_sum(m, chains,
                                    "master.recovery.replayed_records"));

  const double hits = count(m.counter("cache.hits"));
  const double misses = count(m.counter("cache.misses"));
  v.emplace_back("cache.hits", hits);
  v.emplace_back("cache.misses", misses);
  v.emplace_back("cache.publishes", count(m.counter("cache.publishes")));
  v.emplace_back("cache.hit_ratio", ratio(hits, hits + misses));

  v.emplace_back("chaos.injected", src.faults_injected);
  v.emplace_back("detector.suspicions",
                 src.detector ? src.detector->suspicions() : 0.0);
  v.emplace_back("detector.false_suspicions",
                 src.detector ? src.detector->false_suspicions() : 0.0);

  v.emplace_back("audit.checks", count(m.counter("audit.checks")));
  v.emplace_back("audit.reuse_checks", count(m.counter("audit.reuse_checks")));
  v.emplace_back("audit.cache_hit_checks",
                 count(m.counter("audit.cache_hit_checks")));
}

void run_dco_late_kill(Run& run) {
  auto cfg = workloads::dco_config();
  cfg.seed = run.opt.seed;
  if (run.opt.traced) cfg.trace_capacity = kTraceCapacity;
  run.rep.ops_total = 1;
  auto sc = run.build<workloads::Scenario>(cfg);

  cluster::FailurePlan plan;  // the paper's: 15 s after job 7 starts
  plan.at_job_ordinals = {7};
  core::ChainResult result;
  if (!run.timed_drive([&] { result = sc->run(rcmp_split(), plan); })) {
    return;
  }
  const LayerSources src{sc->sim(), sc->obs(), &sc->env().net, nullptr,
                         sc->detector(), sc->injector()->injected()};
  record_results(run.rep, src, {result}, cfg.chain_length);
  if (run.opt.traced) run.trace_values(sc->obs().tracer);
}

void run_multi(Run& run) {
  const RunOptions& opt = run.opt;
  workloads::MultiScenarioConfig cfg;
  auto strategy = rcmp_split();
  cluster::FaultSchedule schedule;
  if (opt.workload == "tenants_steady") {
    cfg = tenant_scene(kTenantChains, opt.seed);
  } else if (opt.workload == "tenants_chaos") {
    cfg = tenant_scene(kTenantChains, opt.seed);
    cfg.base.input_replication = 4;
    cfg.base.detector.enabled = true;
    cfg.base.journal = true;
    schedule = chaos_schedule();
  } else {  // cache_shared
    cfg = tenant_scene(kCacheChains, opt.seed);
    cfg.max_concurrent = 8;
    for (std::uint32_t c = 0; c < kCacheChains; ++c) {
      cfg.dataset_ids.push_back(1 + c % kCacheDatasets);
    }
    strategy.result_cache = true;
  }
  if (opt.traced) cfg.base.trace_capacity = kTraceCapacity;
  run.rep.ops_total = cfg.chains;
  auto ms = run.build<workloads::MultiScenario>(cfg);

  // The oracle runs before the drive and leaves one checksum per chain,
  // so no input copy lives through the drive to count in its peak RSS.
  // Chains over one dataset (a non-zero id) read identical records, hence
  // one oracle.
  std::map<std::uint64_t, mapred::Checksum> by_dataset;
  std::vector<mapred::Checksum> expected;
  for (std::uint32_t c = 0; c < cfg.chains; ++c) {
    const std::uint64_t ds = cfg.dataset_ids.empty() ? 0 : cfg.dataset_ids[c];
    if (auto it = by_dataset.find(ds); it != by_dataset.end()) {
      expected.push_back(it->second);
      continue;
    }
    expected.push_back(oracle_checksum(
        gather_records(ms->payloads(), ms->dfs(), ms->input_file(c)),
        cfg.base.chain_length));
    if (ds != 0) by_dataset.emplace(ds, expected.back());
  }

  std::vector<core::ChainResult> results;
  if (!run.timed_drive([&] {
        results = schedule.events.empty() ? ms->run(strategy)
                                          : ms->run_chaos(strategy, schedule);
      })) {
    return;
  }
  const LayerSources src{ms->sim(),      ms->obs(), nullptr, &ms->scheduler(),
                         ms->detector(),
                         ms->chaos() ? ms->chaos()->counts().injected() : 0u};
  record_results(run.rep, src, results, cfg.base.chain_length);
  if (opt.traced) run.trace_values(ms->obs().tracer);

  for (std::uint32_t c = 0; c < cfg.chains; ++c) {
    if (results[c].completed && ms->final_output_checksum(c) != expected[c]) {
      ++run.rep.wrong_outputs;
    }
  }
}

}  // namespace

bool known_workload(std::string_view name) {
  return std::find(std::begin(kWorkloads), std::end(kWorkloads), name) !=
         std::end(kWorkloads);
}

RunReport run_once(const RunOptions& opt) {
  RCMP_CHECK_MSG(known_workload(opt.workload),
                 "unknown workload " << opt.workload);
  Run run(opt);
  if (opt.workload == "dco_late_kill") {
    run_dco_late_kill(run);
  } else {
    run_multi(run);
  }
  return std::move(run.rep);
}

std::string RunReport::encode() const {
  std::ostringstream os;
  os.precision(17);
  for (double s : setup_s) os << "setup_s " << s << '\n';
  os << "drive_s " << drive_s << "\nops " << ops_total << ' ' << ops_failed
     << ' ' << wrong_outputs << '\n';
  for (double t : chain_done_s) os << "done " << t << '\n';
  for (const auto& [name, v] : counters) os << "c " << name << ' ' << v << '\n';
  for (const auto& [name, v] : traced) os << "t " << name << ' ' << v << '\n';
  if (!error.empty()) {
    std::string one_line = error;
    std::replace(one_line.begin(), one_line.end(), '\n', ' ');
    os << "error " << one_line << '\n';
  }
  return os.str();
}

RunReport RunReport::decode(std::string_view text) {
  RunReport rep;
  std::istringstream is{std::string(text)};
  std::string key;
  while (is >> key) {
    double v = 0.0;
    if (key == "setup_s") {
      is >> v;
      rep.setup_s.push_back(v);
    } else if (key == "drive_s") {
      is >> rep.drive_s;
    } else if (key == "ops") {
      is >> rep.ops_total >> rep.ops_failed >> rep.wrong_outputs;
    } else if (key == "done") {
      is >> v;
      rep.chain_done_s.push_back(v);
    } else if (key == "c" || key == "t") {
      std::string name;
      is >> name >> v;
      (key == "c" ? rep.counters : rep.traced).emplace_back(name, v);
    } else if (key == "error") {
      std::getline(is >> std::ws, rep.error);
    } else {
      RCMP_CHECK_MSG(false, "bad run report line: " << key);
    }
  }
  return rep;
}

}  // namespace rcmp::rbench
