// rcmp_bench: the repository benchmark.
//
//   rcmp_bench [--workload NAME|all]... [--seed N] [--seconds S]
//              [--trace 0|1] [--out FILE] [--trace-dir DIR]
//
// Runs the selected workloads (default: all four, see scenes.hpp)
// round-robin, each (workload, round) in its own forked child so that
// peak RSS is per run and no run inherits another's heap. One child runs
// at a time, on one thread. The rounds are:
//   1. one warm-up round, thrown away;
//   2. untraced rounds for the end-to-end metrics, as many as fit in
//      --seconds per workload (default kDefaultSeconds, BENCHMARK.json's
//      run_seconds), and at least kScenes;
//   3. unless --trace 0, one traced round for the per-layer metrics; its
//      drive time minus the untraced median of the same scene is the
//      tracing overhead.
//
// --seed fixes kScenes scene seeds, and untraced round r drives scene
// r % kScenes. One scene's fault victims and data placement move the
// tenants_chaos makespan by about 6% (coefficient of variation over
// seeds); averaging kScenes of them cuts that by sqrt(kScenes), so a
// run's simulated metrics stay within a usable regression bound from
// one --seed to the next. The warm-up and traced rounds drive scene 0,
// whose seed is --seed itself.
//
// Every round checks its outputs: completed payload chains must match
// the eager oracle's checksum, every round's simulated results and
// counters must equal the first round of the same scene, and the traced
// round must drop no trace event. A wrong output makes the exit code 1;
// a chain that fails cleanly (or a run the auditor stops) only counts in
// `failed`, and its round adds no host-time or RSS sample.
//
// Prints every metric by name with its unit per workload, writes the
// results (with every sample) as JSON to --out, and ends stdout with one
// JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// holding the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1, and both without --trace (names prefixed
// "<workload>." when more than one workload ran).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "scenes.hpp"

namespace {

using rcmp::Samples;
using rcmp::rbench::RunOptions;
using rcmp::rbench::RunReport;
using rcmp::rbench::Values;

constexpr int kScenes = 6;
constexpr double kDefaultSeconds = 25.0;
constexpr double kMaxSeconds = 3600.0;

std::uint64_t scene_seed(std::uint64_t seed, int scene) {
  return seed + static_cast<std::uint64_t>(scene) * 0x9E3779B97F4A7C15ULL;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json and README.md.
constexpr MetricDef kEndToEnd[] = {
    {"wall_min_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"makespan_sim_s", "sim_s"},
    {"chain_p50_sim_s", "sim_s"},
    {"chain_p75_sim_s", "sim_s"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_cancelled", "count"},
    {"sim.peak_pending", "count"},
    {"sim.ns_per_event", "ns"},
    {"net.reallocations", "count"},
    {"net.flows_reallocated", "count"},
    {"net.flows_per_realloc", "ratio"},
    {"mapred.map_tasks", "count"},
    {"mapred.reduce_tasks", "count"},
    {"mapred.task_reexecs", "count"},
    {"mapred.shuffle_fetches", "count"},
    {"mapred.mappers_reused", "count"},
    {"mapred.useful_job_ratio", "ratio"},
    {"sched.grants", "count"},
    {"sched.denials", "count"},
    {"sched.pokes", "count"},
    {"sched.pokes_per_grant", "ratio"},
    {"chain.jobs_started", "count"},
    {"chain.replans", "count"},
    {"chain.restarts", "count"},
    {"master.recovery.replays", "count"},
    {"master.recovery.replayed_records", "count"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.publishes", "count"},
    {"cache.hit_ratio", "ratio"},
    {"chaos.injected", "count"},
    {"detector.suspicions", "count"},
    {"detector.false_suspicions", "count"},
    {"audit.checks", "count"},
    {"audit.reuse_checks", "count"},
    {"audit.cache_hit_checks", "count"},
    {"audit.s", "s"},
    {"audit.share", "ratio"},
    {"trace.events", "count"},
    {"trace.dropped", "count"},
    {"trace.export_s", "s"},
    {"trace.overhead_s", "s"},
};

/// Which metric sets the result line carries.
enum class Report { kBoth, kEndToEnd, kPerLayer };

struct Args {
  std::vector<std::string> workloads;
  std::uint64_t seed = 42;
  double seconds = kDefaultSeconds;
  Report report = Report::kBoth;  // no --trace flag
  std::string out;
  std::string trace_dir;

  bool traced_round() const { return report != Report::kEndToEnd; }
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "rcmp_bench: %s\n"
               "usage: rcmp_bench [--workload NAME|all]... [--seed N] "
               "[--seconds S] [--trace 0|1] [--out FILE] [--trace-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (v == "all") {
        for (auto w : rcmp::rbench::kWorkloads) a.workloads.emplace_back(w);
      } else if (rcmp::rbench::known_workload(v)) {
        a.workloads.push_back(v);
      } else {
        usage("unknown workload " + v);
      }
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (!(a.seconds > 0.0 && a.seconds <= kMaxSeconds)) {
        usage("--seconds must be in (0, 3600]");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.report = v == "1" ? Report::kPerLayer : Report::kEndToEnd;
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--trace-dir") {
      a.trace_dir = v;
    } else {
      usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') usage("bad value for " + flag);
  }
  if (a.workloads.empty()) {
    for (auto w : rcmp::rbench::kWorkloads) a.workloads.emplace_back(w);
  }
  return a;
}

struct Sample {
  int scene = 0;
  RunReport rep;
  double rss_mib = 0.0;

  /// Every chain completed with the oracle's output: only such rounds
  /// give host-time and RSS samples, since a run that threw or lost
  /// chains did different work.
  bool ok() const {
    return rep.error.empty() && rep.ops_failed == 0 && rep.wrong_outputs == 0;
  }
};

/// Runs one (workload, round) in a forked child and waits for it.
Sample spawn(const RunOptions& opt, int scene) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    std::string text;
    try {
      text = rcmp::rbench::run_once(opt).encode();
    } catch (const std::exception& e) {
      RunReport failed;
      failed.error = e.what();
      text = failed.encode();
    }
    for (std::size_t off = 0; off < text.size();) {
      const ssize_t n = write(fds[1], text.data() + off, text.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(3);
      off += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  Sample s;
  s.scene = scene;
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    s.rep = RunReport::decode(text);
  } else {
    s.rep.error = "child process died (status " + std::to_string(status) + ")";
  }
  s.rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return s;
}

const double* find(const Values& values, const std::string& name) {
  for (const auto& [n, v] : values) {
    if (n == name) return &v;
  }
  return nullptr;
}

/// Everything the parent process learns about one workload.
struct WorkloadRuns {
  std::string name;
  /// First successful report of each scene; later rounds must repeat it.
  std::map<int, RunReport> reference;
  std::vector<Sample> untraced;
  Sample traced;
  bool have_traced = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool wrong = false;

  void complain(const std::string& what) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), what.c_str());
  }

  /// Correctness checks shared by every round; returns the sample.
  Sample check(Sample s, const char* round) {
    const RunReport& rep = s.rep;
    const std::uint32_t ops = std::max<std::uint32_t>(rep.ops_total, 1);
    attempted += ops;
    if (!rep.error.empty()) {
      failed += ops;
      complain(std::string(round) + " run failed: " + rep.error);
      if (rep.error.rfind("child process died", 0) == 0) wrong = true;
      return s;
    }
    failed += rep.ops_failed + rep.wrong_outputs;
    if (rep.wrong_outputs > 0) {
      wrong = true;
      complain(std::string(round) + " run: " +
               std::to_string(rep.wrong_outputs) +
               " chain outputs differ from the oracle");
    }
    auto [ref, first] = reference.try_emplace(s.scene, rep);
    if (!first && (rep.counters != ref->second.counters ||
                   rep.chain_done_s != ref->second.chain_done_s)) {
      wrong = true;
      complain(std::string(round) + " run of scene " +
               std::to_string(s.scene) +
               ": simulated results differ from its first run");
    }
    if (const double* d = find(rep.traced, "trace.dropped"); d && *d != 0) {
      wrong = true;
      complain("the traced round dropped trace events");
    }
    return s;
  }

  Samples drive_times(int only_scene = -1) const {
    Samples out;
    for (const Sample& s : untraced) {
      if (s.ok() && (only_scene < 0 || s.scene == only_scene)) {
        out.add(s.rep.drive_s);
      }
    }
    return out;
  }
};

double median_or_zero(const Samples& s) { return s.empty() ? 0.0 : s.median(); }

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t n = 0;
  std::vector<double> samples;  // host metrics: every measurement
};

Metric host_metric(const MetricDef& def, const Samples& s) {
  return {def.name, def.unit, median_or_zero(s), s.count(), s.values()};
}

std::vector<Metric> end_to_end(const WorkloadRuns& w) {
  Samples setup, rss, makespan, chains;
  for (const Sample& s : w.untraced) {
    if (!s.ok()) continue;
    setup.add_all(s.rep.setup_s);
    rss.add(s.rss_mib);
  }
  for (const auto& [scene, ref] : w.reference) {
    Samples done;
    done.add_all(ref.chain_done_s);
    if (!done.empty()) makespan.add(done.max());
    chains.add_all(ref.chain_done_s);
  }
  std::vector<Metric> out;
  for (const MetricDef& def : kEndToEnd) {
    const std::string name = def.name;
    if (name == "wall_min_s") {
      // On a shared host, rounds fall into a fast mode and a contended
      // one about 60% slower, and how many land in each moved the median
      // drive time by up to 28% from seed to seed; the fastest round is
      // the least-contended measurement of the same drive. It needs many
      // rounds: a run of six or seven 3 s rounds often held no fast one,
      // and spread it 25-33% over ten seeds. The samples keep every
      // round's time.
      const Samples s = w.drive_times();
      out.push_back({name, def.unit, s.empty() ? 0.0 : s.min(), s.count(),
                     s.values()});
    } else if (name == "setup_s") {
      out.push_back(host_metric(def, setup));
    } else if (name == "peak_rss_mb") {
      out.push_back(host_metric(def, rss));
    } else if (name == "makespan_sim_s") {
      out.push_back({name, def.unit, makespan.empty() ? 0 : makespan.mean(),
                     makespan.count(), {}});
    } else {
      const double p = name == "chain_p50_sim_s" ? 50.0 : 75.0;
      out.push_back({name, def.unit, chains.empty() ? 0 : chains.percentile(p),
                     chains.count(), {}});
    }
  }
  return out;
}

std::vector<Metric> per_layer(const WorkloadRuns& w) {
  const RunReport& t = w.traced.rep;
  const auto get = [&t](const char* name) {
    if (const double* v = find(t.counters, name)) return *v;
    if (const double* v = find(t.traced, name)) return *v;
    return 0.0;
  };
  std::vector<Metric> out;
  for (const MetricDef& def : kPerLayer) {
    const std::string name = def.name;
    double v = 0.0;
    if (name == "audit.share") {
      v = t.drive_s > 0 ? get("audit.s") / t.drive_s : 0.0;
    } else if (name == "sim.ns_per_event") {
      // Drive self time: the drive span minus the auditor spans in it.
      const double events = get("sim.events");
      v = events > 0 ? (t.drive_s - get("audit.s")) / events * 1e9 : 0.0;
    } else if (name == "trace.overhead_s") {
      v = t.drive_s - median_or_zero(w.drive_times(w.traced.scene));
    } else {
      v = get(def.name);
    }
    out.push_back({name, def.unit, v, 1, {}});
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_table(const std::string& title, const std::vector<Metric>& ms) {
  std::printf("  %s\n", title.c_str());
  for (const Metric& m : ms) {
    std::printf("    %-34s %16.6g %-6s n=%zu", m.name.c_str(), m.value,
                m.unit.c_str(), m.n);
    if (!m.samples.empty()) {
      Samples s;
      s.add_all(m.samples);
      std::printf("  q1=%.6g median=%.6g q3=%.6g", s.percentile(25.0),
                  s.median(), s.percentile(75.0));
    }
    std::printf("\n");
  }
}

/// The members of a JSON object holding `ms`, without the braces.
std::string metric_fields(const std::vector<Metric>& ms, bool detail) {
  std::string s;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) +
         ", \"unit\": \"" + m.unit + "\"";
    if (detail) {
      s += ", \"n\": " + std::to_string(m.n);
      if (!m.samples.empty()) {
        s += ", \"samples\": [";
        for (std::size_t j = 0; j < m.samples.size(); ++j) {
          s += (j ? ", " : "") + num(m.samples[j]);
        }
        s += "]";
      }
    }
    s += "}";
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  rcmp::Log::set_level(rcmp::LogLevel::kError);
  const Args args = parse_args(argc, argv);
  if (args.traced_round() && !args.trace_dir.empty()) {
    std::filesystem::create_directories(args.trace_dir);
  }

  std::vector<WorkloadRuns> runs(args.workloads.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs[i].name = args.workloads[i];
  }
  auto round = [&args](WorkloadRuns& w, int scene, bool traced,
                       const char* what) {
    RunOptions opt;
    opt.workload = w.name;
    opt.seed = scene_seed(args.seed, scene);
    opt.traced = traced;
    if (traced) opt.trace_dir = args.trace_dir;
    return w.check(spawn(opt, scene), what);
  };

  for (WorkloadRuns& w : runs) round(w, 0, false, "warm-up");

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const auto spent = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  // --seconds per workload, so every workload gets as many rounds as a
  // run of it alone.
  const double budget = args.seconds * static_cast<double>(runs.size());
  int rounds = 0;
  for (; rounds < kScenes || spent() < budget; ++rounds) {
    for (WorkloadRuns& w : runs) {
      w.untraced.push_back(round(w, rounds % kScenes, false, "untraced"));
    }
  }

  if (args.traced_round()) {
    for (WorkloadRuns& w : runs) {
      w.traced = round(w, 0, true, "traced");
      w.have_traced = w.traced.rep.error.empty();
    }
  }

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string results = "{\"seed\": " + std::to_string(args.seed) +
                        ", \"scenes\": " + std::to_string(kScenes) +
                        ", \"rounds\": " + std::to_string(rounds) +
                        ", \"workloads\": {";
  std::string final_metrics;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const WorkloadRuns& w = runs[i];
    correct &= !w.wrong;
    attempted += w.attempted;
    failed += w.failed;
    const auto e2e = end_to_end(w);
    std::printf("== %s  (seed %llu, %d untraced rounds over %d scenes, "
                "ops_failed %llu of %llu chains)\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                rounds, kScenes, static_cast<unsigned long long>(w.failed),
                static_cast<unsigned long long>(w.attempted));
    print_table("end to end (untraced rounds)", e2e);
    results += (i ? ", \"" : "\"") + w.name + "\": {\"ops_total\": " +
               std::to_string(w.attempted) + ", \"ops_failed\": " +
               std::to_string(w.failed) + ", \"end_to_end\": {" +
               metric_fields(e2e, true) + "}";
    std::vector<Metric> shown;
    if (args.report != Report::kPerLayer) shown = e2e;
    if (w.have_traced) {
      const auto layers = per_layer(w);
      print_table("per layer (traced round, scene 0)", layers);
      results += ", \"per_layer\": {" + metric_fields(layers, true) + "}";
      if (args.report != Report::kEndToEnd) {
        shown.insert(shown.end(), layers.begin(), layers.end());
      }
    }
    results += "}";
    if (runs.size() > 1) {
      for (Metric& m : shown) m.name = w.name + "." + m.name;
    }
    const std::string part = metric_fields(shown, false);
    if (!part.empty()) {
      final_metrics += (final_metrics.empty() ? "" : ", ") + part;
    }
  }
  results += "}}\n";
  if (!args.out.empty()) {
    std::ofstream(args.out, std::ios::binary) << results;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), final_metrics.c_str());
  return correct ? 0 : 1;
}
