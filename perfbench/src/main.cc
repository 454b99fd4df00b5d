// cloudlb performance benchmark.
//
//   perfbench --workload <paper32|cloud128|scale1k_sharded> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics: repeated passes over the
// workload's penalty experiments through run_penalty_experiment, exactly
// as `cloudlb penalty` calls it. --trace 1 measures the per-layer metrics:
// it alternates untraced passes with traced passes that rebuild every
// scenario run from the public constructors (mirror.h), and then probes
// the machine, LB and estimator layers on their own. Both modes check the
// outputs and print, as the last line, one JSON object with the metrics.
// See README.md for the metric definitions.
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "core/background_estimator.h"
#include "core/balancer_factory.h"
#include "core/replay.h"
#include "host_speed.h"
#include "lb/refinement.h"
#include "mirror.h"
#include "sim/simulator.h"
#include "spans.h"
#include "vm/virtual_machine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cloudlb;

constexpr int kMinPasses = 3;
/// Set-up-only rebuilds of the whole workload per timed pass.
constexpr int kSetupRepsPerPass = 11;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed)
    throw std::invalid_argument("--workload and --seed are required");
  return args;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in [0, 100].
template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      q / 100.0 * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

/// High-water resident memory of this process image, from VmHWM. (The
/// getrusage maximum would also count the parent's image: Linux carries
/// ru_maxrss across exec, so a launcher's size would show.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

// --- checks --------------------------------------------------------------

/// Outcome of the output checks. `failed` counts scenario runs that threw
/// or failed a check. `correct` turns false when a check against a
/// reference fails (serial stencil grids, task conservation, pass-to-pass
/// determinism, the mirror reproducing run_scenario); a disagreement of
/// the partitioned runtime with the legacy engine fails the run but is
/// reported through `failed` (see README.md, "Known defect").
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::map<std::string, int> messages;  ///< message -> occurrences

  void note(const std::string& message, bool incorrect) {
    ++messages[message];
    if (incorrect) correct = false;
  }
};

enum Run { kBase = 0, kCombined = 1, kBgSolo = 2 };
constexpr const char* kRunNames[] = {"base", "combined", "bg_solo"};

/// One pass: each cell's penalty experiment (nullopt if it threw).
struct Pass {
  std::vector<std::optional<PenaltyResult>> cells;
  double wall_s = 0.0;  ///< the experiments only, not the host-speed probe
};

bool same_penalty_run(const PenaltyResult& a, const PenaltyResult& b, Run run) {
  switch (run) {
    case kBase:
      return same_result(a.base, b.base);
    case kCombined:
      return same_result(a.combined, b.combined);
    case kBgSolo:
      return a.bg_solo == b.bg_solo;
  }
  return false;
}

/// Checks one pass: task conservation, equality with the first pass, and
/// (when given) equality with the legacy engine's results.
void check_pass(const Workload& w, const Pass& pass, const Pass& first,
                const std::vector<std::optional<PenaltyResult>>* legacy,
                Checks& checks) {
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const Cell& cell = w.cells[i];
    const int runs = runs_per_experiment(cell.config);
    checks.attempted += runs;
    if (!pass.cells[i].has_value()) {
      checks.failed += runs;
      checks.note(cell.label + ": penalty experiment threw", true);
      continue;
    }
    const PenaltyResult& r = *pass.cells[i];
    bool run_failed[3] = {false, false, false};
    if (r.combined.app_counters.tasks_executed !=
        r.base.app_counters.tasks_executed) {
      run_failed[kCombined] = true;
      checks.note(cell.label + ": combined run executed " +
                      std::to_string(r.combined.app_counters.tasks_executed) +
                      " tasks, base run " +
                      std::to_string(r.base.app_counters.tasks_executed),
                  true);
    }
    for (int run = 0; run < runs; ++run) {
      const Run k = static_cast<Run>(run);
      if (first.cells[i].has_value() &&
          !same_penalty_run(r, *first.cells[i], k)) {
        run_failed[run] = true;
        checks.note(cell.label + ": " + kRunNames[run] +
                        " run differs between passes",
                    true);
      }
      if (legacy != nullptr) {
        const std::optional<PenaltyResult>& ref = (*legacy)[i];
        if (!ref.has_value() || !same_penalty_run(r, *ref, k)) {
          run_failed[run] = true;
          checks.note(cell.label + ": " + kRunNames[run] +
                          " run differs from the legacy engine",
                      false);
        }
      }
    }
    checks.failed += std::count(run_failed, run_failed + runs, true);
  }
}

// --- passes ---------------------------------------------------------------

constexpr double kProbeEveryS = 0.5;

/// Runs every cell once. With a `probe`, samples the host's speed after
/// each cell, outside the timed experiments: once per started
/// kProbeEveryS of the cell's time, so every workload spends the same
/// share of its run on the probe.
Pass run_pass(const Workload& w, HostSpeedProbe* probe = nullptr) {
  Pass pass;
  for (const Cell& cell : w.cells) {
    const auto t0 = Clock::now();
    try {
      pass.cells.emplace_back(run_penalty_experiment(cell.config));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", cell.label.c_str(), e.what());
      pass.cells.emplace_back(std::nullopt);
    }
    const double cell_s = seconds_since(t0);
    pass.wall_s += cell_s;
    if (probe != nullptr)
      for (double left = cell_s; left > 0.0; left -= kProbeEveryS) probe->sample();
  }
  return pass;
}

/// Host time to build every scenario run of one pass, up to its first
/// event, through the same constructors run_scenario uses.
double setup_pass(const Workload& w) {
  MirrorOptions options;
  options.setup_only = true;
  MirrorStats stats;
  for (const Cell& cell : w.cells) {
    mirror_run_scenario(base_config(cell.config), options, stats);
    mirror_run_scenario(cell.config, options, stats);
    if (cell.config.with_background)
      mirror_run_background_solo(cell.config, options, stats);
  }
  return stats.setup_s;
}

/// The same experiments on the legacy single engine (shards = 1).
std::vector<std::optional<PenaltyResult>> legacy_results(const Workload& w) {
  Workload legacy = w;
  for (Cell& cell : legacy.cells) cell.config.shards = 1;
  return run_pass(legacy).cells;
}

std::int64_t tasks_of(const Pass& pass) {
  std::int64_t tasks = 0;
  for (const auto& r : pass.cells) {
    if (!r.has_value()) continue;
    tasks += r->base.app_counters.tasks_executed +
             r->combined.app_counters.tasks_executed;
  }
  return tasks;
}

// --- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const auto& [message, count] : checks.messages)
    std::printf("CHECK FAILED (%dx): %s\n", count, message.c_str());
  std::printf("runs attempted %" PRId64 ", failed %" PRId64 ", correct %s\n",
              checks.attempted, checks.failed,
              checks.correct ? "true" : "false");
  for (const Metric& m : metrics)
    std::printf("%-28s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              checks.correct ? "true" : "false", checks.attempted,
              checks.failed);
  const char* sep = "";
  for (const Metric& m : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

void print_cells(const Workload& w, const Pass& pass) {
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    if (!pass.cells[i].has_value()) continue;
    const PenaltyResult& r = *pass.cells[i];
    std::printf(
        "cell %-28s app_penalty %.4f %%  bg_penalty %.4f %%  energy_overhead "
        "%.4f %%  migrations %d  tasks %" PRId64 "\n",
        w.cells[i].label.c_str(), r.app_penalty_pct, r.bg_penalty_pct,
        r.energy_overhead_pct, r.combined.lb_migrations,
        r.combined.app_counters.tasks_executed);
  }
}

/// The workload's mean penalties (cell weights), from one pass.
void penalty_metrics(const Workload& w, const Pass& pass,
                     std::vector<Metric>& out) {
  double app = 0.0;
  double bg = 0.0;
  double energy = 0.0;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    if (!pass.cells[i].has_value()) continue;
    const PenaltyResult& r = *pass.cells[i];
    const double weight = w.cells[i].weight;
    app += weight * r.app_penalty_pct;
    bg += weight * (1.0 + r.bg_penalty_pct / 100.0);
    energy += weight * r.energy_overhead_pct;
  }
  out.push_back({"app_penalty_pct", app, "%"});
  out.push_back({"bg_slowdown", bg, "ratio"});
  out.push_back({"energy_overhead_pct", energy, "%"});
}

/// CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

void pin_calling_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Runs `body` for about `seconds`, at least `min_reps` times.
///
/// On a shared host the cores of one machine can run at different speeds
/// for a while (a busy neighbour on the same physical core), so a
/// single-threaded run's timings would depend on the core the scheduler
/// happened to pick. With `rotate`, each repetition is pinned to the next
/// allowed CPU, so a run samples all of them. Multi-threaded workloads are
/// left unpinned: their worker threads would inherit the pin.
void repeat_for(double seconds, int min_reps, bool rotate,
                const std::function<void()>& body) {
  const std::vector<int> cpus = allowed_cpus();
  const bool pin = rotate && cpus.size() > 1;
  const auto start = Clock::now();
  for (int reps = 0;; ++reps) {
    const auto rep_start = Clock::now();
    if (pin) pin_calling_thread({cpus[static_cast<std::size_t>(reps) % cpus.size()]});
    body();
    if (reps + 1 >= min_reps &&
        seconds_since(start) + 0.5 * seconds_since(rep_start) >= seconds)
      break;
  }
  if (pin) pin_calling_thread(cpus);
}

// --- --trace 0: end-to-end ------------------------------------------------

/// Host timings are reported at the reference host speed: each pass's
/// set-up and wall times are divided by the host slowdown the probe saw
/// around that pass (host_speed.h). The raw times are printed too.
int run_end_to_end(const Args& args, const Workload& w) {
  const Pass first = run_pass(w);  // warm-up and determinism reference
  // Read before the probe's buffer exists, so only the program counts.
  const double rss = peak_rss_mb();
  HostSpeedProbe probe;
  std::vector<Pass> passes;
  std::vector<double> raw_walls, raw_setups, slowdowns;
  std::vector<double> walls, setups, rates;
  const std::int64_t tasks = tasks_of(first);
  repeat_for(args.seconds, kMinPasses, !partitioned(w), [&] {
    probe.reset();
    probe.sample();
    std::vector<double> reps;
    for (int i = 0; i < kSetupRepsPerPass; ++i) reps.push_back(setup_pass(w));
    raw_setups.push_back(median(reps));
    passes.push_back(run_pass(w, &probe));
    raw_walls.push_back(passes.back().wall_s);
    slowdowns.push_back(probe.slowdown());
    setups.push_back(raw_setups.back() / slowdowns.back());
    walls.push_back(raw_walls.back() / slowdowns.back());
    rates.push_back(static_cast<double>(tasks) /
                    (walls.back() - setups.back()));
  });

  std::optional<std::vector<std::optional<PenaltyResult>>> legacy;
  if (partitioned(w)) legacy = legacy_results(w);
  Checks checks;
  const auto* legacy_ptr = legacy.has_value() ? &*legacy : nullptr;
  check_pass(w, first, first, legacy_ptr, checks);
  for (const Pass& pass : passes) check_pass(w, pass, first, legacy_ptr, checks);

  print_cells(w, first);
  std::printf("passes %zu, tasks per pass %" PRId64 "\n", passes.size(),
              tasks);
  for (const auto& [what, values] :
       {std::pair{"raw wall_s", &raw_walls}, std::pair{"raw setup_s", &raw_setups},
        std::pair{"host slowdown", &slowdowns}}) {
    std::printf("%s per pass:", what);
    for (double x : *values) std::printf(" %.5f", x);
    std::printf("\n");
  }
  std::vector<Metric> metrics;
  metrics.push_back({"setup_s", median(setups), "s"});
  metrics.push_back({"wall_s", median(walls), "s"});
  metrics.push_back({"tasks_per_s", median(rates), "tasks/s"});
  metrics.push_back({"peak_rss_mb", rss, "MB"});
  penalty_metrics(w, first, metrics);
  metrics.push_back(
      {"ok_frac",
       static_cast<double>(checks.attempted - checks.failed) /
           static_cast<double>(checks.attempted),
       "ratio"});
  print_result(checks, metrics);
  return 0;
}

// --- --trace 1: per-layer -------------------------------------------------

/// Everything one traced pass measured.
struct TracedPass {
  double wall_s = 0.0;  ///< the pass minus the grid checks
  MirrorStats stats;    ///< summed over the pass's scenario runs
  std::vector<std::uint32_t> step_ns;
  std::vector<LbCapture> lb;  ///< per cell, from the combined run
  std::vector<RunResult> results;  ///< base and combined, for counters
};

/// One traced pass: every scenario run rebuilt through the mirror with
/// spans, step timing, allocation counting and the LB decorator; each
/// result is checked against the untraced pass `ref`.
TracedPass traced_pass(const Workload& w, const Pass& ref, SpanRecorder& spans,
                       std::uint64_t& next_run_id, Checks& checks) {
  TracedPass out;
  out.lb.resize(w.cells.size());
  set_alloc_counting(true);
  const auto t0 = Clock::now();
  {
    ScopedSpan pass_span{&spans, "pass", 0};
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const Cell& cell = w.cells[i];
      ScopedSpan cell_span{&spans, "cell", 0};
      MirrorOptions options;
      options.spans = &spans;
      options.step_ns = &out.step_ns;
      const auto run = [&](Run k) {
        options.run_id = next_run_id++;
        options.lb = k == kCombined ? &out.lb[i] : nullptr;
        ScopedSpan span{&spans, std::string{"scenario."} + kRunNames[k],
                        options.run_id};
        MirrorStats stats;
        bool same = false;
        try {
          if (k == kBgSolo) {
            const SimTime t =
                mirror_run_background_solo(cell.config, options, stats);
            same = ref.cells[i].has_value() && t == ref.cells[i]->bg_solo;
          } else {
            const RunResult r = mirror_run_scenario(
                k == kBase ? base_config(cell.config) : cell.config, options,
                stats);
            const PenaltyResult* p =
                ref.cells[i].has_value() ? &*ref.cells[i] : nullptr;
            same = p != nullptr &&
                   same_result(r, k == kBase ? p->base : p->combined);
            out.results.push_back(r);
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "%s: %s\n", cell.label.c_str(), e.what());
        }
        checks.attempted += 1;
        if (!same || stats.grids_failed > 0) checks.failed += 1;
        if (!same)
          checks.note(cell.label + ": traced " + kRunNames[k] +
                          " run threw or differs from run_scenario",
                      true);
        if (stats.grids_failed > 0)
          checks.note(cell.label + ": " + kRunNames[k] +
                          " run's final grid differs from the serial "
                          "reference",
                      true);
        out.stats += stats;
      };
      run(kBase);
      run(kCombined);
      if (cell.config.with_background) run(kBgSolo);
    }
  }
  out.wall_s = seconds_since(t0) - out.stats.check_s;
  set_alloc_counting(false);
  return out;
}

/// machine/vm layer on its own: chains of VirtualMachine::demand
/// completions on two VMs co-located on every core of a `cores`-core
/// machine. Returns ns per completion; sets allocations per demand.
double machine_probe(int cores, double& allocs_per_demand) {
  constexpr std::uint64_t kCompletions = 300'000;
  std::vector<double> ns_per, allocs_per;
  for (int rep = 0; rep < 5; ++rep) {
    Simulator sim;
    MachineConfig mc;
    mc.nodes = (cores + mc.cores_per_node - 1) / mc.cores_per_node;
    Machine machine{sim, mc};
    std::vector<CoreId> all(static_cast<std::size_t>(cores));
    for (int c = 0; c < cores; ++c) all[static_cast<std::size_t>(c)] = c;
    VirtualMachine vm_a{machine, "a", all};
    VirtualMachine vm_b{machine, "b", all};

    struct Chain {
      VirtualMachine* vm;
      int vcpu;
      SimTime cost;
      std::uint64_t* done;
      void request() {
        vm->demand(vcpu, cost, [this] {
          if (++*done < kCompletions) request();
        });
      }
    };
    std::uint64_t done = 0;
    std::vector<Chain> chains;
    chains.reserve(2 * static_cast<std::size_t>(cores));
    for (int v = 0; v < cores; ++v) {
      chains.push_back(Chain{&vm_a, v, SimTime::micros(1000), &done});
      chains.push_back(Chain{&vm_b, v, SimTime::micros(1500), &done});
    }
    for (Chain& chain : chains) chain.request();
    set_alloc_counting(true);
    const AllocDelta allocs;
    const auto t0 = Clock::now();
    while (done < kCompletions && sim.step()) {
    }
    const double elapsed = seconds_since(t0);
    const double n = static_cast<double>(done);
    allocs_per.push_back(static_cast<double>(allocs.count()) / n);
    set_alloc_counting(false);
    ns_per.push_back(elapsed * 1e9 / n);
  }
  allocs_per_demand = median(allocs_per);
  return median(ns_per);
}

/// Mean over calls of `fn`, in µs, repeating until ~0.2 ms have passed.
double time_us(const std::function<void()>& fn) {
  int reps = 0;
  const auto t0 = Clock::now();
  do {
    fn();
    ++reps;
  } while (seconds_since(t0) < 2e-4);
  return seconds_since(t0) * 1e6 / reps;
}

/// LB and estimator layers on their own, replayed from the captured
/// windows after the pass.
void lb_probe(const Workload& w, const std::vector<LbCapture>& captures,
              SpanRecorder& spans, std::vector<Metric>& out) {
  std::vector<double> refine_us, estimate_us, before, after, assign_ns;
  {
    ScopedSpan replay_span{&spans, "replay", 0};
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const ScenarioConfig& config = w.cells[i].config;
      const LbCapture& cap = captures[i];
      assign_ns.insert(assign_ns.end(), cap.assign_ns.begin(),
                       cap.assign_ns.end());
      for (const LbStats& stats : cap.windows) {
        std::vector<double> external;
        {
          ScopedSpan span{&spans, "core.estimate", 0};
          estimate_us.push_back(
              time_us([&] { external = estimate_background_load(stats); }));
        }
        ScopedSpan span{&spans, "lb.refine", 0};
        refine_us.push_back(time_us([&] {
          const RefinementResult r = refine_assignment(
              stats, external, config.lb_options.epsilon_fraction);
          static_cast<void>(r);
        }));
      }
      auto balancer = make_balancer(config.balancer, config.lb_options);
      const std::vector<ReplayRow> rows = replay_stats(cap.windows, *balancer);
      for (std::size_t k = 0; k < rows.size() && k < cap.windows.size(); ++k) {
        const LbStats& stats = cap.windows[k];
        double total = 0.0;
        for (const PeSample& pe : stats.pes) total += pe.task_cpu_sec;
        for (double o : estimate_background_load(stats)) total += o;
        const double avg = total / static_cast<double>(stats.pes.size());
        if (avg <= 0.0) continue;
        before.push_back(rows[k].max_load_before / avg);
        after.push_back(rows[k].max_load_after / avg);
      }
    }
  }
  const auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  out.push_back({"lb.assign_us_p50", percentile(assign_ns, 50) / 1e3, "us"});
  out.push_back({"lb.assign_us_p90", percentile(assign_ns, 90) / 1e3, "us"});
  out.push_back({"lb.refine_us_p50", percentile(refine_us, 50), "us"});
  out.push_back({"lb.max_avg_before", mean(before), "ratio"});
  out.push_back({"lb.max_avg_after", mean(after), "ratio"});
  out.push_back({"core.estimate_us_p50", percentile(estimate_us, 50), "us"});
}

/// Partitioned-runtime comparison on the combined scenario: the same run
/// with one worker and on the legacy engine, through run_scenario.
void sharded_probe(const Workload& w, const TracedPass& traced,
                   std::vector<Metric>& out) {
  double serial = 0.0;
  double parallel = 0.0;
  double legacy = 0.0;
  if (partitioned(w)) {
    const ScenarioConfig& config = w.cells.front().config;
    ScenarioConfig one_worker = config;
    one_worker.shard_workers = 1;
    ScenarioConfig single_engine = config;
    single_engine.shards = 1;
    const auto timed = [](const ScenarioConfig& c) {
      const auto t0 = Clock::now();
      static_cast<void>(run_scenario(c));
      return seconds_since(t0);
    };
    parallel = timed(config);
    serial = timed(one_worker);
    legacy = timed(single_engine);
  }
  const MirrorStats& st = traced.stats;
  std::int64_t tasks = 0;
  for (const RunResult& r : traced.results) tasks += r.app_counters.tasks_executed;
  out.push_back({"sharded.windows", static_cast<double>(st.windows), "count"});
  out.push_back(
      {"sharded.global_steps", static_cast<double>(st.global_steps), "count"});
  out.push_back({"sharded.rewinds", static_cast<double>(st.rewinds), "count"});
  out.push_back({"sharded.tasks_per_window",
                 st.windows == 0 ? 0.0
                                 : static_cast<double>(tasks) /
                                       static_cast<double>(st.windows),
                 "tasks/window"});
  out.push_back({"sharded.speedup_vs_serial",
                 parallel > 0.0 ? serial / parallel : 0.0, "x"});
  out.push_back({"sharded.speedup_vs_legacy",
                 parallel > 0.0 ? legacy / parallel : 0.0, "x"});
}

int run_traced(const Args& args, const Workload& w) {
  SpanRecorder spans;
  Checks checks;
  std::uint64_t next_run_id = 1;
  const Pass first = run_pass(w);
  std::vector<Pass> passes;
  std::vector<double> untraced_walls, traced_walls;
  std::optional<TracedPass> last;
  // Each untraced/traced pair runs on one CPU, so the overhead ratio
  // compares like with like.
  repeat_for(args.seconds, 2, !partitioned(w), [&] {
    passes.push_back(run_pass(w));
    untraced_walls.push_back(passes.back().wall_s);
    last = traced_pass(w, first, spans, next_run_id, checks);
    traced_walls.push_back(last->wall_s);
  });
  std::optional<std::vector<std::optional<PenaltyResult>>> legacy;
  if (partitioned(w)) legacy = legacy_results(w);
  const auto* legacy_ptr = legacy.has_value() ? &*legacy : nullptr;
  check_pass(w, first, first, legacy_ptr, checks);
  for (const Pass& pass : passes) check_pass(w, pass, first, legacy_ptr, checks);

  // On the partitioned runtime, Simulator::step() is not reachable from
  // outside, so the step timings come from the legacy engine running the
  // same combined scenario.
  std::vector<std::uint32_t> step_ns = std::move(last->step_ns);
  std::uint64_t step_events = last->stats.events;
  std::uint64_t step_allocs = last->stats.drive_allocs;
  if (partitioned(w)) {
    ScenarioConfig single_engine = w.cells.front().config;
    single_engine.shards = 1;
    MirrorOptions options;
    options.step_ns = &step_ns;
    options.spans = &spans;
    options.run_id = next_run_id++;
    MirrorStats stats;
    step_ns.clear();
    set_alloc_counting(true);
    try {
      ScopedSpan span{&spans, "scenario.combined_legacy", options.run_id};
      mirror_run_scenario(single_engine, options, stats);
    } catch (const std::exception& e) {
      checks.note(std::string{"legacy-engine combined run threw: "} + e.what(),
                  true);
    }
    set_alloc_counting(false);
    step_events = stats.events;
    step_allocs = stats.drive_allocs;
  }

  std::vector<Metric> metrics;
  const MirrorStats& st = last->stats;
  metrics.push_back({"sim.events", static_cast<double>(st.events), "count"});
  metrics.push_back({"sim.step_ns_p50", percentile(step_ns, 50), "ns"});
  metrics.push_back({"sim.step_ns_p99", percentile(step_ns, 99), "ns"});
  metrics.push_back({"sim.allocs_per_event",
                     static_cast<double>(step_allocs) /
                         static_cast<double>(std::max<std::uint64_t>(
                             step_events, 1)),
                     "allocs/event"});
  double allocs_per_demand = 0.0;
  double demand_ns = 0.0;
  {
    ScopedSpan span{&spans, "machine.demand_probe", 0};
    demand_ns = machine_probe(w.cells.front().config.app_cores,
                              allocs_per_demand);
  }
  metrics.push_back({"machine.demand_ns", demand_ns, "ns"});
  metrics.push_back(
      {"machine.allocs_per_demand", allocs_per_demand, "allocs/demand"});

  RuntimeJob::Counters total;
  for (const RunResult& r : last->results) {
    total.tasks_executed += r.app_counters.tasks_executed;
    total.messages_sent += r.app_counters.messages_sent;
    total.lb_steps += r.app_counters.lb_steps;
    total.migrations += r.app_counters.migrations;
    total.migrated_bytes += r.app_counters.migrated_bytes;
  }
  metrics.push_back(
      {"runtime.tasks", static_cast<double>(total.tasks_executed), "count"});
  metrics.push_back(
      {"runtime.messages", static_cast<double>(total.messages_sent), "count"});
  metrics.push_back(
      {"runtime.lb_steps", static_cast<double>(total.lb_steps), "count"});
  metrics.push_back(
      {"runtime.migrations", static_cast<double>(total.migrations), "count"});
  metrics.push_back({"runtime.migrated_mb",
                     static_cast<double>(total.migrated_bytes) / 1e6, "MB"});
  metrics.push_back({"apps.populate_s", st.populate_s, "s"});
  metrics.push_back({"apps.chares", static_cast<double>(st.chares), "count"});

  double assign_total_ns = 0.0;
  for (const LbCapture& cap : last->lb)
    for (double ns : cap.assign_ns) assign_total_ns += ns;
  lb_probe(w, last->lb, spans, metrics);
  metrics.push_back(
      {"lb.assign_share", assign_total_ns * 1e-9 / last->wall_s, "ratio"});
  sharded_probe(w, *last, metrics);
  const double untraced = median(untraced_walls);
  metrics.push_back({"trace.overhead_pct",
                     (median(traced_walls) / untraced - 1.0) * 100.0, "%"});

  if (!args.trace_out.empty() && !spans.write(args.trace_out))
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
  std::printf("traced passes %zu, grids checked per pass %d\n",
              traced_walls.size(), st.grids_checked);
  print_result(checks, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    const perfbench::Workload w =
        perfbench::make_workload(args.workload, args.seed);
    return args.trace ? perfbench::run_traced(args, w)
                      : perfbench::run_end_to_end(args, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
