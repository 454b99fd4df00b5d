// Step-by-step copies of run_scenario / run_background_solo
// (src/core/scenario.cc), built from the same public constructors in the
// same order, so the traced run can time set-up, drive, populate_app and
// each Simulator::step() apart. Any drift from the originals shows up as
// a RunResult that differs from run_scenario's, which the benchmark
// reports as incorrect.
#include "mirror.h"

#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "alloc_count.h"
#include "apps/jacobi2d.h"
#include "apps/wave2d.h"
#include "core/balancer_factory.h"
#include "lb/null_lb.h"
#include "runtime/network.h"
#include "runtime/sharded_runtime.h"
#include "sim/simulator.h"
#include "util/validate.h"
#include "vm/virtual_machine.h"

namespace perfbench {

using namespace cloudlb;

namespace {

// The same runaway guard as scenario.cc.
constexpr std::uint64_t kMaxEvents = 200'000'000;

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(what);
}

MachineConfig machine_for(const ScenarioConfig& config, int cores_needed) {
  MachineConfig mc = config.machine;
  mc.nodes = (cores_needed + mc.cores_per_node - 1) / mc.cores_per_node;
  return mc;
}

Wave2dConfig background_app_config(const ScenarioConfig& config) {
  const BackgroundJobSpec spec;
  Wave2dConfig wc;
  wc.layout.grid_x = spec.grid_x;
  wc.layout.grid_y = spec.grid_y;
  wc.layout.blocks_x = spec.blocks_x;
  wc.layout.blocks_y = spec.blocks_y;
  wc.layout.sec_per_point = spec.sec_per_point;
  wc.layout.iterations = config.bg_iterations;
  return wc;
}

JobConfig background_job_config(const ScenarioConfig& config) {
  JobConfig jc = config.job;
  jc.name = "bg";
  jc.lb_period = 0;
  return jc;
}

std::vector<CoreId> first_cores(int n) {
  std::vector<CoreId> cores(static_cast<std::size_t>(n));
  std::iota(cores.begin(), cores.end(), 0);
  return cores;
}

/// Times assign() and keeps each LbStats snapshot; otherwise transparent.
class TimedBalancer final : public LoadBalancer {
 public:
  TimedBalancer(std::unique_ptr<LoadBalancer> inner, LbCapture& capture,
                SpanRecorder* spans, std::uint64_t run_id)
      : inner_{std::move(inner)},
        capture_{capture},
        spans_{spans},
        run_id_{run_id} {}

  void set_parent_span(int parent) { parent_ = parent; }

  std::string name() const override { return inner_->name(); }

  std::vector<PeId> assign(const LbStats& stats) override {
    const auto t0 = Clock::now();
    std::vector<PeId> out = inner_->assign(stats);
    const auto t1 = Clock::now();
    capture_.assign_ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
    capture_.windows.push_back(stats);
    if (spans_ != nullptr)
      spans_->record("lb.assign", t0, t1, parent_, run_id_);
    return out;
  }

 private:
  std::unique_ptr<LoadBalancer> inner_;
  LbCapture& capture_;
  SpanRecorder* spans_;
  std::uint64_t run_id_;
  int parent_ = SpanRecorder::kNoParent;
};

/// The application balancer, wrapped when the LB layer is probed.
std::unique_ptr<LoadBalancer> app_balancer(const ScenarioConfig& config,
                                           const MirrorOptions& options,
                                           TimedBalancer*& timed) {
  auto balancer = make_balancer(config.balancer, config.lb_options);
  timed = nullptr;
  if (options.lb == nullptr) return balancer;
  auto wrapped = std::make_unique<TimedBalancer>(
      std::move(balancer), *options.lb, options.spans, options.run_id);
  timed = wrapped.get();
  return wrapped;
}

/// Times a populate call and counts the chares it adds.
template <typename Populate>
void timed_populate(RuntimeJob& job, MirrorStats& stats,
                    const MirrorOptions& options, Populate populate) {
  ScopedSpan span{options.spans, "apps.populate", options.run_id};
  const std::size_t before = job.num_chares();
  const auto t0 = Clock::now();
  populate();
  stats.populate_s += seconds_since(t0);
  stats.chares += static_cast<std::int64_t>(job.num_chares() - before);
}

/// Compares a finished stencil job's grid, read through block_values(),
/// with the serial reference. nullopt when the job is not a stencil code.
std::optional<bool> stencil_grid_matches(RuntimeJob& job) {
  if (job.num_chares() == 0) return std::nullopt;
  auto* first = dynamic_cast<StencilBlockChare*>(&job.chare(0));
  if (first == nullptr) return std::nullopt;
  const StencilLayout layout = first->layout();
  const bool wave = dynamic_cast<Wave2dChare*>(first) != nullptr;

  std::vector<double> grid(static_cast<std::size_t>(layout.grid_x) *
                           static_cast<std::size_t>(layout.grid_y));
  for (std::size_t id = 0; id < job.num_chares(); ++id) {
    auto& block = dynamic_cast<StencilBlockChare&>(
        job.chare(static_cast<ChareId>(id)));
    const std::vector<double> values =
        wave ? dynamic_cast<Wave2dChare&>(block).block_values()
             : dynamic_cast<Jacobi2dChare&>(block).block_values();
    if (values.size() != static_cast<std::size_t>(block.nx() * block.ny()))
      return false;
    for (int row = 0; row < block.ny(); ++row) {
      const std::size_t dst =
          static_cast<std::size_t>(block.y0() + row) *
              static_cast<std::size_t>(layout.grid_x) +
          static_cast<std::size_t>(block.x0());
      std::memcpy(&grid[dst],
                  &values[static_cast<std::size_t>(row * block.nx())],
                  static_cast<std::size_t>(block.nx()) * sizeof(double));
    }
  }

  std::vector<double> reference;
  if (wave) {
    Wave2dConfig wc;
    wc.layout = layout;
    reference = wave2d_reference(wc);
  } else {
    Jacobi2dConfig jc;
    jc.layout = layout;
    reference = jacobi2d_reference(jc);
  }
  return reference.size() == grid.size() &&
         std::memcmp(reference.data(), grid.data(),
                     grid.size() * sizeof(double)) == 0;
}

void check_grids(RuntimeJob* job, const MirrorOptions& options,
                 MirrorStats& stats) {
  if (job == nullptr) return;
  ScopedSpan span{options.spans, "check.grid", options.run_id};
  const auto t0 = Clock::now();
  if (const std::optional<bool> ok = stencil_grid_matches(*job)) {
    ++stats.grids_checked;
    if (!*ok) ++stats.grids_failed;
  }
  stats.check_s += seconds_since(t0);
}

/// The legacy engine's drive loop, optionally timing every step.
void drive(Simulator& sim, RuntimeJob& primary, RuntimeJob* secondary,
           PowerMeter* meter, const MirrorOptions& options) {
  const bool time_steps = options.step_ns != nullptr;
  while (!primary.finished() ||
         (secondary != nullptr && !secondary->finished())) {
    bool stepped = false;
    if (time_steps) {
      const auto t0 = Clock::now();
      stepped = sim.step();
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count();
      options.step_ns->push_back(static_cast<std::uint32_t>(ns));
    } else {
      stepped = sim.step();
    }
    require(stepped, "simulation stalled before jobs finished");
    require(sim.executed() < kMaxEvents, "event-count ceiling hit");
    if (meter != nullptr && meter->running() && primary.finished())
      meter->stop();
  }
  if (meter != nullptr && meter->running()) meter->stop();
}

RunResult result_of(RuntimeJob& app_job, RuntimeJob* bg_job,
                    const PowerMeter& meter) {
  RunResult result;
  result.app_elapsed = app_job.elapsed();
  if (bg_job != nullptr) result.bg_elapsed = bg_job->elapsed();
  result.energy_joules = meter.energy_joules();
  result.avg_power_watts = meter.average_power_watts();
  result.app_counters = app_job.counters();
  result.lb_migrations = app_job.counters().migrations;
  return result;
}

RunResult mirror_sharded(const ScenarioConfig& config,
                         const MirrorOptions& options, MirrorStats& stats) {
  require(config.tenants == 0,
          "tenant fields are not supported with --shards > 1");
  require(config.faults.empty(), "the benchmark runs no fault plans");
  std::optional<ScopedSpan> setup_span{std::in_place, options.spans, "setup",
                                       options.run_id};
  const auto t_setup = Clock::now();
  TimedBalancer* timed = nullptr;
  auto balancer = app_balancer(config, options, timed);
  ValidationScope validation{config.validate || validation_enabled()};

  ShardedRuntimeHost::Config host_config;
  host_config.shards = config.shards;
  host_config.window = shard_window_width(config.job.network);
  host_config.parallel = config.shard_workers > 1;
  host_config.workers = config.shard_workers;
  ShardedRuntimeHost host{machine_for(config, config.app_cores), host_config};
  Machine& machine = host.machine();
  const std::size_t presize =
      1024 + 256 * static_cast<std::size_t>(config.app_cores);
  host.sharded().reserve(presize, presize);

  VirtualMachine app_vm{machine, "app", first_cores(config.app_cores)};
  JobConfig app_job_config = config.job;
  app_job_config.name = config.app.name;
  app_job_config.lb_period = config.lb_period;
  RuntimeJob app_job{host, app_vm, app_job_config, std::move(balancer)};
  timed_populate(app_job, stats, options,
                 [&] { populate_app(app_job, config.app); });

  std::unique_ptr<VirtualMachine> bg_vm;
  std::unique_ptr<RuntimeJob> bg_job;
  if (config.with_background) {
    bg_vm = std::make_unique<VirtualMachine>(
        machine, "bg", first_cores(config.bg_cores), config.bg_weight);
    bg_job = std::make_unique<RuntimeJob>(host, *bg_vm,
                                          background_job_config(config),
                                          std::make_unique<NullLb>());
    timed_populate(*bg_job, stats, options, [&] {
      populate_wave2d(*bg_job, background_app_config(config));
    });
  }

  PowerMeter meter{machine, config.power};
  host.set_on_job_finished([&meter, &app_job](RuntimeJob& job) {
    if (&job == &app_job && meter.running()) meter.stop_at(job.finish_time());
  });
  meter.start_at(SimTime::zero());
  app_job.start();
  if (bg_job != nullptr) {
    if (config.bg_start.is_zero()) {
      bg_job->start();
    } else {
      RuntimeJob* bg = bg_job.get();
      host.schedule_action(config.bg_start, [bg] { bg->start(); });
    }
  }
  stats.setup_s += seconds_since(t_setup);
  setup_span.reset();
  if (options.setup_only) return RunResult{};

  {
    ScopedSpan drive_span{options.spans, "drive", options.run_id};
    if (timed != nullptr && options.spans != nullptr)
      timed->set_parent_span(options.spans->current());
    const AllocDelta allocs;
    host.drive(kMaxEvents);
    stats.drive_allocs += allocs.count();
  }
  require(!meter.running(), "power meter still running after the drive");
  stats.events += host.sharded().executed();
  stats.windows += host.windows_run();
  stats.global_steps += host.global_steps();
  stats.rewinds += host.rewinds();
  check_grids(&app_job, options, stats);
  check_grids(bg_job.get(), options, stats);
  return result_of(app_job, bg_job.get(), meter);
}

}  // namespace

RunResult mirror_run_scenario(const ScenarioConfig& config,
                              const MirrorOptions& options,
                              MirrorStats& stats) {
  require(config.app_cores >= 1, "app_cores must be positive");
  if (config.shards > 1 && machine_for(config, config.app_cores).nodes > 1)
    return mirror_sharded(config, options, stats);
  require(config.faults.empty(), "the benchmark runs no fault plans");

  std::optional<ScopedSpan> setup_span{std::in_place, options.spans, "setup",
                                       options.run_id};
  const auto t_setup = Clock::now();
  TimedBalancer* timed = nullptr;
  auto balancer = app_balancer(config, options, timed);
  ValidationScope validation{config.validate || validation_enabled()};

  Simulator sim;
  const std::size_t presize =
      1024 + 256 * static_cast<std::size_t>(config.app_cores);
  sim.reserve(presize, presize);
  Machine machine{sim, machine_for(config, config.app_cores)};
  VirtualMachine app_vm{machine, "app", first_cores(config.app_cores)};

  JobConfig app_job_config = config.job;
  app_job_config.name = config.app.name;
  app_job_config.lb_period = config.lb_period;
  RuntimeJob app_job{sim, app_vm, app_job_config, std::move(balancer)};
  timed_populate(app_job, stats, options,
                 [&] { populate_app(app_job, config.app); });

  std::unique_ptr<VirtualMachine> bg_vm;
  std::unique_ptr<RuntimeJob> bg_job;
  if (config.with_background) {
    bg_vm = std::make_unique<VirtualMachine>(
        machine, "bg", first_cores(config.bg_cores), config.bg_weight);
    bg_job = std::make_unique<RuntimeJob>(sim, *bg_vm,
                                          background_job_config(config),
                                          std::make_unique<NullLb>());
    timed_populate(*bg_job, stats, options, [&] {
      populate_wave2d(*bg_job, background_app_config(config));
    });
  }

  std::unique_ptr<TenantField> tenants;
  if (config.tenants > 0) {
    TenantFieldConfig tc = config.tenant_config;
    tc.num_tenants = config.tenants;
    tenants = std::make_unique<TenantField>(sim, machine, tc);
    tenants->start();
  }

  PowerMeter meter{sim, machine, config.power};
  meter.start();
  app_job.start();
  if (bg_job != nullptr) {
    if (config.bg_start.is_zero()) {
      bg_job->start();
    } else {
      sim.schedule_at(config.bg_start, [&bg_job] { bg_job->start(); });
    }
  }
  stats.setup_s += seconds_since(t_setup);
  setup_span.reset();
  if (options.setup_only) return RunResult{};

  {
    ScopedSpan drive_span{options.spans, "drive", options.run_id};
    if (timed != nullptr && options.spans != nullptr)
      timed->set_parent_span(options.spans->current());
    const AllocDelta allocs;
    drive(sim, app_job, bg_job.get(), &meter, options);
    stats.drive_allocs += allocs.count();
  }
  if (tenants != nullptr) tenants->stop();
  stats.events += sim.executed();
  check_grids(&app_job, options, stats);
  check_grids(bg_job.get(), options, stats);
  return result_of(app_job, bg_job.get(), meter);
}

SimTime mirror_run_background_solo(const ScenarioConfig& config,
                                   const MirrorOptions& options,
                                   MirrorStats& stats) {
  std::optional<ScopedSpan> setup_span{std::in_place, options.spans, "setup",
                                       options.run_id};
  const auto t_setup = Clock::now();
  Simulator sim;
  Machine machine{sim, machine_for(config, config.app_cores)};
  VirtualMachine bg_vm{machine, "bg", first_cores(config.bg_cores),
                       config.bg_weight};
  RuntimeJob bg_job{sim, bg_vm, background_job_config(config),
                    std::make_unique<NullLb>()};
  timed_populate(bg_job, stats, options, [&] {
    populate_wave2d(bg_job, background_app_config(config));
  });
  bg_job.start();
  stats.setup_s += seconds_since(t_setup);
  setup_span.reset();
  if (options.setup_only) return SimTime::zero();

  {
    ScopedSpan drive_span{options.spans, "drive", options.run_id};
    const AllocDelta allocs;
    drive(sim, bg_job, nullptr, nullptr, options);
    stats.drive_allocs += allocs.count();
  }
  stats.events += sim.executed();
  check_grids(&bg_job, options, stats);
  return bg_job.elapsed();
}

bool same_result(const RunResult& a, const RunResult& b) {
  const auto same_double = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  const RuntimeJob::Counters& ca = a.app_counters;
  const RuntimeJob::Counters& cb = b.app_counters;
  return a.app_elapsed == b.app_elapsed && a.bg_elapsed == b.bg_elapsed &&
         same_double(a.energy_joules, b.energy_joules) &&
         same_double(a.avg_power_watts, b.avg_power_watts) &&
         ca.tasks_executed == cb.tasks_executed &&
         ca.messages_sent == cb.messages_sent && ca.lb_steps == cb.lb_steps &&
         ca.migrations == cb.migrations &&
         ca.migrated_bytes == cb.migrated_bytes &&
         ca.migration_retries == cb.migration_retries &&
         ca.migrations_failed == cb.migrations_failed &&
         a.lb_migrations == b.lb_migrations;
}

}  // namespace perfbench
