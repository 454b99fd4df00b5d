#include "core/scenario.h"

#include <numeric>
#include <optional>

#include "apps/wave2d.h"
#include "core/balancer_factory.h"
#include "faults/fault_injector.h"
#include "lb/null_lb.h"
#include "runtime/network.h"
#include "runtime/sharded_runtime.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/validate.h"
#include "vm/virtual_machine.h"

namespace cloudlb {

namespace {

// Hard ceiling on simulator events per run; a healthy evaluation-scale run
// needs well under a million, so hitting this means a livelock bug.
constexpr std::uint64_t kMaxEvents = 200'000'000;

MachineConfig machine_for(const ScenarioConfig& config) {
  MachineConfig mc = config.machine;
  mc.nodes = (config.app_cores + mc.cores_per_node - 1) / mc.cores_per_node;
  return mc;
}

std::vector<CoreId> first_cores(int n) {
  std::vector<CoreId> cores(static_cast<std::size_t>(n));
  std::iota(cores.begin(), cores.end(), 0);
  return cores;
}

/// Adapter behind the borrowing run_scenario_with overload: the job owns
/// this shim while the caller keeps the real strategy (and its counters).
class BorrowedBalancer final : public LoadBalancer {
 public:
  explicit BorrowedBalancer(LoadBalancer& inner) : inner_{inner} {}
  std::string name() const override { return inner_.name(); }
  std::vector<PeId> assign(const LbStats& stats) override {
    return inner_.assign(stats);
  }

 private:
  LoadBalancer& inner_;
};

/// The one place the two engines differ: a Simulator plus a Machine, or a
/// ShardedRuntimeHost (which owns its Machine). run_scenario_with's set-up
/// sequence is shared; this type supplies the machine, the jobs' engine,
/// each core's engine for the fault injector, timed starts and the drive.
class ScenarioEngine {
 public:
  ScenarioEngine(const ScenarioConfig& config, bool partitioned) {
    // Presize the arena and heap before the first event: steady state
    // holds only a few pending events per core (in-flight messages plus
    // timers), so a generous per-core multiplier removes every mid-run
    // regrow at negligible memory cost (tests/sim_alloc_test.cc pins this).
    const std::size_t presize =
        1024 + 256 * static_cast<std::size_t>(config.app_cores);
    if (partitioned) {
      ShardedRuntimeHost::Config host_config;
      host_config.shards = config.shards;
      host_config.window = shard_window_width(config.job.network);
      host_config.parallel = config.shard_workers > 1;
      host_config.workers = config.shard_workers;
      host_.emplace(machine_for(config), host_config);
      host_->sharded().reserve(presize, presize);
    } else {
      sim_.emplace();
      sim_->reserve(presize, presize);
      machine_.emplace(*sim_, machine_for(config));
    }
  }

  Machine& machine() { return host_ ? host_->machine() : *machine_; }

  /// The single engine, for the tenant field's burst chains (legacy only).
  Simulator& simulator() { return sim_.value(); }

  /// A live fault plan may perturb timestamps; degrade clock-invariant
  /// violations to counted recoveries instead of aborting the run.
  void recover_clock_faults() {
    const auto recover = EngineCore::ClockFaultPolicy::kRecover;
    if (host_) return host_->set_clock_fault_policy(recover);
    sim_->set_clock_fault_policy(recover);
  }

  std::unique_ptr<RuntimeJob> make_job(VirtualMachine& vm, JobConfig config,
                                       std::unique_ptr<LoadBalancer> lb) {
    if (host_)
      return std::make_unique<RuntimeJob>(*host_, vm, std::move(config),
                                          std::move(lb));
    return std::make_unique<RuntimeJob>(*sim_, vm, std::move(config),
                                        std::move(lb));
  }

  EngineCore& engine_of_core(CoreId core) {
    if (host_) return host_->engine_of_core(core);
    return *sim_;
  }

  /// Starts `job` at `t`: now when t = 0, else ahead of any simulation
  /// event at that instant.
  void start_at(SimTime t, RuntimeJob& job) {
    if (t.is_zero()) return job.start();
    if (host_) return host_->schedule_action(t, [&job] { job.start(); });
    sim_->schedule_at(t, [&job] { job.start(); });
  }

  /// Runs until `primary` and `secondary` (if any) have finished. The
  /// `meter` (if any) stops at primary's exact finish instant: the legacy
  /// loop checks after every step, the host calls back from the global
  /// phase in which the job finishes. stop_at is idempotent.
  void drive(RuntimeJob& primary, RuntimeJob* secondary, PowerMeter* meter) {
    if (host_) {
      host_->set_on_job_finished([&primary, meter](RuntimeJob& job) {
        if (&job == &primary && meter != nullptr)
          meter->stop_at(job.finish_time());
      });
      return host_->drive(kMaxEvents);
    }
    for (;;) {
      if (meter != nullptr && primary.finished())
        meter->stop_at(primary.finish_time());
      if (primary.finished() &&
          (secondary == nullptr || secondary->finished()))
        return;
      CLB_CHECK_MSG(sim_->step(), "simulation stalled before jobs finished");
      CLB_CHECK_MSG(sim_->executed() < kMaxEvents, "event-count ceiling hit");
    }
  }

 private:
  std::optional<Simulator> sim_;
  std::optional<Machine> machine_;
  std::optional<ShardedRuntimeHost> host_;
};

/// The paper's fixed interferer: a small Wave2D (BackgroundJobSpec) on the
/// first bg_cores cores, never balanced. The VM outlives the job.
struct BackgroundJob {
  std::unique_ptr<VirtualMachine> vm;
  std::unique_ptr<RuntimeJob> job;
};

BackgroundJob build_background(ScenarioEngine& engine,
                               const ScenarioConfig& config) {
  BackgroundJob bg;
  bg.vm = std::make_unique<VirtualMachine>(
      engine.machine(), "bg", first_cores(config.bg_cores), config.bg_weight);
  JobConfig jc = config.job;
  jc.name = "bg";
  jc.lb_period = 0;
  bg.job = engine.make_job(*bg.vm, jc, std::make_unique<NullLb>());

  const BackgroundJobSpec spec;
  Wave2dConfig wc;
  wc.layout.grid_x = spec.grid_x;
  wc.layout.grid_y = spec.grid_y;
  wc.layout.blocks_x = spec.blocks_x;
  wc.layout.blocks_y = spec.blocks_y;
  wc.layout.sec_per_point = spec.sec_per_point;
  wc.layout.iterations = config.bg_iterations;
  populate_wave2d(*bg.job, wc);
  return bg;
}

}  // namespace

bool runs_partitioned(const ScenarioConfig& config) {
  return config.shards > 1 && machine_for(config).nodes > 1;
}

double percent_increase(double value, double base) {
  CLB_CHECK(base > 0.0);
  return (value / base - 1.0) * 100.0;
}

RunResult run_scenario(const ScenarioConfig& config, TimelineTracer* tracer) {
  return run_scenario_with(config,
                           make_balancer(config.balancer, config.lb_options),
                           tracer);
}

RunResult run_scenario_with(const ScenarioConfig& config,
                            std::unique_ptr<LoadBalancer> balancer,
                            TimelineTracer* tracer) {
  CLB_CHECK(config.app_cores >= 1);
  CLB_CHECK(!config.with_background || config.bg_cores <= config.app_cores);
  CLB_CHECK(balancer != nullptr);
  const bool partitioned = runs_partitioned(config);
  // Observers would need a merged in-order event stream, which windows do
  // not provide; the tenant field hangs its burst chains on the single
  // engine. Both stay legacy-only until they learn shard discipline.
  CLB_CHECK_MSG(!partitioned || tracer == nullptr,
                "timeline tracing is not supported with --shards > 1");
  CLB_CHECK_MSG(!partitioned || config.tenants == 0,
                "tenant fields are not supported with --shards > 1");

  // config.validate widens the process setting for this run only; it
  // never narrows it, so a CLOUDLB_VALIDATE build stays validated.
  ValidationScope validation{config.validate || validation_enabled()};
  ScenarioEngine engine{config, partitioned};
  Machine& machine = engine.machine();

  // The fault injector (if any) outlives the jobs that hold a pointer to
  // it. An empty spec never constructs one, so faultless runs take no
  // fault branch anywhere; an inert plan keeps the strict clock policy
  // (and the bit-identical run).
  std::unique_ptr<FaultInjector> faults;
  if (!config.faults.empty()) {
    faults = std::make_unique<FaultInjector>(FaultPlan::parse(config.faults));
    if (!faults->inert()) engine.recover_clock_faults();
  }

  VirtualMachine app_vm{machine, "app", first_cores(config.app_cores)};
  JobConfig app_job_config = config.job;
  app_job_config.name = config.app.name;
  app_job_config.lb_period = config.lb_period;
  if (faults != nullptr) app_job_config.faults = faults.get();
  const std::unique_ptr<RuntimeJob> app_job =
      engine.make_job(app_vm, app_job_config, std::move(balancer));
  populate_app(*app_job, config.app);
  if (tracer != nullptr) app_job->set_observer(tracer);

  BackgroundJob bg;
  if (config.with_background) {
    bg = build_background(engine, config);
    if (tracer != nullptr) bg.job->set_observer(tracer);
  }

  std::unique_ptr<TenantField> tenants;
  if (config.tenants > 0) {
    TenantFieldConfig tc = config.tenant_config;
    tc.num_tenants = config.tenants;
    tenants = std::make_unique<TenantField>(engine.simulator(), machine, tc);
    tenants->start();
  }

  if (faults != nullptr) {
    faults->install_interference(
        machine, [&engine](CoreId core) -> EngineCore& {
          return engine.engine_of_core(core);
        });
  }

  // Tickless meter: energy integrates the cores' busy time between t = 0
  // and the app job's exact finish instant, on either engine.
  PowerMeter meter{machine, config.power};
  meter.start_at(SimTime::zero());

  app_job->start();
  if (bg.job != nullptr) engine.start_at(config.bg_start, *bg.job);

  engine.drive(*app_job, bg.job.get(), &meter);
  CLB_CHECK(!meter.running());  // the drive must have stopped it
  if (tenants != nullptr) tenants->stop();

  RunResult result;
  result.app_elapsed = app_job->elapsed();
  if (bg.job != nullptr) result.bg_elapsed = bg.job->elapsed();
  result.energy_joules = meter.energy_joules();
  result.avg_power_watts = meter.average_power_watts();
  result.app_counters = app_job->counters();
  result.lb_migrations = app_job->counters().migrations;
  return result;
}

RunResult run_scenario_with(const ScenarioConfig& config,
                            LoadBalancer& balancer, TimelineTracer* tracer) {
  return run_scenario_with(config,
                           std::make_unique<BorrowedBalancer>(balancer),
                           tracer);
}

SimTime run_background_solo(const ScenarioConfig& config) {
  // Same cluster shape as the combined run, so BG network locality
  // matches; always the legacy engine.
  ScenarioEngine engine{config, /*partitioned=*/false};
  const BackgroundJob bg = build_background(engine, config);
  bg.job->start();
  engine.drive(*bg.job, nullptr, nullptr);
  return bg.job->elapsed();
}

PenaltyResult run_penalty_experiment(const ScenarioConfig& config) {
  PenaltyResult out;

  ScenarioConfig solo = config;
  solo.with_background = false;
  solo.tenants = 0;
  solo.faults.clear();  // the normalization run stays a clean reference
  out.base = run_scenario(solo);

  // "Combined" = the configured interference sources (the 2-core BG job
  // and/or a tenant field); "base" = the same app with neither.
  ScenarioConfig combined = config;
  CLB_CHECK_MSG(combined.with_background || combined.tenants > 0,
                "penalty experiment needs some interference source");
  out.combined = run_scenario(combined);

  out.app_penalty_pct = percent_increase(out.combined.app_elapsed.to_seconds(),
                                         out.base.app_elapsed.to_seconds());
  if (out.combined.bg_elapsed.has_value()) {
    out.bg_solo = run_background_solo(config);
    out.bg_penalty_pct = percent_increase(
        out.combined.bg_elapsed->to_seconds(), out.bg_solo.to_seconds());
  }
  out.energy_overhead_pct =
      percent_increase(out.combined.energy_joules, out.base.energy_joules);
  return out;
}

}  // namespace cloudlb
