#pragma once

#include <vector>

#include "machine/machine.h"
#include "sim/simulator.h"
#include "util/sim_time.h"

namespace cloudlb {

/// Node-level power model.
///
/// P_node(t) = base + dynamic_per_core · Σ_core util_core(t).
/// Defaults are the paper's testbed figures: 40 W base per node and a
/// 170 W full-load quad-core node, i.e. (170 − 40) / 4 = 32.5 W per busy
/// core. The paper's energy argument depends on exactly these two facts:
/// high base power, and dynamic power proportional to utilization.
struct PowerModelConfig {
  double base_watts_per_node = 40.0;
  double dynamic_watts_per_core = 32.5;
};

/// Per-node power meter, mirroring the testbed's 1 Hz node meters.
///
/// Provides both a sampled power series (what the paper's meters report)
/// and an exact energy integral computed from the cores' cumulative busy
/// time (used for headline numbers; the sampled series converges to it).
class PowerMeter {
 public:
  struct Sample {
    SimTime time;
    double total_watts = 0.0;
  };

  PowerMeter(Simulator& sim, Machine& machine, PowerModelConfig config = {},
             SimTime sample_interval = SimTime::seconds(1));

  /// Tickless meter, what scenario runs use on either engine: no sample
  /// chain, so no sampled series — only the exact energy integral between
  /// start_at and stop_at, read through Core::proc_stat_at at explicit
  /// instants. The sampled series was always a convergent approximation
  /// of that integral; the headline numbers never depended on it.
  PowerMeter(Machine& machine, PowerModelConfig config = {});

  /// Begins metering at the current simulation time.
  void start();

  /// Ends metering; freezes energy and the sample series. Idempotent.
  void stop();

  /// Tickless begin/end at an explicit global instant (requires the
  /// tickless constructor). `t` must satisfy the proc_stat_at contract on
  /// every core's engine — the sharded host's global phases guarantee it,
  /// and on one engine the current instant always does.
  void start_at(SimTime t);
  void stop_at(SimTime t);

  bool running() const { return running_; }

  /// Exact energy (J) consumed by all nodes over [start, stop] (or
  /// [start, now) while still running).
  double energy_joules() const;

  /// Exact mean power (W) over the metered window.
  double average_power_watts() const;

  /// Metered wall time so far.
  SimTime window() const;

  /// Instantaneous-window samples captured every `sample_interval`.
  const std::vector<Sample>& samples() const { return samples_; }

  const PowerModelConfig& config() const { return config_; }

 private:
  double total_busy_seconds() const;
  double total_busy_seconds_at(SimTime t) const;
  void on_sample_tick();

  EngineCore* sim_;  ///< null in tickless mode
  Machine& machine_;
  PowerModelConfig config_;
  SimTime interval_;
  bool running_ = false;
  SimTime start_time_;
  SimTime stop_time_;
  double busy_at_start_ = 0.0;
  double busy_at_stop_ = 0.0;
  double busy_at_last_sample_ = 0.0;
  std::vector<Sample> samples_;
  EventHandle tick_event_;
};

}  // namespace cloudlb
