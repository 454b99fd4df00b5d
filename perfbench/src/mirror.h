#pragma once

#include <cstdint>
#include <vector>

#include "core/scenario.h"
#include "spans.h"

namespace perfbench {

/// What the timing balancer decorator captured: every LbStats snapshot the
/// strategy saw and how long its assign() took.
struct LbCapture {
  std::vector<cloudlb::LbStats> windows;
  std::vector<double> assign_ns;
};

/// Probes for one mirrored scenario run.
struct MirrorOptions {
  /// Build the run (machine, VMs, jobs, chares, start()) and stop before
  /// the first event.
  bool setup_only = false;
  SpanRecorder* spans = nullptr;
  std::uint64_t run_id = 0;
  /// When set, the application balancer is wrapped in a timing decorator
  /// that appends here.
  LbCapture* lb = nullptr;
  /// When set, every Simulator::step() is timed into it, in ns
  /// (single-engine runs only).
  std::vector<std::uint32_t>* step_ns = nullptr;
};

/// What one mirrored run measured.
struct MirrorStats {
  double setup_s = 0.0;     ///< construction through start(), before event 1
  double populate_s = 0.0;  ///< inside populate_app / populate_wave2d
  std::int64_t chares = 0;  ///< chares those calls created
  std::uint64_t events = 0;
  std::uint64_t drive_allocs = 0;  ///< needs alloc counting on
  // Partitioned runtime only.
  std::uint64_t windows = 0;
  std::uint64_t global_steps = 0;
  std::uint64_t rewinds = 0;
  // Final stencil grids compared with their serial reference after every
  // completed run, and mismatches.
  int grids_checked = 0;
  int grids_failed = 0;
  double check_s = 0.0;  ///< host time of those comparisons

  MirrorStats& operator+=(const MirrorStats& o) {
    setup_s += o.setup_s;
    populate_s += o.populate_s;
    chares += o.chares;
    events += o.events;
    drive_allocs += o.drive_allocs;
    windows += o.windows;
    global_steps += o.global_steps;
    rewinds += o.rewinds;
    grids_checked += o.grids_checked;
    grids_failed += o.grids_failed;
    check_s += o.check_s;
    return *this;
  }
};

/// run_scenario(config), rebuilt step by step from the same public
/// constructors so that set-up and drive can be timed apart. The caller
/// checks that the RunResult equals run_scenario's bit for bit. Takes the
/// partitioned runtime exactly when run_scenario does.
cloudlb::RunResult mirror_run_scenario(const cloudlb::ScenarioConfig& config,
                                       const MirrorOptions& options,
                                       MirrorStats& stats);

/// run_background_solo(config), mirrored the same way.
cloudlb::SimTime mirror_run_background_solo(
    const cloudlb::ScenarioConfig& config, const MirrorOptions& options,
    MirrorStats& stats);

/// Bitwise equality of everything a RunResult carries.
bool same_result(const cloudlb::RunResult& a, const cloudlb::RunResult& b);

}  // namespace perfbench
