#pragma once

#include <memory>
#include <vector>

#include "core/forecasting_estimator.h"
#include "lb/framework.h"

namespace cloudlb {

/// Estimates each PE's background (interfering) load over the last LB
/// window — the paper's Eq. 2:
///
///     O_p = T_lb − Σ_i t_p_i − t_p_idle
///
/// where T_lb is the wall-clock window, Σ t_p_i the CPU consumed by the
/// application's own tasks (from the LB database) and t_idle the *physical
/// core's* idle time over the window (the `/proc/stat` reading). Whatever
/// wall time is neither the application computing nor the core idling must
/// have been spent running somebody else — the co-located VM.
///
/// The estimate also absorbs runtime overheads (message handling,
/// migration pack/unpack) exactly as the paper's implementation does; it is
/// clamped into [0, T_lb] at the estimate boundary: measurement jitter can
/// drive the Eq. 2 subtraction slightly negative, and a corrupted counter
/// (e.g. a finite-but-negative idle reading) would otherwise explode it
/// past the window length and poison T_avg for every PE.
std::vector<double> estimate_background_load(const LbStats& stats);

/// Single-PE version of Eq. 2 (exposed for tests and tooling).
double estimate_background_load(const PeSample& pe);

/// Whether one PE sample is physically plausible: every field finite and
/// non-negative, and neither idle nor task time exceeding the wall-clock
/// window (beyond a small jitter tolerance). Corrupted host counters and
/// failed /proc/stat-style reads fail this test.
bool pe_sample_sane(const PeSample& pe);

/// True when every PE sample of the snapshot is sane — the gate
/// BackgroundLoadEstimator::rejects keys on.
bool stats_sane(const LbStats& stats);

/// Tolerance for "a duration exceeds the wall window": an absolute floor
/// for tiny windows plus a relative allowance for clock jitter and jiffy
/// rounding. The single source of the wall-slack fraction — the sanity
/// gate, the outlier-clamp ceiling, and the forecast mispredict test all
/// share it so the tolerances cannot drift apart.
double wall_slack(double wall_sec);

/// Median of a small sample (by copy; windows are a handful of entries).
/// Even-sized samples average the two middle elements — returning either
/// middle alone would bias the clamp ceiling by half an element.
double median_of(std::vector<double> samples);

/// The one background-load pipeline: what every interference-aware
/// balancer (ia-refine, its ia-refine-ewma preset, gain-gated) plans
/// against. Built from LbRobustnessOptions, it runs fixed stages in a
/// fixed order (docs/estimators.md):
///
///   1. Eq. 2 with its boundary clamp (estimate_background_load);
///   2. median-of-window outlier clamp, when estimator_window > 0 — each
///      estimate is capped at
///          clamp_factor · median(last window raws) + wall_slack(T_lb),
///      so a one-window glitch cannot command a migration storm while a
///      sustained rise shifts the median and passes within ~window/2
///      steps. Raw values enter the history (never the clamped ones) so
///      the clamp cannot latch itself shut;
///   3. forecaster, when estimator_mode != persist: the balancer plans
///      against `predicted + margin · band`, clamped into [0, T_lb]. The
///      forecaster learns the *clamped* series, so a glitch stage 2
///      absorbed cannot poison its trend state;
///   4. EWMA smoothing `Ô ← α·O + (1−α)·Ô` with α = forecast_alpha, only
///      when `smooth` is set (the ia-refine-ewma preset). It runs after
///      stage 3's clamp and is not clamped itself: it averages values
///      each already inside its own window, and a clamp to the *current*
///      window would bind whenever a short window follows a long busy
///      one — common under tenant churn — and change the preset's
///      decisions.
///
/// With default options (persist, no window, no smoothing) the output is
/// exactly estimate_background_load — pinned by the golden trace digest.
///
/// The pipeline also keeps the books on stage 3's mistakes: a window
/// whose observation lands outside the previous forecast's confidence
/// band (plus the wall-slack tolerance) counts as mispredicted. Every
/// stage resets its per-PE state when the PE count changes.
class BackgroundLoadEstimator {
 public:
  explicit BackgroundLoadEstimator(const LbRobustnessOptions& options,
                                   bool smooth = false);

  /// The garbage fallback every balancer on this pipeline checks first:
  /// true (and counted) when fallback_on_insane_stats is set and the
  /// snapshot fails stats_sane. The balancer then keeps the current
  /// assignment: holding costs at most one stale window, migrating on
  /// corrupted counters can cost the whole run.
  bool rejects(const LbStats& stats);
  int garbage_fallbacks() const { return garbage_fallbacks_; }

  /// Per-PE background loads to balance against (shape of stats.pes).
  std::vector<double> estimate(const LbStats& stats);

  /// True when stage 3 (a forecasting mode other than persist) is active.
  bool forecasting() const { return forecaster_ != nullptr; }

  /// True when stage 4 (EWMA smoothing) is active.
  bool smoothing() const { return smoother_ != nullptr; }

  /// Estimates capped by the outlier clamp so far; 0 without a window.
  /// Cumulative over the estimator's lifetime: a PE-count change resets
  /// the history rings but never this counter.
  int clamped_count() const { return clamped_; }

  /// Windows whose observation fell outside the previous forecast's
  /// confidence band. Always 0 in persist mode (nothing predicts).
  int mispredicted_windows() const { return mispredicted_; }

  /// Whether the newest estimate() call found the previous forecast
  /// wrong — i.e. whatever the balancer does *this* window, it does off
  /// the back of a misprediction.
  bool last_window_mispredicted() const { return last_mispredicted_; }

 private:
  void clamp_outliers(const LbStats& stats, std::vector<double>& o_p);
  void forecast(const LbStats& stats, std::vector<double>& o_p);

  LbRobustnessOptions options_;
  int garbage_fallbacks_ = 0;
  // Stage 2: per-PE ring of raw estimates.
  std::vector<std::vector<double>> history_;
  std::vector<std::size_t> next_;
  int clamped_ = 0;
  // Stage 3: the forecaster and the forecast this window is scored on.
  std::unique_ptr<ForecastingEstimator> forecaster_;
  std::vector<double> last_predicted_;
  std::vector<double> last_band_;
  int mispredicted_ = 0;
  bool last_mispredicted_ = false;
  // Stage 4: an EWMA forecaster whose flat level is the smoothed O_p.
  std::unique_ptr<ForecastingEstimator> smoother_;
};

}  // namespace cloudlb
