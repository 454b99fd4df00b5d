#include "core/background_estimator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/log.h"

namespace cloudlb {

namespace {

/// A corrupt sample field (e.g. wall_sec = NaN from a failed /proc/stat
/// style read) must not reach Eq. 2: NaN/Inf would propagate into T_avg
/// and poison the whole balance decision. Treat non-finite fields as 0.
double finite_or_zero(double v, const char* field, PeId pe) {
  if (std::isfinite(v)) return v;
  CLB_WARN("background estimator: PE " << pe << " sample has non-finite "
                                       << field << " (" << v
                                       << "); treating as 0");
  return 0.0;
}

/// The relative wall-slack allowance. Keep this the only `0.05` in the
/// estimator: every consumer goes through wall_slack(), so the sanity
/// gate and the clamp ceiling cannot drift apart (the determinism
/// linter's float-literal rule pins the bare-literal form).
constexpr double kWallSlackFraction = 0.05;

}  // namespace

double wall_slack(double wall_sec) {
  return 1e-9 + kWallSlackFraction * wall_sec;
}

double median_of(std::vector<double> v) {
  const auto mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  if (v.size() % 2 != 0) return v[mid];
  // Even sample: nth_element left the upper middle at v[mid] and
  // everything not greater before it, so the lower middle is the max of
  // the left partition. Averaging the two keeps the clamp ceiling
  // unbiased for even windows.
  const double lower =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + v[mid]);
}

double estimate_background_load(const PeSample& pe) {
  const double wall = finite_or_zero(pe.wall_sec, "wall_sec", pe.pe);
  const double task = finite_or_zero(pe.task_cpu_sec, "task_cpu_sec", pe.pe);
  const double idle = finite_or_zero(pe.core_idle_sec, "core_idle_sec", pe.pe);
  const double o_p = wall - task - idle;
  // Clamp at the estimate boundary, not just per field: a finite-but-
  // negative idle or task reading (clock jitter, corrupted counter) makes
  // the Eq. 2 subtraction exceed the window — yet no co-located VM can
  // have consumed more than the window itself.
  return std::clamp(o_p, 0.0, std::max(wall, 0.0));
}

std::vector<double> estimate_background_load(const LbStats& stats) {
  std::vector<double> out;
  out.reserve(stats.pes.size());
  for (const PeSample& pe : stats.pes) out.push_back(estimate_background_load(pe));
  return out;
}

bool pe_sample_sane(const PeSample& pe) {
  if (!std::isfinite(pe.wall_sec) || !std::isfinite(pe.core_idle_sec) ||
      !std::isfinite(pe.task_cpu_sec))
    return false;
  if (pe.wall_sec < 0.0 || pe.core_idle_sec < 0.0 || pe.task_cpu_sec < 0.0)
    return false;
  const double slack = wall_slack(pe.wall_sec);
  return pe.core_idle_sec <= pe.wall_sec + slack &&
         pe.task_cpu_sec <= pe.wall_sec + slack;
}

bool stats_sane(const LbStats& stats) {
  return std::all_of(stats.pes.begin(), stats.pes.end(), pe_sample_sane);
}

BackgroundLoadEstimator::BackgroundLoadEstimator(
    const LbRobustnessOptions& options, bool smooth)
    : options_{options}, forecaster_{make_forecasting_estimator(options)} {
  if (options_.estimator_window > 0) {
    CLB_CHECK_MSG(options_.estimator_window >= 3,
                  "outlier window needs at least 3 samples");
    CLB_CHECK(options_.estimator_clamp_factor >= 1.0);
  }
  if (smooth) {
    LbRobustnessOptions ewma = options_;
    ewma.estimator_mode = EstimatorMode::kEwma;
    smoother_ = make_forecasting_estimator(ewma);
  }
}

bool BackgroundLoadEstimator::rejects(const LbStats& stats) {
  if (!options_.fallback_on_insane_stats || stats_sane(stats)) return false;
  CLB_WARN("background estimator: insane stats snapshot; keeping the "
           "last-good assignment (fallback #" << ++garbage_fallbacks_ << ")");
  return true;
}

std::vector<double> BackgroundLoadEstimator::estimate(const LbStats& stats) {
  std::vector<double> o_p = estimate_background_load(stats);
  if (options_.estimator_window > 0) clamp_outliers(stats, o_p);
  if (forecaster_ != nullptr) forecast(stats, o_p);
  if (smoother_ != nullptr)
    o_p = smoother_->step(o_p, options_.forecast_horizon).predicted;
  return o_p;
}

void BackgroundLoadEstimator::clamp_outliers(const LbStats& stats,
                                             std::vector<double>& o_p) {
  if (history_.size() != o_p.size()) {
    history_.assign(o_p.size(), {});
    next_.assign(o_p.size(), 0);
  }
  const auto window = static_cast<std::size_t>(options_.estimator_window);
  for (std::size_t p = 0; p < o_p.size(); ++p) {
    const double raw = o_p[p];
    auto& ring = history_[p];
    if (ring.size() >= 3) {
      // The slack term keeps the ceiling open when the median is zero (a
      // previously quiet core), so genuine new interference ramps in at a
      // bounded rate per window instead of being suppressed forever.
      const double ceiling =
          options_.estimator_clamp_factor * median_of(ring) +
          wall_slack(std::max(stats.pes[p].wall_sec, 0.0));
      if (raw > ceiling) {
        o_p[p] = ceiling;
        ++clamped_;
        CLB_DEBUG("background estimator: PE " << stats.pes[p].pe
                                              << " O_p clamped " << raw
                                              << " -> " << ceiling);
      }
    }
    if (ring.size() < window) {
      ring.push_back(raw);
    } else {
      ring[next_[p]] = raw;
      next_[p] = (next_[p] + 1) % window;
    }
  }
}

void BackgroundLoadEstimator::forecast(const LbStats& stats,
                                       std::vector<double>& o_p) {
  // Score the forecast this window was balanced against, before the
  // forecaster sees the new observation. A topology change (size
  // mismatch) voids the old forecast rather than counting it wrong.
  last_mispredicted_ = false;
  if (last_predicted_.size() == o_p.size()) {
    for (std::size_t p = 0; p < o_p.size(); ++p) {
      const double tolerance =
          last_band_[p] + wall_slack(std::max(stats.pes[p].wall_sec, 0.0));
      if (std::abs(o_p[p] - last_predicted_[p]) > tolerance) {
        last_mispredicted_ = true;
        break;
      }
    }
    if (last_mispredicted_) ++mispredicted_;
  }

  Forecast f = forecaster_->step(o_p, options_.forecast_horizon);
  for (std::size_t p = 0; p < o_p.size(); ++p) {
    const double wall = std::max(stats.pes[p].wall_sec, 0.0);
    // Same physical bound as the Eq. 2 boundary clamp: no co-located VM
    // can consume more than the window, predicted or not.
    o_p[p] = std::clamp(f.predicted[p] + options_.forecast_margin * f.band[p],
                        0.0, wall);
  }
  last_predicted_ = std::move(f.predicted);
  last_band_ = std::move(f.band);
}

}  // namespace cloudlb
