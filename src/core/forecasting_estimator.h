#pragma once

#include <memory>
#include <string>
#include <vector>

#include "lb/framework.h"

namespace cloudlb {

/// One-window-ahead forecast of the per-PE background series.
struct Forecast {
  /// Predicted O_p per PE, `horizon` windows ahead of the newest
  /// observation. Extrapolation may leave [0, T_lb]; the consumer clamps
  /// (BackgroundLoadEstimator does) because only it knows T_lb.
  std::vector<double> predicted;

  /// One-sided confidence half-width per PE — an online estimate of the
  /// forecaster's own one-step error on this series, scaled to the
  /// horizon. Zero until the forecaster has seen enough windows to have
  /// made a checkable prediction.
  std::vector<double> band;
};

/// A forecasting estimator ingests the per-PE background series (the
/// paper's Eq. 2 values, already through the outlier clamp when one is
/// configured — clamp first, forecast on the clamped series) one LB
/// window at a time and predicts where each PE's O_p will be `horizon`
/// windows ahead.
///
/// The paper's principle of persistence predicts the next window from the
/// last one; under dynamic-arrival interference (fig3, the fault
/// waveforms) that is exactly one window too late — the balancer always
/// chases the spike instead of anticipating it. These estimators follow
/// the trend of the series instead ("On the Benefits of Anticipating
/// Load Imbalance", Boulmier et al.; RUPER-LB's velocity correction).
///
/// Contract: deterministic, state only from the observations fed in, and
/// a PE-count change resets all per-PE state (topology changed; stale
/// levels/velocities must not survive it).
class ForecastingEstimator {
 public:
  virtual ~ForecastingEstimator() = default;
  virtual std::string name() const = 0;

  /// Ingests the newest per-PE observation and returns the forecast
  /// `horizon` windows ahead (same shape as `observed`).
  virtual Forecast step(const std::vector<double>& observed,
                        double horizon) = 0;
};

/// Factory for the mode picked in LbRobustnessOptions. kPersist returns
/// nullptr — persistence is the *absence* of a forecasting layer, so the
/// default path stays byte-identical to the paper's scheme.
std::unique_ptr<ForecastingEstimator> make_forecasting_estimator(
    const LbRobustnessOptions& options);

/// CLI-name round trip for EstimatorMode ("persist", "ewma", "trend",
/// "regress"). from_name throws CheckFailure listing the valid names.
EstimatorMode estimator_mode_from_name(const std::string& name);
std::string estimator_mode_name(EstimatorMode mode);

}  // namespace cloudlb
