// The forecasting-estimator tier (`ctest -L forecast`): the EWMA /
// trend / windowed-regression forecasters of forecasting_estimator.h,
// their composition with the windowed outlier clamp (clamp first,
// forecast on the clamped series), the proactive wiring inside
// InterferenceAwareRefineLb, and the estimator-layer regressions of this
// PR (median parity, clamp-counter semantics across topology resets).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/background_estimator.h"
#include "core/forecasting_estimator.h"
#include "core/interference_aware_lb.h"
#include "util/check.h"

namespace cloudlb {
namespace {

// ------------------------------------------------------------ helpers

/// One-PE snapshot with the given background load folded into idle
/// (wall = task + idle + bg, the estimator reads bg back out via Eq. 2).
LbStats one_pe_stats(double bg, double wall = 10.0, double task = 2.0) {
  LbStats stats;
  stats.pes.resize(1);
  stats.pes[0].pe = 0;
  stats.pes[0].wall_sec = wall;
  stats.pes[0].task_cpu_sec = task;
  stats.pes[0].core_idle_sec = std::max(0.0, wall - task - bg);
  return stats;
}

/// N-PE snapshot, every PE with the same background load.
LbStats n_pe_stats(std::size_t n, double bg) {
  LbStats stats;
  stats.pes.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    stats.pes[p].pe = static_cast<PeId>(p);
    stats.pes[p].wall_sec = 10.0;
    stats.pes[p].task_cpu_sec = 2.0;
    stats.pes[p].core_idle_sec = std::max(0.0, 10.0 - 2.0 - bg);
  }
  return stats;
}

LbRobustnessOptions mode_options(EstimatorMode mode) {
  LbRobustnessOptions options;
  options.estimator_mode = mode;
  return options;
}

std::unique_ptr<ForecastingEstimator> make_mode(EstimatorMode mode) {
  return make_forecasting_estimator(mode_options(mode));
}

/// The background-load pipeline with only its outlier-clamp stage on.
BackgroundLoadEstimator clamp_pipeline(int window, double clamp_factor) {
  LbRobustnessOptions options;
  options.estimator_window = window;
  options.estimator_clamp_factor = clamp_factor;
  return BackgroundLoadEstimator{options};
}

// ----------------------------------------------- median_of (bug pin)

TEST(MedianTest, OddSampleReturnsMiddleElement) {
  EXPECT_DOUBLE_EQ(median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({5.0}), 5.0);
}

TEST(MedianTest, EvenSampleAveragesTheTwoMiddles) {
  // The regression this pins: nth_element alone returns the *upper*
  // middle (1.0 here), biasing every even-window clamp ceiling upward.
  EXPECT_DOUBLE_EQ(median_of({0.0, 0.0, 1.0, 1.0}), 0.5);
  EXPECT_DOUBLE_EQ(median_of({10.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0}), 2.5);
}

TEST(MedianTest, EvenWindowClampCeilingIsUnbiased) {
  // Window of 4 at {0.2, 0.4, 0.6, 0.8}: the unbiased median is 0.5, so
  // a 2x clamp must cap at 1.0 + slack — not the 1.2 + slack the
  // upper-middle bias produced.
  BackgroundLoadEstimator est = clamp_pipeline(4, 2.0);
  for (double bg : {0.2, 0.4, 0.6, 0.8}) est.estimate(one_pe_stats(bg));
  const double clamped = est.estimate(one_pe_stats(8.0))[0];
  EXPECT_EQ(est.clamped_count(), 1);
  EXPECT_NEAR(clamped, 2.0 * 0.5 + wall_slack(10.0), 1e-12);
}

// ------------------------------------- windowed clamp across a reset

TEST(WindowedEstimatorTest, ClampedCounterSurvivesTopologyReset) {
  BackgroundLoadEstimator est = clamp_pipeline(3, 2.0);
  for (int i = 0; i < 3; ++i) est.estimate(one_pe_stats(0.5));
  est.estimate(one_pe_stats(7.0));
  ASSERT_EQ(est.clamped_count(), 1);

  // PE count changes: the history rings reset, the lifetime counter
  // does not.
  est.estimate(n_pe_stats(2, 0.5));
  EXPECT_EQ(est.clamped_count(), 1);

  // Fresh history means nothing to clamp against until the new topology
  // has a full-enough window again...
  EXPECT_NEAR(est.estimate(n_pe_stats(2, 7.0))[1], 7.0, 1e-12);
  EXPECT_EQ(est.clamped_count(), 1);
}

TEST(WindowedEstimatorTest, StaleMediansDoNotSurviveShrinkingTopology) {
  BackgroundLoadEstimator est = clamp_pipeline(3, 2.0);
  // Build a low median on two PEs, then shrink to one PE running hot:
  // the old PE-0 median (0.5) must not clamp the new level.
  for (int i = 0; i < 3; ++i) est.estimate(n_pe_stats(2, 0.5));
  const double after = est.estimate(one_pe_stats(6.0))[0];
  EXPECT_NEAR(after, 6.0, 1e-12);
  EXPECT_EQ(est.clamped_count(), 0);
}

// --------------------------------------------------- mode round trip

TEST(EstimatorModeTest, NameRoundTrip) {
  for (EstimatorMode mode :
       {EstimatorMode::kPersist, EstimatorMode::kEwma, EstimatorMode::kTrend,
        EstimatorMode::kRegress})
    EXPECT_EQ(estimator_mode_from_name(estimator_mode_name(mode)), mode);
}

TEST(EstimatorModeTest, UnknownNameThrowsWithTheValidList) {
  try {
    estimator_mode_from_name("psychic");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& failure) {
    EXPECT_NE(std::string{failure.what()}.find("persist|ewma|trend|regress"),
              std::string::npos);
  }
}

TEST(EstimatorModeTest, PersistModeHasNoForecaster) {
  EXPECT_EQ(make_mode(EstimatorMode::kPersist), nullptr);
  EXPECT_NE(make_mode(EstimatorMode::kEwma), nullptr);
  EXPECT_NE(make_mode(EstimatorMode::kTrend), nullptr);
  EXPECT_NE(make_mode(EstimatorMode::kRegress), nullptr);
}

TEST(EstimatorModeTest, BadForecastKnobsAreRejected) {
  LbRobustnessOptions options = mode_options(EstimatorMode::kEwma);
  options.forecast_alpha = 0.0;
  EXPECT_THROW(make_forecasting_estimator(options), CheckFailure);
  options = mode_options(EstimatorMode::kTrend);
  options.forecast_horizon = -1.0;
  EXPECT_THROW(make_forecasting_estimator(options), CheckFailure);
  options = mode_options(EstimatorMode::kRegress);
  options.forecast_window = 1;
  EXPECT_THROW(make_forecasting_estimator(options), CheckFailure);
}

// ------------------------------------------------------- forecasters

TEST(ForecasterTest, ConstantSeriesForecastsItselfWithZeroBand) {
  for (EstimatorMode mode :
       {EstimatorMode::kEwma, EstimatorMode::kTrend, EstimatorMode::kRegress}) {
    auto forecaster = make_mode(mode);
    Forecast f;
    for (int i = 0; i < 6; ++i) f = forecaster->step({2.0, 0.0}, 1.0);
    ASSERT_EQ(f.predicted.size(), 2u) << forecaster->name();
    EXPECT_NEAR(f.predicted[0], 2.0, 1e-9) << forecaster->name();
    EXPECT_NEAR(f.predicted[1], 0.0, 1e-9) << forecaster->name();
    EXPECT_NEAR(f.band[0], 0.0, 1e-9) << forecaster->name();
  }
}

TEST(ForecasterTest, TrendAnticipatesALinearRampPersistenceCannot) {
  auto trend = make_mode(EstimatorMode::kTrend);
  Forecast f;
  double last = 0.0;
  for (int i = 0; i < 12; ++i) {
    last = 0.5 * i;
    f = trend->step({last}, 1.0);
  }
  const double next = last + 0.5;
  // The trend forecast must land closer to the next ramp value than the
  // principle of persistence (which predicts `last` and is always one
  // step short on a ramp).
  EXPECT_LT(std::abs(f.predicted[0] - next), std::abs(last - next));
  EXPECT_GT(f.predicted[0], last);  // extrapolates forward, not backward
}

TEST(ForecasterTest, RegressIsExactOnALine) {
  auto regress = make_mode(EstimatorMode::kRegress);
  Forecast f;
  for (int i = 0; i < 8; ++i)
    f = regress->step({1.0 + 0.25 * i}, 1.0);
  // Last observation was 1 + 0.25·7 = 2.75; the line predicts 3.0 next.
  EXPECT_NEAR(f.predicted[0], 3.0, 1e-9);
  // The band is an EWMA of past one-step errors: the short-history
  // misses at the start decay geometrically but never reach zero.
  EXPECT_LT(f.band[0], 0.01);
}

TEST(ForecasterTest, RegressForgetsASlopeChangeWithinItsWindow) {
  LbRobustnessOptions options = mode_options(EstimatorMode::kRegress);
  options.forecast_window = 4;
  auto regress = make_forecasting_estimator(options);
  for (int i = 0; i < 6; ++i) regress->step({static_cast<double>(i)}, 1.0);
  // Four flat windows push every ramp sample out of the fit: the
  // prediction must return to the flat level exactly.
  Forecast f;
  for (int i = 0; i < 4; ++i) f = regress->step({1.5}, 1.0);
  EXPECT_NEAR(f.predicted[0], 1.5, 1e-9);
}

TEST(ForecasterTest, HorizonScalesTheExtrapolation) {
  auto trend = make_mode(EstimatorMode::kTrend);
  Forecast one, three;
  for (int i = 0; i < 12; ++i) {
    one = trend->step({1.0 * i}, 1.0);
  }
  auto trend3 = make_mode(EstimatorMode::kTrend);
  for (int i = 0; i < 12; ++i) {
    three = trend3->step({1.0 * i}, 3.0);
  }
  EXPECT_GT(three.predicted[0], one.predicted[0]);
}

TEST(ForecasterTest, PeCountChangeResetsState) {
  for (EstimatorMode mode :
       {EstimatorMode::kEwma, EstimatorMode::kTrend, EstimatorMode::kRegress}) {
    auto forecaster = make_mode(mode);
    // Learn a steep upward ramp on 2 PEs...
    for (int i = 0; i < 8; ++i)
      forecaster->step({2.0 * i, 2.0 * i}, 1.0);
    // ...then the topology changes to 3 PEs sitting at a flat 1.0: the
    // forecast must reseed from the new observation, not extrapolate
    // the dead topology's velocity.
    const Forecast f = forecaster->step({1.0, 1.0, 1.0}, 1.0);
    ASSERT_EQ(f.predicted.size(), 3u) << forecaster->name();
    for (double p : f.predicted)
      EXPECT_NEAR(p, 1.0, 1e-9) << forecaster->name();
    for (double b : f.band) EXPECT_NEAR(b, 0.0, 1e-9) << forecaster->name();
  }
}

TEST(ForecasterTest, BandWidensOnANoisySeries) {
  auto ewma = make_mode(EstimatorMode::kEwma);
  Forecast f;
  for (int i = 0; i < 10; ++i)
    f = ewma->step({i % 2 == 0 ? 0.0 : 4.0}, 1.0);
  EXPECT_GT(f.band[0], 0.5);
}

// ------------------------------------------- the composed front-end

TEST(ProactiveEstimatorTest, PersistDefaultIsBitIdenticalToRawEq2) {
  BackgroundLoadEstimator estimator{LbRobustnessOptions{}};
  for (double bg : {0.5, 3.0, 7.5, 0.0}) {
    const LbStats stats = one_pe_stats(bg);
    // Bitwise equality, not NEAR: the default path must be the paper's
    // exact computation (the golden trace digest pins this end to end).
    EXPECT_EQ(estimator.estimate(stats), estimate_background_load(stats));
  }
  EXPECT_FALSE(estimator.forecasting());
  EXPECT_EQ(estimator.mispredicted_windows(), 0);
}

TEST(ProactiveEstimatorTest, ClampRunsBeforeTheForecast) {
  // Same trend forecaster, with and without the outlier clamp in front.
  LbRobustnessOptions clamped = mode_options(EstimatorMode::kTrend);
  clamped.estimator_window = 3;
  LbRobustnessOptions raw = mode_options(EstimatorMode::kTrend);
  BackgroundLoadEstimator with_clamp{clamped};
  BackgroundLoadEstimator without_clamp{raw};

  for (int i = 0; i < 4; ++i) {
    with_clamp.estimate(one_pe_stats(0.5));
    without_clamp.estimate(one_pe_stats(0.5));
  }
  // A one-window glitch spikes O_p 16x. Clamp-first means the forecaster
  // never sees the glitch, so the *next* window's plan stays near the
  // real level; forecast-on-raw chases it.
  with_clamp.estimate(one_pe_stats(8.0));
  without_clamp.estimate(one_pe_stats(8.0));
  const double planned_clamped = with_clamp.estimate(one_pe_stats(0.5))[0];
  const double planned_raw = without_clamp.estimate(one_pe_stats(0.5))[0];
  EXPECT_LT(planned_clamped, planned_raw);
  EXPECT_GT(with_clamp.clamped_count(), 0);
}

TEST(ProactiveEstimatorTest, PredictionsStayInsideTheWindow) {
  LbRobustnessOptions options = mode_options(EstimatorMode::kTrend);
  BackgroundLoadEstimator estimator{options};
  // A ramp steep enough that the linear extrapolation exceeds T_lb.
  std::vector<double> out;
  for (int i = 0; i < 12; ++i)
    out = estimator.estimate(one_pe_stats(0.9 * i, /*wall=*/10.0,
                                          /*task=*/0.5));
  EXPECT_LE(out[0], 10.0);
  EXPECT_GE(out[0], 0.0);
}

TEST(ProactiveEstimatorTest, MispredictsAreCountedAgainstTheBand) {
  LbRobustnessOptions options = mode_options(EstimatorMode::kEwma);
  BackgroundLoadEstimator estimator{options};
  for (int i = 0; i < 6; ++i) estimator.estimate(one_pe_stats(1.0));
  EXPECT_EQ(estimator.mispredicted_windows(), 0);
  EXPECT_FALSE(estimator.last_window_mispredicted());

  // A step the flat forecast cannot have seen coming.
  estimator.estimate(one_pe_stats(6.0));
  EXPECT_EQ(estimator.mispredicted_windows(), 1);
  EXPECT_TRUE(estimator.last_window_mispredicted());

  // Settling back onto the new level clears the flag (the EWMA catches
  // up and the band has widened).
  int settled_extra = 0;
  for (int i = 0; i < 8; ++i) {
    estimator.estimate(one_pe_stats(6.0));
    if (estimator.last_window_mispredicted()) ++settled_extra;
  }
  EXPECT_LT(settled_extra, 8);
  EXPECT_FALSE(estimator.last_window_mispredicted());
}

// ------------------------------------------- proactive ia-refine LB

/// Two PEs, eight equal chares (fine enough that a single move always
/// fits inside the ε-band), background folded into PE 0's idle.
LbStats two_pe_assignment_stats(double bg_on_pe0) {
  LbStats stats;
  stats.pes.resize(2);
  for (int p = 0; p < 2; ++p) {
    stats.pes[p].pe = p;
    stats.pes[p].core = p;
    stats.pes[p].wall_sec = 10.0;
    stats.pes[p].task_cpu_sec = 4.0;
    stats.pes[p].core_idle_sec =
        std::max(0.0, 10.0 - 4.0 - (p == 0 ? bg_on_pe0 : 0.0));
  }
  stats.chares.resize(8);
  for (int c = 0; c < 8; ++c) {
    stats.chares[c].chare = c;
    stats.chares[c].pe = c < 4 ? 0 : 1;
    stats.chares[c].cpu_sec = 1.0;
    stats.chares[c].bytes = 1000;
  }
  return stats;
}

TEST(ProactiveLbTest, PersistModeNeverReportsMispredicts) {
  InterferenceAwareRefineLb lb;  // default options: the paper's scheme
  for (double bg : {0.0, 5.0, 0.0, 5.0})
    lb.assign(two_pe_assignment_stats(bg));
  EXPECT_EQ(lb.mispredicted_windows(), 0);
  EXPECT_EQ(lb.mispredict_churn(), 0);
}

TEST(ProactiveLbTest, SurpriseSpikeChurnIsBilledToTheForecast) {
  LbOptions options;
  options.robustness.estimator_mode = EstimatorMode::kEwma;
  InterferenceAwareRefineLb lb{options};
  for (int i = 0; i < 4; ++i) lb.assign(two_pe_assignment_stats(0.0));
  ASSERT_EQ(lb.total_migrations(), 0);  // balanced, quiet machine

  // An unforecast 5 s background spike on PE 0: this window's migrations
  // happen off the back of a wrong forecast and are billed to it.
  lb.assign(two_pe_assignment_stats(5.0));
  EXPECT_GT(lb.total_migrations(), 0);
  EXPECT_GE(lb.mispredicted_windows(), 1);
  EXPECT_EQ(lb.mispredict_churn(), lb.total_migrations());
}

TEST(ProactiveLbTest, TrendModeMigratesAheadOfARamp) {
  // A background ramp on PE 0 rising half a second per window. The
  // reactive balancer only sees each step after paying for it; the trend
  // balancer plans against the extrapolated next step. Compare how much
  // load each schedule leaves on the interfered PE mid-ramp.
  LbOptions reactive_options;  // persist
  LbOptions trend_options;
  trend_options.robustness.estimator_mode = EstimatorMode::kTrend;
  InterferenceAwareRefineLb reactive{reactive_options};
  InterferenceAwareRefineLb trend{trend_options};

  int reactive_on_pe0 = 0;
  int trend_on_pe0 = 0;
  for (int i = 0; i < 6; ++i) {
    const LbStats stats = two_pe_assignment_stats(0.8 * i);
    for (PeId pe : reactive.assign(stats)) reactive_on_pe0 += pe == 0;
    for (PeId pe : trend.assign(stats)) trend_on_pe0 += pe == 0;
  }
  // The anticipating balancer keeps no more (and on the steep part of
  // the ramp, less) work on the interfered PE than the reactive one.
  EXPECT_LE(trend_on_pe0, reactive_on_pe0);
}

}  // namespace
}  // namespace cloudlb
