#include "core/interference_aware_lb.h"

#include "lb/refinement.h"

namespace cloudlb {

InterferenceAwareRefineLb::InterferenceAwareRefineLb(LbOptions options,
                                                     bool smooth)
    : options_{options}, estimator_{options.robustness, smooth} {}

std::vector<PeId> InterferenceAwareRefineLb::assign(const LbStats& stats) {
  if (estimator_.rejects(stats)) return stats.current_assignment();
  const std::vector<double> background = estimator_.estimate(stats);
  RefinementResult result =
      refine_assignment(stats, background, make_refinement_options(options_));
  total_migrations_ += result.migrations;
  // Whatever this window migrated, it migrated off the back of the
  // previous window's forecast; bill it to the forecaster when that
  // forecast turned out wrong.
  if (estimator_.last_window_mispredicted())
    mispredict_churn_ += result.migrations;
  return std::move(result.assignment);
}

}  // namespace cloudlb
