#include "core/gain_gated_lb.h"

#include <algorithm>

#include "lb/refinement.h"

namespace cloudlb {

namespace {

/// Maximum per-PE load (application + background) under `assignment`.
double max_pe_load(const LbStats& stats, const std::vector<double>& background,
                   const std::vector<PeId>& assignment) {
  std::vector<double> load(background);
  for (std::size_t c = 0; c < stats.chares.size(); ++c)
    load[static_cast<std::size_t>(assignment[c])] += stats.chares[c].cpu_sec;
  return *std::max_element(load.begin(), load.end());
}

}  // namespace

std::vector<PeId> MigrationGainGatedLb::assign(const LbStats& stats) {
  if (estimator_.rejects(stats)) return stats.current_assignment();
  const std::vector<double> background = estimator_.estimate(stats);
  RefinementResult refined =
      refine_assignment(stats, background, make_refinement_options(options_.base));

  const std::vector<PeId> current = stats.current_assignment();
  if (refined.migrations == 0) return current;

  // The engine reports the refined max load directly; only the pre-move
  // makespan still needs recomputing.
  const double gain =
      (max_pe_load(stats, background, current) - refined.max_load) *
      options_.horizon_windows;

  double cost = 0.0;
  for (std::size_t c = 0; c < current.size(); ++c)
    if (refined.assignment[c] != current[c])
      cost += options_.migration_sec_per_byte *
              static_cast<double>(stats.chares[c].bytes);

  if (gain < cost * options_.gain_threshold) {
    ++gated_steps_;
    return current;
  }
  ++migrating_steps_;
  return std::move(refined.assignment);
}

}  // namespace cloudlb
