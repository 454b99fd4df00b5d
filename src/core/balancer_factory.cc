#include "core/balancer_factory.h"

#include "core/gain_gated_lb.h"
#include "core/interference_aware_lb.h"
#include "lb/registry.h"
#include "util/check.h"

namespace cloudlb {

std::unique_ptr<LoadBalancer> make_balancer(const std::string& name,
                                            LbOptions options) {
  if (name == "ia-refine" || name == "ia-refine-ewma")
    return std::make_unique<InterferenceAwareRefineLb>(
        options, /*smooth=*/name == "ia-refine-ewma");
  if (name == "gain-gated") {
    GainGateOptions gg;
    gg.base = options;
    gg.migration_sec_per_byte = options.migration_sec_per_byte_hint;
    return std::make_unique<MigrationGainGatedLb>(gg);
  }
  auto baseline = make_baseline_balancer(name, options);
  CLB_CHECK_MSG(baseline != nullptr, "unknown balancer: " << name);
  return baseline;
}

std::vector<std::string> balancer_names() {
  auto names = baseline_balancer_names();
  names.push_back("ia-refine");
  names.push_back("ia-refine-ewma");
  names.push_back("gain-gated");
  return names;
}

}  // namespace cloudlb
