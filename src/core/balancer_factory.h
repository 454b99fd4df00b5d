#pragma once

#include <memory>
#include <string>
#include <vector>

#include "lb/framework.h"

namespace cloudlb {

/// Creates any strategy in the library by name: the baselines ("null",
/// "greedy", "refine", "random") plus the paper's strategies ("ia-refine",
/// its "ia-refine-ewma" smoothing preset, "gain-gated"). Throws
/// CheckFailure for unknown names.
std::unique_ptr<LoadBalancer> make_balancer(const std::string& name,
                                            LbOptions options = {});

/// Every name make_balancer accepts.
std::vector<std::string> balancer_names();

}  // namespace cloudlb
