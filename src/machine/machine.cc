#include "machine/machine.h"

#include "util/check.h"

namespace cloudlb {

Machine::Machine(Simulator& sim, MachineConfig config)
    : Machine{config, [&sim](int) -> EngineCore& { return sim; }} {}

Machine::Machine(MachineConfig config,
                 const std::function<EngineCore&(int node)>& engine_of_node)
    : config_{config} {
  CLB_CHECK(config.nodes > 0);
  CLB_CHECK(config.cores_per_node > 0);
  CLB_CHECK(engine_of_node != nullptr);
  const int total = config.nodes * config.cores_per_node;
  cores_.reserve(static_cast<std::size_t>(total));
  for (int c = 0; c < total; ++c) {
    double speed = config.core_speed;
    for (const auto& [core, override_speed] : config.core_speed_overrides) {
      if (core == c) speed = override_speed;
    }
    CLB_CHECK_MSG(speed > 0.0, "core " << c << " has non-positive speed");
    cores_.push_back(std::make_unique<Core>(
        engine_of_node(c / config.cores_per_node), static_cast<CoreId>(c),
        speed));
  }
}

}  // namespace cloudlb
