#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "machine/core.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace cloudlb {

/// Shape of the simulated cluster. Defaults model the paper's testbed:
/// single-socket quad-core (Xeon X3430) nodes.
struct MachineConfig {
  int nodes = 8;
  int cores_per_node = 4;
  double core_speed = 1.0;  ///< CPU-seconds consumed per wall-second when alone

  /// Optional per-core speed overrides (global core id -> speed), for
  /// heterogeneous clouds mixing fast and slow instances. Cores not
  /// listed run at `core_speed`.
  std::vector<std::pair<int, double>> core_speed_overrides;
};

/// A cluster of nodes × cores with globally indexed cores.
///
/// Core `c` lives on node `c / cores_per_node`, mirroring how the paper's
/// 8-node / 32-core testbed is addressed.
class Machine {
 public:
  Machine(Simulator& sim, MachineConfig config);

  /// Sharded-runtime construction: every node's cores bind to the engine
  /// the resolver names for that node, so each shard's `EngineCore` owns
  /// the cores of exactly its own nodes (docs/sharded-engine.md). The
  /// resolver is only consulted during construction.
  Machine(MachineConfig config,
          const std::function<EngineCore&(int node)>& engine_of_node);

  int num_nodes() const { return config_.nodes; }
  int cores_per_node() const { return config_.cores_per_node; }
  int num_cores() const { return config_.nodes * config_.cores_per_node; }
  const MachineConfig& config() const { return config_; }

  Core& core(CoreId id) {
    CLB_CHECK(id >= 0 && static_cast<std::size_t>(id) < cores_.size());
    return *cores_[static_cast<std::size_t>(id)];
  }
  const Core& core(CoreId id) const {
    CLB_CHECK(id >= 0 && static_cast<std::size_t>(id) < cores_.size());
    return *cores_[static_cast<std::size_t>(id)];
  }

  /// Node hosting a global core id.
  int node_of(CoreId id) const {
    CLB_CHECK(id >= 0 && static_cast<std::size_t>(id) < cores_.size());
    return id / config_.cores_per_node;
  }

  /// True when both cores sit on the same node (intra-node communication).
  bool same_node(CoreId a, CoreId b) const {
    return node_of(a) == node_of(b);
  }

 private:
  MachineConfig config_;
  std::vector<std::unique_ptr<Core>> cores_;
};

}  // namespace cloudlb
