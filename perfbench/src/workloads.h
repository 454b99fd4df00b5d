#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"

namespace perfbench {

/// One penalty experiment of a workload. `weight` is the cell's share in
/// the workload's mean penalties (weights of a workload sum to 1).
struct Cell {
  std::string label;
  cloudlb::ScenarioConfig config;
  double weight = 1.0;
};

/// A fixed set of penalty experiments, built from a seed. See README.md
/// for why each workload exists and what it exercises.
struct Workload {
  std::string name;
  std::vector<Cell> cells;
};

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Scenario runs one penalty experiment of `config` performs: the solo
/// base run, the combined run, and the BG solo run when a BG job exists.
int runs_per_experiment(const cloudlb::ScenarioConfig& config);

/// Whether the workload runs on the partitioned runtime (shards > 1). Its
/// runs are then checked against the legacy engine, and its worker
/// threads rule out pinning the benchmark to one CPU.
bool partitioned(const Workload& w);

/// The interference-free normalization config run_penalty_experiment
/// derives from `config`.
cloudlb::ScenarioConfig base_config(const cloudlb::ScenarioConfig& config);

}  // namespace perfbench
