#include "workloads.h"

#include <stdexcept>

#include "bench_common.h"

namespace perfbench {

using cloudlb::ScenarioConfig;

namespace {

/// Mol3D particle seeds per paper32 run. One Mol3D seed moves the Mol3D
/// cell's app penalty between 5% and 40%, so a run averages several
/// seeds derived from its own; the first is the run's seed itself.
constexpr int kMol3dSeeds = 8;

/// Tenant-field seeds per cloud128 run, for the same reason: one seed
/// moves the app penalty between 99% and 122% and the host time by 15%.
constexpr int kTenantSeeds = 4;

std::uint64_t derived_seed(std::uint64_t seed, std::uint64_t index) {
  if (index == 0) return seed;
  // splitmix64 finalizer: well-spread, deterministic.
  std::uint64_t z = seed + index * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Workload paper32(std::uint64_t seed) {
  Workload w{"paper32", {}};
  // Each application counts for a third of the mean, whatever the number
  // of Mol3D seeds.
  for (const char* app : {"jacobi2d", "wave2d"})
    w.cells.push_back(
        Cell{app, cloudlb::bench::grid_config(app, "ia-refine", 32), 1.0 / 3});
  for (int i = 0; i < kMol3dSeeds; ++i) {
    Cell cell{"mol3d", cloudlb::bench::grid_config("mol3d", "ia-refine", 32),
              1.0 / (3.0 * kMol3dSeeds)};
    cell.config.app.seed = derived_seed(seed, static_cast<std::uint64_t>(i));
    cell.label += "/seed=" + std::to_string(cell.config.app.seed);
    w.cells.push_back(std::move(cell));
  }
  return w;
}

Workload cloud128(std::uint64_t seed) {
  ScenarioConfig c;
  c.app.name = "jacobi2d";
  c.app.iterations = 240;
  c.app_cores = 128;
  c.balancer = "ia-refine";
  c.lb_options.robustness.estimator_window = 5;
  c.lb_options.robustness.estimator_mode = cloudlb::EstimatorMode::kRegress;
  c.with_background = false;
  c.tenants = 32;
  c.tenant_config.mean_on_seconds = 0.05;
  c.tenant_config.mean_off_seconds = 0.05;
  Workload w{"cloud128", {}};
  for (int i = 0; i < kTenantSeeds; ++i) {
    Cell cell{"jacobi2d", c, 1.0 / kTenantSeeds};
    cell.config.tenant_config.seed =
        derived_seed(seed, static_cast<std::uint64_t>(i));
    cell.label += "/tenant-seed=" + std::to_string(cell.config.tenant_config.seed);
    w.cells.push_back(std::move(cell));
  }
  return w;
}

Workload scale1k_sharded(std::uint64_t /*seed: the scenario has no RNG*/) {
  ScenarioConfig c;
  c.app.name = "jacobi2d";
  c.app.iterations = 20;
  c.app.blocks_x = 64;
  c.app.blocks_y = 64;
  c.app_cores = 1024;
  c.balancer = "ia-refine";
  c.bg_iterations = 150;
  c.shards = 4;
  // Two workers leave cores to the rest of a 4-core host: the workers wait
  // for each other at every window, so one preempted worker stalls all.
  c.shard_workers = 2;
  return Workload{"scale1k_sharded", {Cell{"jacobi2d/64x64", c, 1.0}}};
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper32") return paper32(seed);
  if (name == "cloud128") return cloud128(seed);
  if (name == "scale1k_sharded") return scale1k_sharded(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

bool partitioned(const Workload& w) {
  for (const Cell& cell : w.cells)
    if (cell.config.shards > 1) return true;
  return false;
}

int runs_per_experiment(const ScenarioConfig& config) {
  return config.with_background ? 3 : 2;
}

ScenarioConfig base_config(const ScenarioConfig& config) {
  ScenarioConfig solo = config;
  solo.with_background = false;
  solo.tenants = 0;
  solo.faults.clear();
  return solo;
}

}  // namespace perfbench
