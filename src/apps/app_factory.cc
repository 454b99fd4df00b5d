#include "apps/app_factory.h"

#include "apps/jacobi2d.h"
#include "apps/mol3d.h"
#include "apps/wave2d.h"
#include "util/check.h"

namespace cloudlb {

std::vector<std::string> app_names() {
  return {"jacobi2d", "wave2d", "mol3d"};
}

namespace {
void apply_block_override(const AppSpec& spec, StencilLayout& layout) {
  if (spec.blocks_x > 0) layout.blocks_x = spec.blocks_x;
  if (spec.blocks_y > 0) layout.blocks_y = spec.blocks_y;
}

Jacobi2dConfig jacobi2d_config(const AppSpec& spec) {
  Jacobi2dConfig config;
  if (spec.iterations > 0) config.layout.iterations = spec.iterations;
  config.layout.sec_per_point *= spec.work_scale;
  apply_block_override(spec, config.layout);
  return config;
}

Wave2dConfig wave2d_config(const AppSpec& spec) {
  Wave2dConfig config;
  // Wave2D's leapfrog update touches two time levels — a heavier
  // per-point cost and a non-square default domain distinguish it from
  // Jacobi2D in the evaluation sweeps.
  config.layout.grid_x = 320;
  config.layout.grid_y = 160;
  config.layout.sec_per_point = 7e-6;
  if (spec.iterations > 0) config.layout.iterations = spec.iterations;
  config.layout.sec_per_point *= spec.work_scale;
  apply_block_override(spec, config.layout);
  return config;
}

Mol3dConfig mol3d_config(const AppSpec& spec) {
  Mol3dConfig config;
  if (spec.iterations > 0) config.iterations = spec.iterations;
  config.sec_per_pair *= spec.work_scale;
  config.seed = spec.seed;
  return config;
}
}  // namespace

void populate_app(RuntimeJob& job, const AppSpec& spec) {
  CLB_CHECK(spec.work_scale > 0.0);
  if (spec.name == "jacobi2d") {
    populate_jacobi2d(job, jacobi2d_config(spec));
    return;
  }
  if (spec.name == "wave2d") {
    populate_wave2d(job, wave2d_config(spec));
    return;
  }
  if (spec.name == "mol3d") {
    populate_mol3d(job, mol3d_config(spec));
    return;
  }
  CLB_CHECK_MSG(false, "unknown application: " << spec.name);
}

int app_chare_count(const AppSpec& spec) {
  if (spec.name == "jacobi2d")
    return jacobi2d_config(spec).layout.num_blocks();
  if (spec.name == "wave2d") return wave2d_config(spec).layout.num_blocks();
  if (spec.name == "mol3d") return mol3d_config(spec).num_cells();
  CLB_CHECK_MSG(false, "unknown application: " << spec.name);
  return 0;
}

}  // namespace cloudlb
