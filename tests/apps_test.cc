#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <set>

#include "apps/app_factory.h"
#include "apps/jacobi2d.h"
#include "apps/mol3d.h"
#include "apps/stencil_base.h"
#include "apps/wave2d.h"
#include "lb/greedy_lb.h"
#include "lb/null_lb.h"
#include "machine/machine.h"
#include "runtime/job.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "vm/virtual_machine.h"

namespace cloudlb {
namespace {

/// Small layouts keep the host-side numerics cheap while still exercising
/// multi-block ghost exchange.
StencilLayout small_layout(int iterations = 12) {
  StencilLayout l;
  l.grid_x = 24;
  l.grid_y = 18;
  l.blocks_x = 4;
  l.blocks_y = 3;
  l.iterations = iterations;
  l.sec_per_point = 1e-6;
  return l;
}

struct AppRig {
  explicit AppRig(int cores, int lb_period = 0,
                  std::unique_ptr<LoadBalancer> lb = nullptr)
      : machine(sim, MachineConfig{.nodes = 2, .cores_per_node = 4, .core_speed_overrides = {}}) {
    std::vector<CoreId> ids(static_cast<std::size_t>(cores));
    std::iota(ids.begin(), ids.end(), 0);
    vm = std::make_unique<VirtualMachine>(machine, "app", ids);
    JobConfig config;
    config.lb_period = lb_period;
    if (lb == nullptr) lb = std::make_unique<NullLb>();
    job = std::make_unique<RuntimeJob>(sim, *vm, config, std::move(lb));
  }

  void run() {
    job->start();
    sim.run();
    ASSERT_TRUE(job->finished());
  }

  Simulator sim;
  Machine machine;
  std::unique_ptr<VirtualMachine> vm;
  std::unique_ptr<RuntimeJob> job;
};

/// Gathers the distributed stencil grid back into a row-major full grid.
template <typename ChareT>
std::vector<double> gather_grid(RuntimeJob& job, const StencilLayout& l) {
  std::vector<double> grid(static_cast<std::size_t>(l.grid_x) *
                           static_cast<std::size_t>(l.grid_y));
  for (std::size_t c = 0; c < job.num_chares(); ++c) {
    auto* chare = dynamic_cast<ChareT*>(&job.chare(static_cast<ChareId>(c)));
    CLB_CHECK(chare != nullptr);
    const std::vector<double> block = chare->block_values();
    for (int y = 0; y < chare->ny(); ++y)
      for (int x = 0; x < chare->nx(); ++x)
        grid[static_cast<std::size_t>(chare->y0() + y) *
                 static_cast<std::size_t>(l.grid_x) +
             static_cast<std::size_t>(chare->x0() + x)] =
            block[static_cast<std::size_t>(y) *
                      static_cast<std::size_t>(chare->nx()) +
                  static_cast<std::size_t>(x)];
  }
  return grid;
}

// ------------------------------------------------------------- StencilLayout

TEST(StencilLayoutTest, Validation) {
  StencilLayout l = small_layout();
  EXPECT_NO_THROW(l.validate());
  l.blocks_x = 0;
  EXPECT_THROW(l.validate(), CheckFailure);
  l = small_layout();
  l.grid_x = 2;
  EXPECT_THROW(l.validate(), CheckFailure);
  l = small_layout();
  l.iterations = 0;
  EXPECT_THROW(l.validate(), CheckFailure);
}

TEST(StencilLayoutTest, InitialValueDeterministic) {
  EXPECT_DOUBLE_EQ(stencil_initial_value(3, 4, 24, 18),
                   stencil_initial_value(3, 4, 24, 18));
  // Boundary of the sine mode is zero, bump is tiny far away.
  EXPECT_NEAR(stencil_initial_value(0, 0, 24, 18), 0.0, 0.05);
}

// ----------------------------------------------------------------- Jacobi2D

TEST(Jacobi2dTest, MatchesSerialReferenceBitwise) {
  // Synchronous Jacobi has order-independent arithmetic per point, so the
  // message-driven run must agree with the serial loop exactly — a strong
  // end-to-end check of ghost routing.
  Jacobi2dConfig config;
  config.layout = small_layout();
  AppRig rig{4};
  populate_jacobi2d(*rig.job, config);
  rig.run();
  const auto parallel = gather_grid<Jacobi2dChare>(*rig.job, config.layout);
  const auto serial = jacobi2d_reference(config);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(parallel[i], serial[i]) << "at index " << i;
}

TEST(Jacobi2dTest, MatchesReferenceOnUnevenBlocks) {
  // Grid not divisible by blocks: 25×19 over 4×3 blocks.
  Jacobi2dConfig config;
  config.layout = small_layout();
  config.layout.grid_x = 25;
  config.layout.grid_y = 19;
  AppRig rig{3};
  populate_jacobi2d(*rig.job, config);
  rig.run();
  const auto parallel = gather_grid<Jacobi2dChare>(*rig.job, config.layout);
  const auto serial = jacobi2d_reference(config);
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(parallel[i], serial[i]);
}

TEST(Jacobi2dTest, ResultUnchangedByMigration) {
  // Aggressive greedy balancing migrates blocks mid-run; the numerics must
  // not notice.
  Jacobi2dConfig config;
  config.layout = small_layout(16);
  AppRig rig{4, 4, std::make_unique<GreedyLb>()};
  populate_jacobi2d(*rig.job, config);
  rig.run();
  EXPECT_GT(rig.job->counters().lb_steps, 0);
  const auto parallel = gather_grid<Jacobi2dChare>(*rig.job, config.layout);
  const auto serial = jacobi2d_reference(config);
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(parallel[i], serial[i]);
}

TEST(Jacobi2dTest, BoundaryHeldFixed) {
  Jacobi2dConfig config;
  config.layout = small_layout();
  const auto result = jacobi2d_reference(config);
  const int gx = config.layout.grid_x;
  for (int x = 0; x < gx; ++x)
    EXPECT_DOUBLE_EQ(result[static_cast<std::size_t>(x)],
                     stencil_initial_value(x, 0, gx, config.layout.grid_y));
}

TEST(Jacobi2dTest, ConvergesTowardHarmonic) {
  // The max-norm of the interior decreases monotonically under averaging
  // with a fixed boundary... over a long horizon it must shrink noticeably.
  Jacobi2dConfig few, many;
  few.layout = small_layout(2);
  many.layout = small_layout(200);
  auto interior_max = [&](const std::vector<double>& g, const StencilLayout& l) {
    double mx = 0.0;
    for (int y = 1; y < l.grid_y - 1; ++y)
      for (int x = 1; x < l.grid_x - 1; ++x)
        mx = std::max(mx, std::abs(g[static_cast<std::size_t>(y) *
                                         static_cast<std::size_t>(l.grid_x) +
                                     static_cast<std::size_t>(x)]));
    return mx;
  };
  EXPECT_LT(interior_max(jacobi2d_reference(many), many.layout),
            0.8 * interior_max(jacobi2d_reference(few), few.layout));
}

TEST(Jacobi2dTest, TaskCostsScaleWithBlockArea) {
  Jacobi2dConfig config;
  config.layout = small_layout(4);
  AppRig rig{2};
  populate_jacobi2d(*rig.job, config);
  rig.job->start();
  rig.sim.run();
  // Total CPU ≈ grid points × iterations × sec_per_point (+ ghost costs).
  const double expected = 24.0 * 18.0 * 4 * 1e-6;
  EXPECT_NEAR(rig.job->cpu_consumed().to_seconds(), expected,
              0.2 * expected);
}

TEST(Jacobi2dTest, ResidualConvergenceStopsEarly) {
  Jacobi2dConfig config;
  config.layout = small_layout(500);
  config.layout.residual_period = 4;
  config.layout.residual_tolerance = 2.0;  // generous: converges quickly
  AppRig rig{4};
  populate_jacobi2d(*rig.job, config);
  rig.run();
  auto* probe = dynamic_cast<Jacobi2dChare*>(&rig.job->chare(0));
  ASSERT_NE(probe, nullptr);
  const int sweeps = probe->iteration();
  EXPECT_LT(sweeps, 500);
  EXPECT_GT(sweeps, 0);
  // Every chare agrees on the stopping iteration (the reduction is global).
  for (std::size_t c = 0; c < rig.job->num_chares(); ++c) {
    auto* chare = dynamic_cast<Jacobi2dChare*>(
        &rig.job->chare(static_cast<ChareId>(c)));
    EXPECT_EQ(chare->iteration(), sweeps);
  }
  // And the result equals the serial reference run for the same count.
  Jacobi2dConfig truncated = config;
  truncated.layout.iterations = sweeps;
  const auto serial = jacobi2d_reference(truncated);
  const auto parallel = gather_grid<Jacobi2dChare>(*rig.job, config.layout);
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(parallel[i], serial[i]);
}

TEST(Jacobi2dTest, ResidualCheckingDoesNotPerturbNumerics) {
  // With an unreachable tolerance the run goes the full distance and must
  // match the plain fixed-iteration result bitwise.
  Jacobi2dConfig checked;
  checked.layout = small_layout(12);
  checked.layout.residual_period = 3;
  checked.layout.residual_tolerance = 1e-300;
  AppRig rig{4};
  populate_jacobi2d(*rig.job, checked);
  rig.run();
  Jacobi2dConfig plain;
  plain.layout = small_layout(12);
  const auto serial = jacobi2d_reference(plain);
  const auto parallel = gather_grid<Jacobi2dChare>(*rig.job, checked.layout);
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(parallel[i], serial[i]);
}

TEST(Jacobi2dTest, ResidualConvergenceSurvivesMigrations) {
  Jacobi2dConfig config;
  config.layout = small_layout(500);
  config.layout.residual_period = 5;
  config.layout.residual_tolerance = 2.0;
  AppRig rig{4, 4, std::make_unique<GreedyLb>()};
  populate_jacobi2d(*rig.job, config);
  rig.run();
  EXPECT_GT(rig.job->counters().migrations, 0);
  auto* probe = dynamic_cast<Jacobi2dChare*>(&rig.job->chare(0));
  EXPECT_LT(probe->iteration(), 500);
}

// ------------------------------------------------------------------- Wave2D

TEST(Wave2dTest, MatchesSerialReferenceBitwise) {
  Wave2dConfig config;
  config.layout = small_layout();
  AppRig rig{4};
  populate_wave2d(*rig.job, config);
  rig.run();
  const auto parallel = gather_grid<Wave2dChare>(*rig.job, config.layout);
  const auto serial = wave2d_reference(config);
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(parallel[i], serial[i]) << "at index " << i;
}

TEST(Wave2dTest, MigrationPreservesBothTimeLevels) {
  Wave2dConfig config;
  config.layout = small_layout(16);
  AppRig rig{4, 4, std::make_unique<GreedyLb>()};
  populate_wave2d(*rig.job, config);
  rig.run();
  EXPECT_GT(rig.job->counters().migrations, 0);
  const auto parallel = gather_grid<Wave2dChare>(*rig.job, config.layout);
  const auto serial = wave2d_reference(config);
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(parallel[i], serial[i]);
}

TEST(Wave2dTest, EnergyStaysBounded) {
  // CFL-stable scheme: amplitudes must not blow up.
  Wave2dConfig config;
  config.layout = small_layout(300);
  const auto grid = wave2d_reference(config);
  double mx = 0.0;
  for (const double v : grid) mx = std::max(mx, std::abs(v));
  EXPECT_LT(mx, 10.0);
  EXPECT_GT(mx, 1e-6);  // and the membrane is still moving
}

TEST(Wave2dTest, CourantValidation) {
  Wave2dConfig config;
  config.layout = small_layout();
  config.courant = 0.9;  // unstable for 2D
  AppRig rig{2};
  EXPECT_THROW(populate_wave2d(*rig.job, config), CheckFailure);
}

TEST(Wave2dTest, StateBytesCoverTwoTimeLevels) {
  Wave2dConfig wconfig;
  wconfig.layout = small_layout();
  Jacobi2dConfig jconfig;
  jconfig.layout = small_layout();
  AppRig rig{2};
  populate_wave2d(*rig.job, wconfig);
  AppRig rig2{2};
  populate_jacobi2d(*rig2.job, jconfig);
  EXPECT_GT(rig.job->chare(0).footprint_bytes(),
            rig2.job->chare(0).footprint_bytes());
}

// ------------------------------------------------------------------- Mol3D

Mol3dConfig small_mol(int iterations = 8) {
  Mol3dConfig config;
  config.cells_x = 4;
  config.cells_y = 3;
  config.cells_z = 3;
  config.num_particles = 400;
  config.iterations = iterations;
  config.sec_per_pair = 1e-7;
  return config;
}

TEST(Mol3dTest, ConfigValidation) {
  Mol3dConfig config = small_mol();
  EXPECT_NO_THROW(config.validate());
  config.cells_x = 2;
  EXPECT_THROW(config.validate(), CheckFailure);
  config = small_mol();
  config.cutoff = 1.5;
  EXPECT_THROW(config.validate(), CheckFailure);
}

TEST(Mol3dTest, InitialParticlesDeterministicAndInBox) {
  const Mol3dConfig config = small_mol();
  const auto a = mol3d_initial_particles(config);
  const auto b = mol3d_initial_particles(config);
  ASSERT_EQ(a.size(), 400u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_GE(a[i].x, 0.0);
    EXPECT_LT(a[i].x, config.cells_x);
    EXPECT_GE(a[i].y, 0.0);
    EXPECT_LT(a[i].y, config.cells_y);
    EXPECT_GE(a[i].z, 0.0);
    EXPECT_LT(a[i].z, config.cells_z);
  }
}

TEST(Mol3dTest, ClusteringCreatesImbalance) {
  Mol3dConfig config = small_mol();
  config.cluster_fraction = 0.8;
  config.num_particles = 2000;
  const auto particles = mol3d_initial_particles(config);
  std::vector<int> counts(static_cast<std::size_t>(config.num_cells()), 0);
  for (const auto& p : particles) {
    const int cx = std::min(static_cast<int>(p.x), config.cells_x - 1);
    const int cy = std::min(static_cast<int>(p.y), config.cells_y - 1);
    const int cz = std::min(static_cast<int>(p.z), config.cells_z - 1);
    ++counts[static_cast<std::size_t>(
        (cz * config.cells_y + cy) * config.cells_x + cx)];
  }
  const int mx = *std::max_element(counts.begin(), counts.end());
  const double mean =
      static_cast<double>(config.num_particles) / config.num_cells();
  EXPECT_GT(mx, 1.5 * mean);  // clusters concentrate load
}

TEST(Mol3dTest, ParticleCountConservedThroughRun) {
  const Mol3dConfig config = small_mol(10);
  AppRig rig{4};
  populate_mol3d(*rig.job, config);
  rig.run();
  std::size_t total = 0;
  for (std::size_t c = 0; c < rig.job->num_chares(); ++c) {
    auto* cell =
        dynamic_cast<Mol3dChare*>(&rig.job->chare(static_cast<ChareId>(c)));
    ASSERT_NE(cell, nullptr);
    total += cell->particles().size();
    EXPECT_EQ(cell->iteration(), 10);
  }
  EXPECT_EQ(total, 400u);
}

TEST(Mol3dTest, ParticlesStayInPeriodicBox) {
  const Mol3dConfig config = small_mol(10);
  AppRig rig{4};
  populate_mol3d(*rig.job, config);
  rig.run();
  for (std::size_t c = 0; c < rig.job->num_chares(); ++c) {
    auto* cell =
        dynamic_cast<Mol3dChare*>(&rig.job->chare(static_cast<ChareId>(c)));
    for (const Particle& p : cell->particles()) {
      EXPECT_GE(p.x, 0.0);
      EXPECT_LT(p.x, config.cells_x);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LT(p.y, config.cells_y);
      EXPECT_GE(p.z, 0.0);
      EXPECT_LT(p.z, config.cells_z);
    }
  }
}

TEST(Mol3dTest, DeterministicAcrossRuns) {
  auto fingerprint = [] {
    const Mol3dConfig config = small_mol(6);
    AppRig rig{3};
    populate_mol3d(*rig.job, config);
    rig.job->start();
    rig.sim.run();
    double sum = 0.0;
    for (std::size_t c = 0; c < rig.job->num_chares(); ++c) {
      auto* cell =
          dynamic_cast<Mol3dChare*>(&rig.job->chare(static_cast<ChareId>(c)));
      for (const Particle& p : cell->particles())
        sum += p.x + 2 * p.y + 3 * p.z + p.vx;
    }
    return sum;
  };
  EXPECT_DOUBLE_EQ(fingerprint(), fingerprint());
}

TEST(Mol3dTest, FinalStateMatchesPinnedDigest) {
  // DeterministicAcrossRuns only compares a run with itself; this pins
  // the numerics against a recorded value, so a change to the force loop,
  // the integrator or the particle hand-off that moves a single bit fails
  // here. Hashes every particle's position and velocity bit patterns in
  // chare order, then the elapsed time, after a run with migrations.
  const Mol3dConfig config = small_mol(12);
  AppRig rig{4, 4, std::make_unique<GreedyLb>()};
  populate_mol3d(*rig.job, config);
  rig.run();
  ASSERT_GT(rig.job->counters().migrations, 0);

  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a 64
  const auto mix = [&digest](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (word >> (8 * b)) & 0xffU;
      digest *= 0x100000001b3ULL;
    }
  };
  const auto mix_double = [&mix](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  };
  for (std::size_t c = 0; c < rig.job->num_chares(); ++c) {
    auto* cell =
        dynamic_cast<Mol3dChare*>(&rig.job->chare(static_cast<ChareId>(c)));
    ASSERT_NE(cell, nullptr);
    for (const Particle& p : cell->particles()) {
      mix_double(p.x);
      mix_double(p.y);
      mix_double(p.z);
      mix_double(p.vx);
      mix_double(p.vy);
      mix_double(p.vz);
    }
  }
  mix(static_cast<std::uint64_t>(rig.job->elapsed().ns()));
  EXPECT_EQ(digest, 0x1012e70e612efa3cULL)
      << std::hex << "digest 0x" << digest;
}

TEST(Mol3dTest, SurvivesMigrations) {
  const Mol3dConfig config = small_mol(12);
  AppRig rig{4, 4, std::make_unique<GreedyLb>()};
  populate_mol3d(*rig.job, config);
  rig.run();
  EXPECT_GT(rig.job->counters().migrations, 0);
  std::size_t total = 0;
  for (std::size_t c = 0; c < rig.job->num_chares(); ++c) {
    auto* cell =
        dynamic_cast<Mol3dChare*>(&rig.job->chare(static_cast<ChareId>(c)));
    total += cell->particles().size();
  }
  EXPECT_EQ(total, 400u);
}

TEST(Mol3dTest, CostScalesWithParticleCount) {
  Mol3dConfig small = small_mol(4);
  Mol3dConfig big = small_mol(4);
  big.num_particles = 800;
  auto cpu = [](const Mol3dConfig& config) {
    AppRig rig{4};
    populate_mol3d(*rig.job, config);
    rig.job->start();
    rig.sim.run();
    return rig.job->cpu_consumed().to_seconds();
  };
  // Pairwise work grows superlinearly in density.
  EXPECT_GT(cpu(big), 2.5 * cpu(small));
}

// ------------------------------------------------------------- app factory

TEST(AppFactoryTest, PopulatesEachApp) {
  for (const auto& name : app_names()) {
    AppRig rig{4};
    AppSpec spec;
    spec.name = name;
    spec.iterations = 2;
    populate_app(*rig.job, spec);
    EXPECT_GE(rig.job->num_chares(), 4u) << name;
  }
}

TEST(AppFactoryTest, UnknownAppThrows) {
  AppRig rig{1};
  AppSpec spec;
  spec.name = "nbody-gpu";
  EXPECT_THROW(populate_app(*rig.job, spec), CheckFailure);
}

TEST(AppFactoryTest, WorkScaleMultipliesCost) {
  auto cpu = [](double scale) {
    AppRig rig{4};
    AppSpec spec;
    spec.name = "jacobi2d";
    spec.iterations = 2;
    spec.work_scale = scale;
    populate_app(*rig.job, spec);
    rig.job->start();
    rig.sim.run();
    return rig.job->cpu_consumed().to_seconds();
  };
  EXPECT_NEAR(cpu(2.0) / cpu(1.0), 2.0, 0.1);
}

}  // namespace
}  // namespace cloudlb
