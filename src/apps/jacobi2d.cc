#include "apps/jacobi2d.h"

#include <cmath>

#include "util/check.h"

namespace cloudlb {

Jacobi2dChare::Jacobi2dChare(const Jacobi2dConfig& config, int bx, int by)
    : StencilBlockChare(config.layout, bx, by) {
  u_.reserve(static_cast<std::size_t>(nx()) * static_cast<std::size_t>(ny()));
  for (int gy = y0(); gy < y0() + ny(); ++gy)
    for (int gx = x0(); gx < x0() + nx(); ++gx)
      u_.push_back(stencil_initial_value(gx, gy, layout().grid_x,
                                         layout().grid_y));
  scratch_ = u_;
}

std::vector<double> Jacobi2dChare::block_values() const { return u_; }

void Jacobi2dChare::append_edge(Side side,
                                std::vector<double>& payload) const {
  append_grid_edge(u_, side, payload);
}

void Jacobi2dChare::apply_update(
    const std::array<std::vector<double>, 4>& ghosts) {
  // W + E + N + S in this order, and the residual summed in row-major
  // order (sweep_rows' visiting order): bitwise equal to
  // jacobi2d_reference.
  const double* u = u_.data();
  double* next = scratch_.data();
  double residual = 0.0;
  sweep_rows(
      u_, ghosts,
      [u, next](std::size_t i) { next[i] = u[i]; },  // Dirichlet: held fixed
      [u, next, &residual](std::size_t i, double west, double east,
                           double north, double south) {
        next[i] = 0.25 * (west + east + north + south);
        residual += std::abs(next[i] - u[i]);
      });
  residual_ = residual;
  u_.swap(scratch_);
}

void populate_jacobi2d(RuntimeJob& job, const Jacobi2dConfig& config) {
  config.layout.validate();
  for (int by = 0; by < config.layout.blocks_y; ++by)
    for (int bx = 0; bx < config.layout.blocks_x; ++bx) {
      // Ghost exchange routes by the computed block id `by*blocks_x + bx`
      // (stencil_base.cc), which only matches what add_chare hands back
      // when the job starts empty; a pre-seeded job would cross-deliver
      // every ghost message, so fail loudly instead.
      const ChareId id =
          job.add_chare(std::make_unique<Jacobi2dChare>(config, bx, by));
      CLB_CHECK_MSG(
          id == static_cast<ChareId>(by * config.layout.blocks_x + bx),
          "populate_jacobi2d requires an empty job: block (" << bx << ','
              << by << ") was assigned chare id " << id);
    }
}

std::vector<double> jacobi2d_reference(const Jacobi2dConfig& config) {
  const StencilLayout& l = config.layout;
  l.validate();
  const auto w = static_cast<std::size_t>(l.grid_x);
  std::vector<double> u(w * static_cast<std::size_t>(l.grid_y));
  for (int gy = 0; gy < l.grid_y; ++gy)
    for (int gx = 0; gx < l.grid_x; ++gx)
      u[static_cast<std::size_t>(gy) * w + static_cast<std::size_t>(gx)] =
          stencil_initial_value(gx, gy, l.grid_x, l.grid_y);

  std::vector<double> next = u;
  for (int it = 0; it < l.iterations; ++it) {
    for (int gy = 1; gy < l.grid_y - 1; ++gy) {
      for (int gx = 1; gx < l.grid_x - 1; ++gx) {
        const std::size_t i =
            static_cast<std::size_t>(gy) * w + static_cast<std::size_t>(gx);
        next[i] = 0.25 * (u[i - 1] + u[i + 1] + u[i - w] + u[i + w]);
      }
    }
    u.swap(next);
  }
  return u;
}

}  // namespace cloudlb
