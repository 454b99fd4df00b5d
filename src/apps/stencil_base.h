#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "runtime/chare.h"

namespace cloudlb {

/// Message tags used by the bundled applications.
enum StencilTag : int {
  kTagGhost = 1,    ///< boundary values from a neighbour
  kTagCompute = 2,  ///< self-message triggering the iteration's update
};

/// Geometry and cost model shared by the 2D stencil applications.
///
/// The global grid_x × grid_y grid is split into blocks_x × blocks_y
/// blocks, one chare each (chare id = by·blocks_x + bx, row-major). The
/// simulated CPU cost of an iteration's update is `sec_per_point` per
/// owned point — uniform blocks make the application internally balanced,
/// so (as in the paper's Wave2D/Jacobi2D) any imbalance comes from outside.
struct StencilLayout {
  int grid_x = 256;
  int grid_y = 256;
  int blocks_x = 32;
  int blocks_y = 16;
  int iterations = 120;
  double sec_per_point = 5e-6;        ///< virtual CPU per point per update
  double ghost_sec_per_value = 2e-8;  ///< virtual CPU to absorb one ghost value

  /// Convergence checking: every `residual_period` iterations the chares
  /// contribute their local residual to a global sum reduction and stop
  /// early once it drops below `residual_tolerance`. 0 disables the check
  /// (fixed iteration count), which is what the timing experiments use.
  int residual_period = 0;
  double residual_tolerance = 0.0;

  int num_blocks() const { return blocks_x * blocks_y; }
  void validate() const;
};

/// Base chare for 2D block-decomposed iterative stencil codes.
///
/// Handles the whole message choreography — ghost sends, out-of-order
/// ghost buffering (a neighbour may run one iteration ahead), the compute
/// self-message, iteration accounting, AtSync every job().lb_period()
/// iterations and finish() — leaving derived classes only the numerics:
/// `append_edge()` (what to send) and `apply_update()` (how to relax).
class StencilBlockChare : public Chare {
 public:
  /// Sides index ghosts and neighbours: 0=west 1=east 2=north 3=south.
  enum Side { kWest = 0, kEast = 1, kNorth = 2, kSouth = 3 };

  StencilBlockChare(const StencilLayout& layout, int bx, int by);

  void on_start() override;
  SimTime cost(const Message& msg) const override;
  void execute(const Message& msg) override;
  void on_resume_sync() override;
  void on_reduction_result(double global_residual) override;
  std::size_t footprint_bytes() const override;

  // Geometry accessors (owned region, halo excluded).
  int x0() const { return x0_; }
  int y0() const { return y0_; }
  int nx() const { return x1_ - x0_; }
  int ny() const { return y1_ - y0_; }
  int iteration() const { return iter_; }
  const StencilLayout& layout() const { return layout_; }

 protected:
  /// Appends the values along `side` of the owned region to `payload`:
  /// west/east sides append ny() values (one per row, top to bottom),
  /// north/south nx() (left to right). Writes straight into the ghost
  /// message's payload, which is reserved for them.
  virtual void append_edge(Side side, std::vector<double>& payload) const = 0;

  /// Applies one stencil update; `ghosts[side]` is the neighbour's edge
  /// (empty when the block touches the global boundary on that side).
  /// The vectors are only valid for the duration of the call.
  virtual void apply_update(
      const std::array<std::vector<double>, 4>& ghosts) = 0;

  /// Bytes of numerical state, used for migration cost. Defaults to one
  /// grid of doubles; Wave2D overrides (two time levels).
  virtual std::size_t state_bytes() const;

  /// This block's contribution to the global residual reduction (only
  /// consulted when layout().residual_period > 0).
  virtual double local_residual() const { return 0.0; }

  /// append_edge() for a row-major nx() × ny() block of values.
  void append_grid_edge(const std::vector<double>& grid, Side side,
                        std::vector<double>& payload) const;

  /// Row-sweep loop for 5-point kernels over the row-major block `u`.
  /// Calls `fixed(i)` for every owned point on the global boundary and
  /// `relax(i, west, east, north, south)` for every other point, where `i`
  /// is the point's index in the block. Relaxed points are visited in
  /// row-major order, so a kernel that accumulates (Jacobi's residual)
  /// sums in the same order as a serial loop over the grid. Neighbours are
  /// read through row pointers: north/south from the adjacent rows, or
  /// from the ghosts on the block's first/last row; only the first and
  /// last column read the west/east ghosts.
  template <typename Fixed, typename Relax>
  void sweep_rows(const std::vector<double>& u,
                  const std::array<std::vector<double>, 4>& ghosts,
                  Fixed&& fixed, Relax&& relax) const;

 private:
  void send_ghosts();
  void maybe_trigger_compute();
  void proceed_to_next_iteration();

  StencilLayout layout_;
  int bx_, by_;
  int x0_, x1_, y0_, y1_;
  std::array<ChareId, 4> neighbor_;  ///< -1 where the global boundary is
  int expected_ghosts_ = 0;
  int iter_ = 0;
  bool compute_pending_ = false;
  bool awaiting_reduction_ = false;
  /// Ghosts buffered per iteration, in a two-slot ring indexed by
  /// `iter & 1`: a neighbour runs at most one iteration ahead, so only
  /// iterations iter_ and iter_ + 1 are ever in flight. Slots are cleared
  /// (keeping their capacity) once their iteration's update has run.
  std::array<std::array<std::vector<double>, 4>, 2> ghosts_;
  std::array<int, 2> ghost_count_{};
};

template <typename Fixed, typename Relax>
void StencilBlockChare::sweep_rows(
    const std::vector<double>& u,
    const std::array<std::vector<double>, 4>& ghosts, Fixed&& fixed,
    Relax&& relax) const {
  const int w = nx();
  const int h = ny();
  const bool west_fixed = x0_ == 0;
  const bool east_fixed = x1_ == layout_.grid_x;
  // Relaxed columns are [lo, hi); of those, [mid_lo, mid_hi) read both
  // horizontal neighbours from the row itself.
  const int lo = west_fixed ? 1 : 0;
  const int hi = east_fixed ? w - 1 : w;
  const int mid_lo = std::max(lo, 1);
  const int mid_hi = std::min(hi, w - 1);
  for (int r = 0; r < h; ++r) {
    const std::size_t base =
        static_cast<std::size_t>(r) * static_cast<std::size_t>(w);
    const int gy = y0_ + r;
    if (gy == 0 || gy == layout_.grid_y - 1) {
      for (int c = 0; c < w; ++c) fixed(base + static_cast<std::size_t>(c));
      continue;
    }
    const double* row = u.data() + base;
    const double* north = r > 0 ? row - w : ghosts[kNorth].data();
    const double* south = r + 1 < h ? row + w : ghosts[kSouth].data();
    const auto rr = static_cast<std::size_t>(r);
    const double west_ghost = lo == 0 ? ghosts[kWest][rr] : 0.0;
    const double east_ghost = hi == w ? ghosts[kEast][rr] : 0.0;
    const auto point = [&](int c, double west, double east) {
      relax(base + static_cast<std::size_t>(c), west, east, north[c],
            south[c]);
    };
    if (west_fixed) fixed(base);
    if (lo == 0 && hi > 0) point(0, west_ghost, w > 1 ? row[1] : east_ghost);
    for (int c = mid_lo; c < mid_hi; ++c) point(c, row[c - 1], row[c + 1]);
    if (hi == w && w > 1) point(w - 1, row[w - 2], east_ghost);
    if (east_fixed) fixed(base + static_cast<std::size_t>(w - 1));
  }
}

/// Deterministic initial condition used by the stencil apps and their
/// serial references: a smooth mode plus an off-centre Gaussian bump.
double stencil_initial_value(int i, int j, int grid_x, int grid_y);

}  // namespace cloudlb
