#include "apps/stencil_base.h"

#include <cmath>

#include "runtime/job.h"
#include "util/check.h"

namespace cloudlb {

void StencilLayout::validate() const {
  CLB_CHECK(grid_x >= 3 && grid_y >= 3);
  CLB_CHECK(blocks_x >= 1 && blocks_y >= 1);
  CLB_CHECK(blocks_x <= grid_x && blocks_y <= grid_y);
  CLB_CHECK(iterations >= 1);
  CLB_CHECK(sec_per_point >= 0.0);
  CLB_CHECK(ghost_sec_per_value >= 0.0);
  CLB_CHECK(residual_period >= 0);
  CLB_CHECK(residual_tolerance >= 0.0);
}

double stencil_initial_value(int i, int j, int grid_x, int grid_y) {
  const double pi = 3.14159265358979323846;
  const double x = static_cast<double>(i) / (grid_x - 1);
  const double y = static_cast<double>(j) / (grid_y - 1);
  const double mode = std::sin(pi * x) * std::sin(pi * y);
  const double dx = x - 0.3;
  const double dy = y - 0.6;
  const double bump = std::exp(-(dx * dx + dy * dy) / 0.02);
  return mode + 0.5 * bump;
}

StencilBlockChare::StencilBlockChare(const StencilLayout& layout, int bx,
                                     int by)
    : layout_{layout}, bx_{bx}, by_{by} {
  layout_.validate();
  CLB_CHECK(bx >= 0 && bx < layout.blocks_x);
  CLB_CHECK(by >= 0 && by < layout.blocks_y);
  x0_ = bx * layout.grid_x / layout.blocks_x;
  x1_ = (bx + 1) * layout.grid_x / layout.blocks_x;
  y0_ = by * layout.grid_y / layout.blocks_y;
  y1_ = (by + 1) * layout.grid_y / layout.blocks_y;
  CLB_CHECK_MSG(x1_ > x0_ && y1_ > y0_, "empty block — too many blocks");

  const auto block_id = [&](int x, int y) -> ChareId {
    return static_cast<ChareId>(y * layout_.blocks_x + x);
  };
  neighbor_[kWest] = bx > 0 ? block_id(bx - 1, by) : -1;
  neighbor_[kEast] = bx < layout.blocks_x - 1 ? block_id(bx + 1, by) : -1;
  neighbor_[kNorth] = by > 0 ? block_id(bx, by - 1) : -1;
  neighbor_[kSouth] = by < layout.blocks_y - 1 ? block_id(bx, by + 1) : -1;
  for (const ChareId n : neighbor_)
    if (n != -1) ++expected_ghosts_;
}

std::size_t StencilBlockChare::state_bytes() const {
  return static_cast<std::size_t>(nx()) * static_cast<std::size_t>(ny()) *
         sizeof(double);
}

std::size_t StencilBlockChare::footprint_bytes() const {
  return state_bytes() + 512;  // numerical state + object overhead
}

void StencilBlockChare::append_grid_edge(const std::vector<double>& grid,
                                         Side side,
                                         std::vector<double>& payload) const {
  const auto w = static_cast<std::size_t>(nx());
  const auto h = static_cast<std::size_t>(ny());
  switch (side) {
    case kWest:
      for (std::size_t r = 0; r < h; ++r) payload.push_back(grid[r * w]);
      break;
    case kEast:
      for (std::size_t r = 0; r < h; ++r)
        payload.push_back(grid[r * w + w - 1]);
      break;
    case kNorth:
      payload.insert(payload.end(), grid.begin(),
                     grid.begin() + static_cast<std::ptrdiff_t>(w));
      break;
    case kSouth:
      payload.insert(payload.end(),
                     grid.begin() + static_cast<std::ptrdiff_t>((h - 1) * w),
                     grid.begin() + static_cast<std::ptrdiff_t>(h * w));
      break;
  }
}

void StencilBlockChare::on_start() { send_ghosts(); }

void StencilBlockChare::on_resume_sync() { send_ghosts(); }

void StencilBlockChare::send_ghosts() {
  static constexpr Side kOpposite[4] = {kEast, kWest, kSouth, kNorth};
  for (int side = 0; side < 4; ++side) {
    const ChareId dest = neighbor_[static_cast<std::size_t>(side)];
    if (dest == -1) continue;
    const int edge = side == kWest || side == kEast ? ny() : nx();
    std::vector<double> payload;
    payload.reserve(static_cast<std::size_t>(edge) + 2);
    payload.push_back(static_cast<double>(iter_));
    payload.push_back(static_cast<double>(kOpposite[side]));
    append_edge(static_cast<Side>(side), payload);
    send(dest, kTagGhost, std::move(payload));
  }
  maybe_trigger_compute();  // blocks with zero neighbours (1-block layouts)
}

SimTime StencilBlockChare::cost(const Message& msg) const {
  switch (msg.tag) {
    case kTagGhost:
      return SimTime::from_seconds(
          layout_.ghost_sec_per_value *
          static_cast<double>(msg.data.size() > 2 ? msg.data.size() - 2 : 0));
    case kTagCompute:
      return SimTime::from_seconds(layout_.sec_per_point *
                                   static_cast<double>(nx()) *
                                   static_cast<double>(ny()));
    default:
      CLB_CHECK_MSG(false, "unknown stencil tag " << msg.tag);
  }
  return SimTime::zero();
}

void StencilBlockChare::execute(const Message& msg) {
  if (msg.tag == kTagGhost) {
    CLB_CHECK(msg.data.size() >= 2);
    const int iter = static_cast<int>(msg.data[0]);
    const auto side = static_cast<std::size_t>(msg.data[1]);
    CLB_CHECK(side < 4);
    // A neighbour can be at most one iteration ahead of us.
    CLB_CHECK_MSG(iter == iter_ || iter == iter_ + 1,
                  "ghost for iteration " << iter << " while at " << iter_);
    const auto ring = static_cast<std::size_t>(iter & 1);
    auto& slot = ghosts_[ring][side];
    CLB_CHECK_MSG(slot.empty(), "duplicate ghost for side " << side);
    slot.assign(msg.data.begin() + 2, msg.data.end());
    ++ghost_count_[ring];
    maybe_trigger_compute();
    return;
  }

  CLB_CHECK(msg.tag == kTagCompute);
  CLB_CHECK(static_cast<int>(msg.data[0]) == iter_);
  compute_pending_ = false;
  const auto ring = static_cast<std::size_t>(iter_ & 1);
  apply_update(ghosts_[ring]);
  for (auto& ghost : ghosts_[ring]) ghost.clear();
  ghost_count_[ring] = 0;

  report_iteration(iter_);
  ++iter_;
  if (iter_ >= layout_.iterations) {
    finish();
    return;
  }
  if (layout_.residual_period > 0 &&
      iter_ % layout_.residual_period == 0) {
    awaiting_reduction_ = true;
    contribute(local_residual());
    return;  // quiet until the global residual arrives
  }
  proceed_to_next_iteration();
}

void StencilBlockChare::on_reduction_result(double global_residual) {
  CLB_CHECK_MSG(awaiting_reduction_, "unexpected reduction result");
  awaiting_reduction_ = false;
  if (global_residual < layout_.residual_tolerance) {
    finish();  // converged everywhere: every chare sees the same sum
    return;
  }
  proceed_to_next_iteration();
}

void StencilBlockChare::proceed_to_next_iteration() {
  const int period = job().lb_period();
  if (period > 0 && iter_ % period == 0) {
    at_sync();
  } else {
    send_ghosts();
  }
}

void StencilBlockChare::maybe_trigger_compute() {
  if (compute_pending_) return;
  if (ghost_count_[static_cast<std::size_t>(iter_ & 1)] == expected_ghosts_) {
    compute_pending_ = true;
    send(id(), kTagCompute, {static_cast<double>(iter_)});
  }
}

}  // namespace cloudlb
