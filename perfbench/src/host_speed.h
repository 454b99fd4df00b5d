#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Measures how fast the host runs memory-bound code right now, so that
/// host timings can be reported at a fixed reference speed.
///
/// On a shared host the simulator's speed drifts by up to 2x over minutes
/// while neighbours contend for the caches and memory; the drift is the
/// same for any cache-missing, allocation-heavy code, whatever its source.
/// The probe runs two such kernels of its own, which share no code with
/// the simulator: a pointer chase over an 8 MiB random cycle and an
/// ordered-map insert/erase churn. sample() times them once; slowdown()
/// is the geometric mean of their times over all samples taken, each
/// divided by its nominal time on an idle host (so 1.0 is an idle host
/// and 1.5 one that runs memory-bound code 1.5x slower).
class HostSpeedProbe {
 public:
  HostSpeedProbe();

  /// Times both kernels once (about 60 ms on an idle host).
  void sample();

  /// Slowdown over the samples since the last reset(); 1.0 if none.
  double slowdown() const;
  void reset();

 private:
  std::vector<std::uint32_t> next_;  ///< the pointer-chase cycle
  double chase_s_ = 0.0;
  double churn_s_ = 0.0;
  int samples_ = 0;
};

}  // namespace perfbench
