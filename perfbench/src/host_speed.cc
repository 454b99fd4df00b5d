#include "host_speed.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <random>

#include "spans.h"

namespace perfbench {
namespace {

constexpr std::size_t kChaseWords = (8u << 20) / sizeof(std::uint32_t);
constexpr int kChaseSteps = 300'000;
constexpr int kChurnOps = 100'000;
constexpr std::size_t kChurnSize = 20'000;

/// Nominal kernel times: the tenth percentile of 300 samples on the
/// 4-core x86-64 VM the benchmark was sized on, i.e. its fast phases.
constexpr double kChaseNominalS = 0.039;
constexpr double kChurnNominalS = 0.0172;

/// Keeps a result alive so the compiler cannot drop the loop.
volatile std::uint64_t sink;

}  // namespace

HostSpeedProbe::HostSpeedProbe() : next_(kChaseWords) {
  // One random cycle through every word, so each step misses the cache.
  std::vector<std::uint32_t> order(kChaseWords);
  std::iota(order.begin(), order.end(), 0u);
  std::mt19937 rng{12345};
  std::shuffle(order.begin() + 1, order.end(), rng);
  for (std::size_t i = 0; i < kChaseWords; ++i)
    next_[order[i]] = order[(i + 1) % kChaseWords];
}

void HostSpeedProbe::sample() {
  auto t0 = Clock::now();
  std::uint32_t p = 0;
  for (int i = 0; i < kChaseSteps; ++i) p = next_[p];
  chase_s_ += seconds_since(t0);

  t0 = Clock::now();
  std::map<std::uint64_t, std::uint64_t> map;
  std::uint64_t x = 1;
  for (int i = 0; i < kChurnOps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    map[x >> 40] = x;
    if (map.size() > kChurnSize) map.erase(map.begin());
  }
  churn_s_ += seconds_since(t0);
  sink = p + map.size();
  ++samples_;
}

double HostSpeedProbe::slowdown() const {
  if (samples_ == 0) return 1.0;
  const double n = samples_;
  return std::sqrt((chase_s_ / n / kChaseNominalS) *
                   (churn_s_ / n / kChurnNominalS));
}

void HostSpeedProbe::reset() {
  chase_s_ = 0.0;
  churn_s_ = 0.0;
  samples_ = 0;
}

}  // namespace perfbench
