#pragma once

#include <cstdint>

namespace perfbench {

/// Process-wide count of `operator new` calls, fed by the replacement
/// allocation functions in alloc_count.cc. Counting is off by default so
/// the untraced end-to-end passes pay only a relaxed flag load per
/// allocation; the traced run switches it on around the code it measures.
void set_alloc_counting(bool enabled);
std::uint64_t alloc_count();

/// Counts allocations made while in scope (counting must be on).
class AllocDelta {
 public:
  AllocDelta() : start_{alloc_count()} {}
  std::uint64_t count() const { return alloc_count() - start_; }

 private:
  std::uint64_t start_;
};

}  // namespace perfbench
