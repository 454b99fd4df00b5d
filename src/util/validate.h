#pragma once

#include <atomic>

namespace cloudlb {

namespace detail {
/// The compiled default, overridden by the environment (validate.cc).
bool initial_validation_state();

inline std::atomic<bool>& validation_flag() {
  static std::atomic<bool> enabled{initial_validation_state()};
  return enabled;
}
}  // namespace detail

/// Deep structural invariant validation (see docs/static-analysis.md §4).
///
/// When enabled, subsystems run expensive integrity checks at their
/// mutation boundaries — heap/arena audits after simulator batches,
/// assignment audits after every LB step, Eq. 1 conservation after
/// refinement, monotone trace sequencing — all failing through CLB_CHECK
/// so a violation throws CheckFailure instead of corrupting results.
///
/// The default is off; a build with -DCLOUDLB_VALIDATE=ON (which defines
/// the CLOUDLB_VALIDATE macro) defaults it on, and the CLOUDLB_VALIDATE
/// environment variable ("0"/"1") overrides the compiled default at
/// process start. ScenarioConfig::validate scopes it to a single run.
/// Inline: the event engine asks once per fired event.
inline bool validation_enabled() {
  return detail::validation_flag().load(std::memory_order_relaxed);
}

/// Toggles validation process-wide; returns the previous value.
inline bool set_validation_enabled(bool enabled) {
  return detail::validation_flag().exchange(enabled,
                                            std::memory_order_relaxed);
}

/// RAII scope: enables (or disables) validation for its lifetime and
/// restores the previous setting on destruction.
class ValidationScope {
 public:
  explicit ValidationScope(bool enabled)
      : previous_{set_validation_enabled(enabled)} {}
  ~ValidationScope() { set_validation_enabled(previous_); }
  ValidationScope(const ValidationScope&) = delete;
  ValidationScope& operator=(const ValidationScope&) = delete;

 private:
  bool previous_;
};

}  // namespace cloudlb
