#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// In-memory span recorder for the traced run. Each span keeps its name,
/// start and end (ns since the recorder was made), the span that caused
/// it, and the scenario run it belongs to (0 outside any run). Nothing
/// touches the disk until write().
class SpanRecorder {
 public:
  static constexpr int kNoParent = -1;

  SpanRecorder() : epoch_{Clock::now()} {}

  /// Opens a span whose parent is the innermost open one.
  int begin(std::string name, std::uint64_t run_id);
  void end(int id);

  /// Adds a finished span with an explicit parent (for spans timed inside
  /// callbacks, such as the balancer decorator's `lb.assign`).
  void record(std::string name, Clock::time_point start, Clock::time_point end,
              int parent, std::uint64_t run_id);

  /// Innermost open span, or kNoParent.
  int current() const;

  /// Writes every span plus a per-name summary (count, total and self
  /// time; self time is a span's duration minus its children's) as JSON.
  /// Returns false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = kNoParent;
    std::uint64_t run_id = 0;
  };

  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  mutable std::mutex mu_;  ///< guards spans_ and open_
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::uint64_t run_id)
      : recorder_{recorder},
        id_{recorder == nullptr ? SpanRecorder::kNoParent
                                : recorder->begin(std::move(name), run_id)} {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench
