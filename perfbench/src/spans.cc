#include "spans.h"

#include <cstdio>
#include <map>

namespace perfbench {

int SpanRecorder::begin(std::string name, std::uint64_t run_id) {
  const std::int64_t start = ns(Clock::now());
  std::lock_guard<std::mutex> lock{mu_};
  const int parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back(Span{std::move(name), start, start, parent, run_id});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  const std::int64_t stop = ns(Clock::now());
  std::lock_guard<std::mutex> lock{mu_};
  spans_[static_cast<std::size_t>(id)].end_ns = stop;
  open_.pop_back();  // ScopedSpan closes spans in LIFO order
}

void SpanRecorder::record(std::string name, Clock::time_point start,
                          Clock::time_point end, int parent,
                          std::uint64_t run_id) {
  const std::int64_t s = ns(start);
  const std::int64_t e = ns(end);
  std::lock_guard<std::mutex> lock{mu_};
  spans_.push_back(Span{std::move(name), s, e, parent, run_id});
}

int SpanRecorder::current() const {
  std::lock_guard<std::mutex> lock{mu_};
  return open_.empty() ? kNoParent : open_.back();
}

bool SpanRecorder::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock{mu_};
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  struct Summary {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Summary> summary;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Summary& sum = summary[spans_[i].name];
    const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    ++sum.count;
    sum.total_ns += dur;
    sum.self_ns += dur - child_ns[i];
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"self_time\": {");
  const char* sep = "";
  for (const auto& [name, sum] : summary) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_s\": %.9f, "
                 "\"self_s\": %.9f}",
                 sep, name.c_str(), static_cast<unsigned long long>(sum.count),
                 static_cast<double>(sum.total_ns) * 1e-9,
                 static_cast<double>(sum.self_ns) * 1e-9);
    sep = ",";
  }
  std::fprintf(f, "\n},\n\"spans\": [");
  sep = "";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"run\": %llu}",
                 sep, i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.run_id));
    sep = ",";
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
