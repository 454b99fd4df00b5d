#include "machine/core.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace cloudlb {

namespace {
// Remaining CPU below this is treated as finished; guards against
// floating-point residue after advancing to a completion instant.
constexpr double kCpuEpsilonSec = 1e-12;
}  // namespace

Core::Core(EngineCore& sim, CoreId id, double speed)
    : sim_{sim}, id_{id}, speed_{speed} {
  CLB_CHECK(speed > 0.0);
}

ContextId Core::register_context(std::string name, double weight) {
  CLB_CHECK(weight > 0.0);
  const auto ctx = static_cast<ContextId>(contexts_.size());
  ContextInfo& info = contexts_.emplace_back();
  info.name = std::move(name);
  info.weight = weight;
  return ctx;
}

void Core::set_weight(ContextId ctx, double weight) {
  CLB_CHECK(ctx >= 0 && static_cast<std::size_t>(ctx) < contexts_.size());
  CLB_CHECK(weight > 0.0);
  advance_to_now();
  contexts_[static_cast<std::size_t>(ctx)].weight = weight;
  complete_and_reschedule();
}

const std::string& Core::context_name(ContextId ctx) const {
  CLB_CHECK(ctx >= 0 && static_cast<std::size_t>(ctx) < contexts_.size());
  return contexts_[static_cast<std::size_t>(ctx)].name;
}

void Core::demand(ContextId ctx, SimTime cpu_time,
                  EngineCore::Callback on_complete) {
  CLB_CHECK(ctx >= 0 && static_cast<std::size_t>(ctx) < contexts_.size());
  CLB_CHECK(!cpu_time.is_negative());
  CLB_CHECK(on_complete != nullptr);
  auto& info = contexts_[static_cast<std::size_t>(ctx)];
  CLB_CHECK_MSG(!info.active,
                "context " << info.name << " already has a demand");
  advance_to_now();
  info.active = true;
  info.remaining_cpu_sec = cpu_time.to_seconds();
  info.on_complete = std::move(on_complete);
  active_.insert(std::upper_bound(active_.begin(), active_.end(), ctx), ctx);
  complete_and_reschedule();
}

bool Core::has_demand(ContextId ctx) const {
  CLB_CHECK(ctx >= 0 && static_cast<std::size_t>(ctx) < contexts_.size());
  return contexts_[static_cast<std::size_t>(ctx)].active;
}

double Core::total_active_weight() const {
  double w = 0.0;
  for (const ContextId ctx : active_)
    w += contexts_[static_cast<std::size_t>(ctx)].weight;
  return w;
}

void Core::advance_to_now() {
  const SimTime now = sim_.now();
  const SimTime elapsed = now - last_update_;
  last_update_ = now;
  if (elapsed.is_zero() || active_.empty()) return;

  const double dt = elapsed.to_seconds();
  busy_sec_ += dt;
  const double total_w = total_active_weight();
  for (const ContextId ctx : active_) {
    auto& info = contexts_[static_cast<std::size_t>(ctx)];
    const double rate = speed_ * info.weight / total_w;
    const double used = std::min(info.remaining_cpu_sec, dt * rate);
    info.remaining_cpu_sec -= used;
    info.consumed_cpu_sec += used;
  }
}

void Core::complete_and_reschedule() {
  // Collect finished requests first so their callbacks (which may issue new
  // demands on this core) run against a consistent active set.
  // Compacts active_ in place, so both sets stay in ascending order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const ContextId ctx = active_[i];
    auto& info = contexts_[static_cast<std::size_t>(ctx)];
    if (info.remaining_cpu_sec <= kCpuEpsilonSec) {
      info.active = false;
      finished_.push_back(std::move(info.on_complete));
    } else {
      active_[kept++] = ctx;
    }
  }
  active_.resize(kept);

  if (completion_event_.valid()) {
    // The completion callback clears the handle before re-entering this
    // function, so a valid handle here always names a pending event; a
    // failed cancel would mean the handle went stale (engine bug).
    CLB_CHECK_MSG(sim_.cancel(completion_event_),
                  "core completion handle went stale");
    completion_event_ = EventHandle{};
  }
  if (!active_.empty()) {
    const double total_w = total_active_weight();
    double earliest = std::numeric_limits<double>::infinity();
    for (const ContextId ctx : active_) {
      const auto& info = contexts_[static_cast<std::size_t>(ctx)];
      const double rate = speed_ * info.weight / total_w;
      earliest = std::min(earliest, info.remaining_cpu_sec / rate);
    }
    // Round up so that at the event instant every candidate has actually
    // crossed the epsilon threshold.
    SimTime dt = SimTime::from_seconds(earliest) + SimTime::nanos(1);
    completion_event_ = sim_.schedule_after(dt, [this] {
      completion_event_ = EventHandle{};
      advance_to_now();
      complete_and_reschedule();
    });
  }

  // Deliver completions through zero-delay events: a callback typically
  // issues the context's next demand, and synchronous delivery would recurse
  // unboundedly through demand() -> complete_and_reschedule() for chains of
  // tiny tasks. Scheduling never re-enters this core, so the scratch is
  // free again once the loop ends.
  for (auto& cb : finished_)
    sim_.schedule_after(SimTime::zero(), std::move(cb));
  finished_.clear();
}

ProcStat Core::proc_stat() const { return proc_stat_at(sim_.now()); }

ProcStat Core::proc_stat_at(SimTime t) const {
  // Accrue lazily without mutating: recompute what advance_to_now would add
  // if the engine clock stood at `t`. Exact for any t that does not pass
  // the engine's next pending event (fluid shares are constant between
  // events) — the header spells out the caller's contract.
  CLB_CHECK_MSG(t >= sim_.now(), "proc_stat_at behind the engine clock: t="
                                     << t.to_string() << " now="
                                     << sim_.now().to_string());
  double busy = busy_sec_;
  const SimTime elapsed = t - last_update_;
  if (!elapsed.is_zero() && !active_.empty()) busy += elapsed.to_seconds();
  ProcStat st;
  st.busy = SimTime::from_seconds(busy);
  st.idle = t - st.busy;
  return st;
}

SimTime Core::context_cpu_time(ContextId ctx) const {
  return context_cpu_time_at(ctx, sim_.now());
}

SimTime Core::context_cpu_time_at(ContextId ctx, SimTime t) const {
  CLB_CHECK(ctx >= 0 && static_cast<std::size_t>(ctx) < contexts_.size());
  CLB_CHECK_MSG(t >= sim_.now(),
                "context_cpu_time_at behind the engine clock: t="
                    << t.to_string() << " now=" << sim_.now().to_string());
  const SimTime elapsed = t - last_update_;
  const auto& info = contexts_[static_cast<std::size_t>(ctx)];
  double consumed = info.consumed_cpu_sec;
  if (!elapsed.is_zero() && info.active) {
    const double rate = speed_ * info.weight / total_active_weight();
    consumed += std::min(info.remaining_cpu_sec, elapsed.to_seconds() * rate);
  }
  return SimTime::from_seconds(consumed);
}

}  // namespace cloudlb
