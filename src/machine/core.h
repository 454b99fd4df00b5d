#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine_core.h"
#include "util/sim_time.h"

namespace cloudlb {

using CoreId = std::int32_t;
using ContextId = std::int32_t;

/// Snapshot of a core's cumulative CPU accounting — the simulated
/// equivalent of one row of `/proc/stat`, which the paper's background-load
/// estimator samples (Eq. 2 reads the idle counter).
struct ProcStat {
  SimTime busy;  ///< time the core spent executing any context
  SimTime idle;  ///< time the core spent with no runnable context
};

/// One physical CPU core, modelled as a weighted fluid processor-sharing
/// server.
///
/// Schedulable entities (the app's processing element, an interfering VM's
/// vCPU, ...) register as *contexts*. When k contexts are runnable, context
/// i progresses at `speed · w_i / Σw` — the fluid limit of an OS
/// time-slicer, which is exactly the interference mechanism the paper
/// studies (two co-located vCPUs halving each other's speed).
///
/// The core keeps full CPU-time accounting: cumulative busy/idle time and
/// per-context consumed CPU time, all exact under the fluid model. The
/// `/proc/stat` substitute (`proc_stat()`), the LB database and the power
/// model all read from this accounting.
class Core {
 public:
  /// `speed` scales CPU consumption: a demand of 1 CPU-second completes in
  /// 1/speed wall seconds on an otherwise idle core. The engine is the
  /// core's event clock: in the legacy runtime it is the one `Simulator`,
  /// in the sharded runtime it is the `EngineCore` of the shard that owns
  /// this core's node (docs/sharded-engine.md).
  Core(EngineCore& sim, CoreId id, double speed = 1.0);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  CoreId id() const { return id_; }
  double speed() const { return speed_; }

  /// Registers a schedulable context with the given scheduler weight
  /// (relative CPU share when competing; 1.0 = normal).
  ContextId register_context(std::string name, double weight = 1.0);

  /// Adjusts a context's scheduler weight (its "niceness").
  void set_weight(ContextId ctx, double weight);

  const std::string& context_name(ContextId ctx) const;

  /// Requests that `ctx` consume `cpu_time` of CPU, then invokes
  /// `on_complete`. At most one outstanding demand per context: a PE
  /// serializes its task executions. Zero demands complete via an
  /// immediately-scheduled event (still ordered deterministically).
  ///
  /// The callback is the engine's own Callback type: it is stored in the
  /// context's request slot and later moved into the completion event, so
  /// a capture within EngineCore::kInlineCallbackBytes never allocates.
  void demand(ContextId ctx, SimTime cpu_time,
              EngineCore::Callback&& on_complete);

  /// Whether `ctx` currently has an unfinished demand.
  bool has_demand(ContextId ctx) const;

  /// Number of currently runnable contexts.
  std::size_t runnable() const { return active_.size(); }

  // --- Accounting (all cumulative since t = 0, exact to the fluid model).

  /// Busy/idle counters as an OS would expose them.
  ProcStat proc_stat() const;

  /// Busy/idle counters extrapolated to `t` >= the engine clock. Exact —
  /// not an estimate — because between events the fluid shares are
  /// constant: nothing about the active set can change before the
  /// engine's next pending event fires. The caller must therefore
  /// guarantee `t` does not pass that event (the sharded runtime's
  /// global-order stepping does, by construction). `proc_stat()` is the
  /// `t == now` case.
  ProcStat proc_stat_at(SimTime t) const;

  /// Total CPU time consumed by one context so far.
  SimTime context_cpu_time(ContextId ctx) const;

  /// Per-context consumption extrapolated to `t`, under the same contract
  /// as proc_stat_at.
  SimTime context_cpu_time_at(ContextId ctx, SimTime t) const;

  std::size_t num_contexts() const { return contexts_.size(); }

 private:
  /// A context and its (at most one) outstanding request. The request
  /// fields are meaningful only while `active` is set.
  struct ContextInfo {
    std::string name;
    double weight = 1.0;
    double consumed_cpu_sec = 0.0;  ///< cumulative
    bool active = false;
    double remaining_cpu_sec = 0.0;
    EngineCore::Callback on_complete;
  };

  /// Accrues CPU consumption from `last_update_` to now, updating
  /// per-context counters and busy time. Does not fire completions.
  void advance_to_now();

  /// Fires callbacks for all requests that have run dry, then reschedules
  /// the next completion event.
  void complete_and_reschedule();

  double total_active_weight() const;

  EngineCore& sim_;
  CoreId id_;
  double speed_;
  std::vector<ContextInfo> contexts_;
  /// Contexts with an outstanding request, kept in ascending ContextId
  /// order so every iteration below (FP share sums, the fluid advance, the
  /// completion scan and its delivery order) visits contexts in one fixed
  /// order. Floating-point sums depend on that order: changing it changes
  /// simulated times in the last bits, and with them the trace digest.
  std::vector<ContextId> active_;
  /// Completion scratch for complete_and_reschedule(), kept across calls
  /// so its capacity is reused.
  std::vector<EngineCore::Callback> finished_;
  SimTime last_update_ = SimTime::zero();
  double busy_sec_ = 0.0;
  EventHandle completion_event_;
};

}  // namespace cloudlb
