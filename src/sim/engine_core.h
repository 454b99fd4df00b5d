#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/check.h"
#include "util/shard_annotations.h"
#include "util/sim_time.h"
#include "util/small_function.h"
#include "util/validate.h"

namespace cloudlb {

/// Handle to a scheduled event, usable for cancellation. Default-constructed
/// handles are inert. A handle names one *occupancy* of a callback slot —
/// {slot index, generation} — so a handle kept across its event's firing
/// (or cancellation) goes stale instead of aliasing whatever event reuses
/// the slot: cancelling it is detected and returns false.
class EventHandle {
 public:
  EventHandle() = default;
  [[nodiscard]] bool valid() const { return gen_ != 0; }

 private:
  friend class EngineCore;
  EventHandle(std::uint32_t slot, std::uint32_t gen)
      : slot_{slot}, gen_{gen} {}
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;  ///< 0 = inert; live generations start at 1
};

/// The event-engine mechanism: a slot-arena of callbacks addressed by a
/// 4-ary min-heap of (time, seq) entries plus a same-instant FIFO lane,
/// with lazy cancellation and stale-entry compaction. One EngineCore is
/// one shard's worth of pending events — `Simulator` wraps exactly one as
/// the single-threaded engine, and `ShardedSimulator` owns N of them
/// advanced in conservative time windows (docs/sharded-engine.md). The
/// core itself is single-threaded: all cross-thread coordination lives in
/// the owner.
///
/// Engine layout (see docs/event-engine.md): callbacks live in a free-list
/// slot arena addressed directly by the heap entries, so the steady-state
/// schedule→fire cycle does no hashing and — for callbacks whose captures
/// fit the Callback inline buffer — no heap allocation at all. The pending
/// queue is a 4-ary min-heap: half the depth of a binary heap, and the
/// four children of a node share a cache line, which is worth ~25% on the
/// schedule→fire cycle at evaluation-grid queue sizes. Events scheduled
/// for the current instant (zero-delay completion deliveries, about a
/// third of all events in a processor-sharing run) skip the heap: they
/// append to a FIFO lane that stays sorted by the full key, and step()
/// fires whichever of the two heads orders first. The firing order is
/// exactly the heap-only order.
class EngineCore {
 public:
  /// What to do when the clock-consistency invariant is violated — an
  /// event due to fire with a timestamp behind now(), or run_until()
  /// finding live work at or before its target after draining. Impossible
  /// in normal operation; reachable when fault injection intentionally
  /// perturbs timestamps (fault_advance_clock), or on an engine bug.
  enum class ClockFaultPolicy {
    kStrict,   ///< CLB_CHECK: throw CheckFailure (the default; on in every
               ///< build type, so engine bugs can never fire events late
               ///< silently in release builds)
    kRecover,  ///< execute the late event at the current clock (time never
               ///< regresses), count it in clock_recoveries(), continue
  };

  void set_clock_fault_policy(ClockFaultPolicy policy) {
    clock_policy_ = policy;
  }
  [[nodiscard]] ClockFaultPolicy clock_fault_policy() const {
    return clock_policy_;
  }

  /// Late events executed under ClockFaultPolicy::kRecover.
  [[nodiscard]] std::uint64_t clock_recoveries() const {
    return clock_recoveries_;
  }

  /// Fault-injection hook: forcibly advances the clock to max(now(), t)
  /// WITHOUT executing the events in between, leaving them pending in the
  /// past — the perturbed-timestamp state the kRecover policy exists for.
  /// Pair with kRecover (under kStrict the next step() over a bypassed
  /// event throws). Never called by the engine itself.
  void fault_advance_clock(SimTime t) {
    if (t > now_) now_ = t;
  }

  /// Bytes of capture state a callback may carry and still be stored
  /// inline (allocation-free). Sized for the fattest runtime closure:
  /// message delivery captures {this, Message} = 56 bytes (Message is 48:
  /// three ints + payload vector + wire size).
  static constexpr std::size_t kInlineCallbackBytes = 64;

  using Callback = SmallFunction<void(), kInlineCallbackBytes>;

  /// Current virtual time. Starts at zero.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Presize hints: reserves heap capacity for `events` concurrently
  /// pending entries and arena capacity for `slots` callback cells, so
  /// the growth reallocations of a large scenario's setup burst (100k+
  /// PEs schedule one event per entity up front) leave the warm path.
  /// The same-instant lane is left to grow: it reaches its size in a
  /// run's first burst (one event per chare at start) and keeps it.
  /// Presizing it raised peak RSS on every benchmark workload tried: by
  /// up to 16% on the 1024-core one from `events`, and by 18% on cloud128
  /// with a fixed 1024 entries. Never shrinks; purely a capacity hint,
  /// invisible to the trace.
  void reserve(std::size_t events, std::size_t slots) {
    queue_.reserve(events);
    slots_.reserve(slots);
  }

  /// Schedules `cb` at absolute time `t` (must be >= now()). The event is
  /// stamped with the caller's clock (now()): same-time events fire in
  /// (stamp, insertion) order. On a lone engine the stamp is redundant —
  /// insertion order already sorts by the non-decreasing clock — so this
  /// orders identically to a plain (time, seq) heap. The stamp exists for
  /// the sharded runtime, where events reach one engine from several
  /// clocks: see schedule_at_stamped.
  ///
  /// Every schedule_* takes the callback by rvalue reference: a lambda
  /// converts to one Callback at the call site, which moves once, into
  /// its arena slot.
  CLB_WARM_PATH EventHandle schedule_at(SimTime t, Callback&& cb) {
    return schedule_at_ranked(t, now_, current_rank_, std::move(cb));
  }

  /// Schedules `cb` at `t` carrying an explicit send stamp — the logical
  /// instant the *scheduling* happened, on whatever clock the caller was
  /// executing under. Same-time events fire in ascending stamp order
  /// (ties by insertion), which is exactly the single-engine rule where
  /// an event inserted earlier-in-virtual-time fires first. The sharded
  /// runtime uses this to inject cross-engine work (mailbox envelopes,
  /// global-phase scheduling) so that destination queues interleave
  /// same-time events by send order, bit-identical to the legacy engine,
  /// instead of by arrival route. `stamp` may be behind this engine's
  /// clock (the sender's window lags the barrier) but never ahead of `t`.
  /// The event inherits the executing event's rank (see
  /// schedule_at_ranked).
  CLB_WARM_PATH EventHandle schedule_at_stamped(SimTime t, SimTime stamp,
                                                Callback&& cb) {
    return schedule_at_ranked(t, stamp, current_rank_, std::move(cb));
  }

  /// Schedules `cb` at `t` with an explicit (stamp, rank) ordering key.
  /// `rank` breaks ties after the stamp and before insertion order. It
  /// exists for synchronized fan-out bursts in the sharded runtime: when
  /// one logical broadcast (an LB resume, a reduction result) reaches N
  /// chares "at the same instant", the legacy engine executes the
  /// per-chare continuations in the order the broadcast loop inserted
  /// them — chare index order — while per-shard engines drain shard by
  /// shard. Ranking those continuations by chare index, and letting every
  /// event they transitively schedule inherit the rank (current_rank()),
  /// reproduces the legacy interleave for events whose time AND stamp
  /// both tie across shards. The legacy path never assigns a rank, so
  /// every entry carries 0 there and ordering degenerates to the
  /// historical (time, stamp, seq).
  ///
  /// An event due now() whose key sorts after the lane's tail appends to
  /// the same-instant lane; every other event goes into the heap. The
  /// lane therefore stays sorted even when stamps or ranks differ.
  CLB_WARM_PATH EventHandle schedule_at_ranked(SimTime t, SimTime stamp,
                                               std::uint64_t rank,
                                               Callback&& cb) {
    if (t < now_ || stamp > t) [[unlikely]]
      reject_schedule(t, stamp);
    CLB_CHECK(cb != nullptr);
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.cb = std::move(cb);
    const QueueEntry e{t, stamp, rank, next_seq_++, slot, s.gen};
    if (t == now_ && (lane_empty() || e > lane_.back())) {
      push_lane(e);
    } else {
      push_entry(e);
    }
    ++live_;
    return EventHandle{slot, s.gen};
  }

  /// Rank of the currently executing event — zero outside a callback and
  /// on the legacy path. Everything scheduled from inside a callback
  /// inherits it, so a ranked burst continuation propagates its rank down
  /// its whole causal chain.
  [[nodiscard]] std::uint64_t current_rank() const { return current_rank_; }

  /// Overrides the inherited rank mid-callback. Used by fan-out loops
  /// that deliver to several chares from ONE event (the per-shard half of
  /// a reduction broadcast): each chare's deliveries must rank as if the
  /// chare had its own continuation event. step() resets the rank after
  /// the callback returns.
  void set_current_rank(std::uint64_t rank) { current_rank_ = rank; }

  /// Schedules `cb` at now() + delay (delay must be >= 0).
  CLB_WARM_PATH EventHandle schedule_after(SimTime delay, Callback&& cb) {
    CLB_CHECK(!delay.is_negative());
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event. Cancelling an already-fired, already-cancelled
  /// or inert handle is a no-op; returns whether something was cancelled.
  /// Stale handles (their slot was recycled by a later event) are detected
  /// by the generation check and refused.
  [[nodiscard]] CLB_WARM_PATH bool cancel(EventHandle h) {
    if (!h.valid()) return false;
    if (h.slot_ >= slots_.size() || slots_[h.slot_].gen != h.gen_)
      return false;  // already fired or cancelled; the slot may be reused
    release_slot(h.slot_);
    // The queue entry is normally skipped lazily when popped, but repeated
    // schedule/cancel cycles (re-armed periodic timers) would then grow the
    // queue without bound: compact once stale entries outnumber live ones.
    ++stale_;
    const std::size_t entries = queue_size();
    if (entries > kCompactionFloor && stale_ * 2 > entries) compact_queue();
    return true;
  }

  /// Executes the next pending event. Returns false if none remain.
  [[nodiscard]] CLB_WARM_PATH bool step() {
    while (!queue_.empty() || !lane_empty()) {
      const bool from_lane = lane_first();
      const QueueEntry entry = from_lane ? lane_[lane_head_] : queue_.front();
      pop_head(from_lane);
      if (slots_[entry.slot].gen != entry.gen) {  // cancelled
        retire_stale();
        continue;
      }
      // Move the callback out and release the slot *before* invoking: the
      // callback may itself schedule (possibly into this very slot, at a
      // fresh generation) or cancel events, and scheduling may grow the
      // slot vector, so the callable must not run from arena storage.
      Callback cb = std::move(slots_[entry.slot].cb);
      release_slot(entry.slot);
      if (entry.time < now_) [[unlikely]] {
        recover_late_event(entry.time);
      } else {
        now_ = entry.time;
      }
      ++executed_;
      last_event_time_ = now_;
      if (validation_enabled()) check_fire_order(entry);
      if (trace_) trace_(entry.time, entry.seq);
      current_rank_ = entry.rank;
      cb();
      current_rank_ = 0;
      return true;
    }
    return false;
  }

  /// Runs until the event queue drains.
  void run();

  /// Runs all events with timestamp <= `t` (including events they schedule
  /// at times <= `t`), then sets the clock to `t`. Postcondition: no
  /// pending event is earlier than now().
  CLB_SHARD_CONFINED void run_until(SimTime t);

  /// Runs all events with timestamp strictly *before* `t`, then sets the
  /// clock to `t`. This is the conservative-window execution primitive
  /// (docs/sharded-engine.md): a shard owns [now(), t) exclusively, and an
  /// event at exactly `t` belongs to the next window, after the barrier at
  /// which cross-shard messages timestamped `t` are injected. `t` must be
  /// >= now().
  CLB_SHARD_CONFINED void run_before(SimTime t);

  /// Time at which the most recent event executed (the clock it ran
  /// under, so a kRecover late event reports its recovery time, not its
  /// stale timestamp). Zero before any event has run. Unlike now(), this
  /// never moves on run_until / run_before clock advancement — it is the
  /// high-water mark of *work*, which is what makes rewind_clock able to
  /// prove a window tail was empty.
  [[nodiscard]] SimTime last_event_time() const { return last_event_time_; }

  /// Rewinds the clock to `t` without touching any state but now().
  ///
  /// This is the barrier-recovery primitive of the sharded runtime
  /// (docs/sharded-engine.md): when a window barrier discovers that a
  /// global cascade (an AtSync wave, a reduction, a job finish) completed
  /// entirely *inside* the window just run, the cascade's continuation
  /// must fire at the cascade instant t — but run_before already advanced
  /// the clock to the window end. Rewinding is legal exactly when nothing
  /// observable happened after t: no event executed past t (checked
  /// against last_event_time) and no pending event is due before t
  /// (guaranteed by the window postcondition, checked anyway). Machine
  /// state cannot disagree — every lazily-accruing model (core fluid
  /// shares, power) anchors at its last *event*, never at the bare clock.
  CLB_BARRIER_PHASE void rewind_clock(SimTime t) {
    CLB_CHECK_MSG(t <= now_, "rewind_clock forward: t=" << t.to_string()
                                                        << " now="
                                                        << now_.to_string());
    CLB_CHECK_MSG(last_event_time_ <= t,
                  "rewind_clock past executed work: t="
                      << t.to_string() << " last event at "
                      << last_event_time_.to_string());
    const auto next = next_live_time();
    CLB_CHECK_MSG(!next || *next >= t,
                  "rewind_clock below a pending event: t="
                      << t.to_string() << " pending at "
                      << next->to_string());
    now_ = t;
  }

  /// Timestamp of the earliest live (non-cancelled) pending event, or
  /// nullopt when none remain. Sheds stale heads off the heap and the lane
  /// as a side effect (bookkeeping only; the trace is untouched).
  [[nodiscard]] std::optional<SimTime> next_live_time() {
    const QueueEntry* head = live_head();
    if (head == nullptr) return std::nullopt;
    return head->time;
  }

  /// Number of events scheduled but not yet fired or cancelled.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Heap and lane entries currently held, including stale (cancelled)
  /// ones waiting to be skipped or compacted away. Bounded at
  /// < 2·pending() + a small floor even under adversarial schedule/cancel
  /// churn.
  [[nodiscard]] std::size_t queue_size() const {
    return queue_.size() + (lane_.size() - lane_head_);
  }

  /// Callback slots allocated (monitoring; slots are recycled, so this
  /// tracks the high-water mark of concurrently pending events).
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  /// Total events executed so far (monitoring / benchmarks).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Observes every executed event as (time, sequence number), *before*
  /// its callback runs. Used by determinism tests to fingerprint the
  /// execution trace; null (the default) costs one branch per event.
  using TraceHook = std::function<void(SimTime, std::uint64_t)>;
  void set_trace_hook(TraceHook hook) { trace_ = std::move(hook); }

  /// Deep structural audit of the engine (validation_enabled() gates the
  /// automatic call sites; calling it directly is always allowed): 4-ary
  /// heap property over the pending queue, strictly ascending keys along
  /// the same-instant lane, slot-arena free-list shape
  /// (in-range, acyclic, callbacks cleared), generation consistency
  /// between queue and lane entries and slots, and the live/stale
  /// accounting.
  /// Throws CheckFailure on the first violated invariant.
  void validate_integrity() const;

 private:
  friend struct SimulatorTestAccess;  ///< corruption seams for validator tests

  struct QueueEntry {
    SimTime time;
    SimTime stamp;       ///< send instant; breaks same-time ties before rank
    std::uint64_t rank;  ///< burst-continuation rank; 0 on the legacy path
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
    bool operator>(const QueueEntry& o) const {
      if (time != o.time) return time > o.time;
      if (stamp != o.stamp) return stamp > o.stamp;
      if (rank != o.rank) return rank > o.rank;
      return seq > o.seq;
    }
  };

  /// One arena cell. `gen` counts occupancies: it is bumped when the
  /// occupant leaves (fires or is cancelled), so queue entries and handles
  /// carrying an old generation are recognizably stale. A slot is on the
  /// free list iff its generation matches no outstanding entry.
  struct Slot {
    Callback cb;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNoSlot;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  // Below this size, compaction is not worth the pass: lazily skipping a
  // handful of stale heads is cheaper than rebuilding the heap.
  static constexpr std::size_t kCompactionFloor = 64;

  // --- 4-ary min-heap over queue_ (manual layout so cancellation can
  // compact stale entries in place, which a std::priority_queue cannot).

  CLB_WARM_PATH void push_entry(const QueueEntry& e) {
    queue_.push_back(e);
    std::size_t i = queue_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!(queue_[parent] > e)) break;
      queue_[i] = queue_[parent];
      i = parent;
    }
    queue_[i] = e;
  }

  CLB_WARM_PATH void pop_entry() {
    queue_.front() = queue_.back();
    queue_.pop_back();
    if (queue_.size() > 1) sift_down(0);
  }

  // --- Same-instant lane: entries [lane_head_, lane_.size()) of lane_, in
  // strictly ascending key order. Consumed entries are reclaimed when the
  // lane drains (every instant ends with it empty) or, within one long
  // same-instant cascade, once they make up half the vector, so the lane
  // never spans more than about twice the entries it holds.

  static constexpr std::size_t kLaneReclaimFloor = 64;

  [[nodiscard]] bool lane_empty() const { return lane_head_ == lane_.size(); }

  CLB_WARM_PATH void push_lane(const QueueEntry& e) {
    if (lane_head_ >= kLaneReclaimFloor && lane_head_ * 2 >= lane_.size()) {
      lane_.erase(lane_.begin(),
                  lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
      lane_head_ = 0;
    }
    lane_.push_back(e);
  }

  /// Whether the next entry to fire is the lane head rather than the heap
  /// head. At least one of the two must be non-empty.
  [[nodiscard]] bool lane_first() const {
    return !lane_empty() &&
           (queue_.empty() || queue_.front() > lane_[lane_head_]);
  }

  /// Removes the next entry: the lane head if `from_lane`, else the heap's.
  CLB_WARM_PATH void pop_head(bool from_lane) {
    if (!from_lane) {
      pop_entry();
    } else if (++lane_head_ == lane_.size()) {
      lane_.clear();
      lane_head_ = 0;
    }
  }

  /// The entry that fires next — the smaller-keyed of the heap head and
  /// the lane head — after shedding stale heads off both; nullptr when
  /// nothing live is pending.
  const QueueEntry* live_head() {
    while (!queue_.empty() || !lane_empty()) {
      const bool from_lane = lane_first();
      const QueueEntry& head = from_lane ? lane_[lane_head_] : queue_.front();
      if (slots_[head.slot].gen == head.gen) return &head;
      pop_head(from_lane);
      retire_stale();
    }
    return nullptr;
  }

  /// Retires a just-popped stale entry from the stale ledger. Every stale
  /// entry was counted by exactly one cancel(), so finding the ledger at
  /// zero here means the accounting drifted — an engine bug. That used to
  /// be clamped away (`if (stale_ > 0)`), which let an undercount ride
  /// silently until compaction resynced it; now it is an integrity failure
  /// in every build type, same as validate_integrity() would report.
  CLB_WARM_PATH void retire_stale() {
    CLB_CHECK_MSG(stale_ > 0,
                  "stale-entry ledger underflow: skipping a cancelled head "
                  "with stale_ == 0 (accounting drifted)");
    --stale_;
  }

  CLB_WARM_PATH void sift_down(std::size_t i) {
    const std::size_t n = queue_.size();
    const QueueEntry item = queue_[i];
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < end; ++c)
        if (queue_[best] > queue_[c]) best = c;
      if (!(item > queue_[best])) break;
      queue_[i] = queue_[best];
      i = best;
    }
    queue_[i] = item;
  }

  CLB_WARM_PATH void compact_queue();

  // Out of line, so the failure messages they build stay out of the
  // schedule→fire loop's code.

  /// Throws for a schedule_* call whose time is behind the clock or whose
  /// stamp is after its time.
  void reject_schedule(SimTime t, SimTime stamp) const;

  /// A live event due behind the clock: only possible when timestamps
  /// were perturbed (fault_advance_clock) or the engine is broken. Strict
  /// mode fails loudly in every build type; recover mode counts it, and
  /// step() runs it late, at the current clock, so time never regresses.
  void recover_late_event(SimTime due);

  /// Validation: events fire in strictly increasing (time, stamp, rank,
  /// seq) order.
  void check_fire_order(const QueueEntry& entry);

  CLB_WARM_PATH std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      return slot;
    }
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    CLB_CHECK_MSG(slot != kNoSlot, "event slot arena exhausted");
    slots_.emplace_back();
    return slot;
  }

  CLB_WARM_PATH void release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.cb = nullptr;
    ++s.gen;  // invalidates every outstanding handle/entry
    s.next_free = free_head_;
    free_head_ = slot;
    --live_;
  }

  SimTime now_ = SimTime::zero();
  SimTime last_event_time_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  SimTime last_fired_time_ = SimTime::min_value();
  SimTime last_fired_stamp_ = SimTime::min_value();
  std::uint64_t last_fired_rank_ = 0;
  std::uint64_t last_fired_seq_ = 0;
  std::uint64_t current_rank_ = 0;  ///< rank of the executing event
  std::uint64_t executed_ = 0;
  ClockFaultPolicy clock_policy_ = ClockFaultPolicy::kStrict;
  std::uint64_t clock_recoveries_ = 0;
  std::vector<QueueEntry> queue_;
  std::vector<QueueEntry> lane_;  ///< same-instant FIFO lane
  std::size_t lane_head_ = 0;     ///< first unconsumed lane entry
  std::size_t stale_ = 0;  ///< cancelled entries still in queue_ or lane_
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;
  TraceHook trace_;
};

}  // namespace cloudlb
