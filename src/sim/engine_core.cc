#include "sim/engine_core.h"

#include <algorithm>

#include "util/check.h"

namespace cloudlb {

void EngineCore::compact_queue() {
  const auto stale = [this](const QueueEntry& e) {
    return slots_[e.slot].gen != e.gen;
  };
  std::erase_if(queue_, stale);
  // Re-establish the 4-ary heap: sift down every internal node, deepest
  // first (the classic Floyd build, just with fan-out 4).
  if (queue_.size() > 1)
    for (std::size_t i = (queue_.size() - 2) / 4 + 1; i-- > 0;) sift_down(i);
  // The lane only loses entries, so what remains stays sorted.
  lane_.erase(lane_.begin(),
              lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
  lane_head_ = 0;
  std::erase_if(lane_, stale);
  stale_ = 0;
  if (validation_enabled()) validate_integrity();
}

void EngineCore::reject_schedule(SimTime t, SimTime stamp) const {
  CLB_CHECK_MSG(t >= now_, "event scheduled in the past: t="
                               << t.to_string()
                               << " now=" << now_.to_string());
  CLB_CHECK_MSG(stamp <= t, "send stamp after delivery: stamp="
                                << stamp.to_string()
                                << " t=" << t.to_string());
}

void EngineCore::recover_late_event(SimTime due) {
  if (clock_policy_ == ClockFaultPolicy::kStrict) {
    CLB_CHECK_MSG(due >= now_, "event due at " << due.to_string()
                                               << " fired behind the clock ("
                                               << now_.to_string() << ")");
  }
  ++clock_recoveries_;
}

void EngineCore::check_fire_order(const QueueEntry& entry) {
  // The heap contract: events fire in strictly increasing
  // (time, stamp, rank, seq) order — the determinism fingerprint every
  // golden digest depends on. Holds for any clock policy, since faults
  // perturb the clock, never the queue order.
  const bool monotone =
      last_fired_time_ < entry.time ||
      (last_fired_time_ == entry.time &&
       (last_fired_stamp_ < entry.stamp ||
        (last_fired_stamp_ == entry.stamp &&
         (last_fired_rank_ < entry.rank ||
          (last_fired_rank_ == entry.rank && last_fired_seq_ < entry.seq)))));
  CLB_CHECK_MSG(monotone,
                "trace sequence not monotone: ("
                    << entry.time.to_string() << ", stamp "
                    << entry.stamp.to_string() << ", rank " << entry.rank
                    << ", seq " << entry.seq << ") fired after ("
                    << last_fired_time_.to_string() << ", stamp "
                    << last_fired_stamp_.to_string() << ", rank "
                    << last_fired_rank_ << ", seq " << last_fired_seq_ << ")");
  last_fired_time_ = entry.time;
  last_fired_stamp_ = entry.stamp;
  last_fired_rank_ = entry.rank;
  last_fired_seq_ = entry.seq;
}

void EngineCore::validate_integrity() const {
  // Heap property: no parent orders after any of its four children.
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    const std::size_t parent = (i - 1) >> 2;
    CLB_CHECK_MSG(!(queue_[parent] > queue_[i]),
                  "heap property violated at entry " << i << " (parent "
                                                     << parent << ")");
  }

  // Lane order: strictly ascending keys, so the lane head is always the
  // lane's minimum and merging it with the heap head keeps global order.
  for (std::size_t i = lane_head_ + 1; i < lane_.size(); ++i)
    CLB_CHECK_MSG(lane_[i] > lane_[i - 1],
                  "same-instant lane out of order at entry "
                      << i - lane_head_);

  // Free-list shape: every link in range, no cycles, callbacks cleared.
  std::vector<char> on_free_list(slots_.size(), 0);
  std::size_t free_count = 0;
  for (std::uint32_t s = free_head_; s != kNoSlot; s = slots_[s].next_free) {
    CLB_CHECK_MSG(s < slots_.size(), "free-list link out of range: " << s);
    CLB_CHECK_MSG(!on_free_list[s], "free-list cycle through slot " << s);
    CLB_CHECK_MSG(slots_[s].cb == nullptr,
                  "free slot " << s << " still holds a callback");
    on_free_list[s] = 1;
    ++free_count;
  }
  CLB_CHECK_MSG(free_count + live_ == slots_.size(),
                "arena accounting broken: " << free_count << " free + "
                                            << live_ << " live != "
                                            << slots_.size() << " slots");

  // Generation consistency: an entry whose generation matches its slot is
  // the slot's one live occupancy — the slot must be off the free list,
  // hold a callback, and be referenced by exactly one such entry. Every
  // other entry is stale, and stale_ must account for all of them.
  std::vector<char> seen_live(slots_.size(), 0);
  std::size_t live_entries = 0;
  const auto audit = [&](const QueueEntry& e) {
    CLB_CHECK_MSG(e.slot < slots_.size(),
                  "queue entry references slot " << e.slot
                                                 << " out of range");
    if (slots_[e.slot].gen != e.gen) return;  // stale, skipped lazily
    CLB_CHECK_MSG(!on_free_list[e.slot],
                  "live queue entry references freed slot " << e.slot);
    CLB_CHECK_MSG(slots_[e.slot].cb != nullptr,
                  "live queue entry references empty slot " << e.slot);
    CLB_CHECK_MSG(!seen_live[e.slot],
                  "slot " << e.slot << " referenced by two live entries");
    seen_live[e.slot] = 1;
    ++live_entries;
  };
  for (const QueueEntry& e : queue_) audit(e);
  for (std::size_t i = lane_head_; i < lane_.size(); ++i) audit(lane_[i]);
  CLB_CHECK_MSG(live_entries == live_,
                "live-entry count " << live_entries
                                    << " disagrees with live_ " << live_);
  CLB_CHECK_MSG(queue_size() - live_entries == stale_,
                "stale accounting broken: " << queue_size() - live_entries
                                            << " stale entries, counter "
                                            << stale_);
}

void EngineCore::run() {
  while (step()) {
  }
  if (validation_enabled()) validate_integrity();
}

void EngineCore::run_until(SimTime t) {
  if (t < now_) {
    // Normally API misuse — but after fault_advance_clock the caller's
    // target can legitimately lag the perturbed clock. Recover mode treats
    // the call as run_until(now()): drain what is due, never rewind.
    CLB_CHECK_MSG(clock_policy_ == ClockFaultPolicy::kRecover,
                  "run_until(" << t.to_string()
                               << ") is behind the clock ("
                               << now_.to_string() << ")");
    ++clock_recoveries_;
    t = now_;
  }
  // live_head() skips stale (cancelled) heads without advancing the clock.
  for (const QueueEntry* head = live_head(); head != nullptr && head->time <= t;
       head = live_head()) {
    // The head is live and due, so step() must execute it.
    CLB_CHECK(step());
  }
  // The loop exits only with an empty queue or a live head strictly past
  // `t` — events executed above may have scheduled more work at times
  // <= t (e.g. schedule_at(now())), and all of it must have run before
  // the clock is allowed to jump. Guard the invariant so a future engine
  // change can never move now() past an unexecuted pending event. Under
  // kRecover the stragglers are executed (late, clamped to the clock)
  // instead of aborting the run.
  for (const QueueEntry* head = live_head(); head != nullptr && head->time <= t;
       head = live_head()) {
    CLB_CHECK_MSG(clock_policy_ == ClockFaultPolicy::kRecover,
                  "run_until would advance the clock past a pending event");
    CLB_CHECK(step());
  }
  now_ = t;
  if (validation_enabled()) validate_integrity();
}

void EngineCore::run_before(SimTime t) {
  CLB_CHECK_MSG(t >= now_, "run_before(" << t.to_string()
                                         << ") is behind the clock ("
                                         << now_.to_string() << ")");
  for (;;) {
    const std::optional<SimTime> next = next_live_time();
    if (!next || *next >= t) break;
    // The head is live and strictly inside the window; step() must run it.
    CLB_CHECK(step());
  }
  now_ = t;
  if (validation_enabled()) validate_integrity();
}

}  // namespace cloudlb
