#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#include "sim/simulator.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/validate.h"

namespace cloudlb {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::millis(30), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::millis(10), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::millis(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::millis(30));
}

TEST(SimulatorTest, FifoTieBreakAtEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(SimTime::millis(5), [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime fired;
  sim.schedule_at(SimTime::seconds(1), [&] {
    sim.schedule_after(SimTime::millis(500), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, SimTime::millis(1500));
}

TEST(SimulatorTest, ClockVisibleDuringCallback) {
  Simulator sim;
  SimTime seen;
  sim.schedule_at(SimTime::micros(42), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime::micros(42));
}

TEST(SimulatorTest, PastSchedulingRejected) {
  Simulator sim;
  sim.schedule_at(SimTime::seconds(1), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::millis(1), [] {}), CheckFailure);
  EXPECT_THROW(sim.schedule_after(SimTime::millis(-1), [] {}), CheckFailure);
}

TEST(SimulatorTest, NullCallbackRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_after(SimTime::zero(), nullptr), CheckFailure);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventHandle h =
      sim.schedule_at(SimTime::millis(1), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelIsIdempotent) {
  Simulator sim;
  const EventHandle h = sim.schedule_at(SimTime::millis(1), [] {});
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(SimulatorTest, CancelAfterFireIsNoop) {
  Simulator sim;
  const EventHandle h = sim.schedule_at(SimTime::millis(1), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(h));
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime::millis(1), [&] { ++count; });
  sim.schedule_at(SimTime::millis(2), [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(SimTime::millis(10), [&] { fired.push_back(10); });
  sim.schedule_at(SimTime::millis(20), [&] { fired.push_back(20); });
  sim.schedule_at(SimTime::millis(30), [&] { fired.push_back(30); });
  sim.run_until(SimTime::millis(20));
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(sim.now(), SimTime::millis(20));
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{10, 20, 30}));
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(sim.now(), SimTime::seconds(5));
}

TEST(SimulatorTest, RunUntilSkipsCancelledHead) {
  Simulator sim;
  bool fired = false;
  const EventHandle h = sim.schedule_at(SimTime::millis(1), [&] { fired = true; });
  sim.schedule_at(SimTime::millis(5), [] {});
  EXPECT_TRUE(sim.cancel(h));
  sim.run_until(SimTime::millis(2));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), SimTime::millis(2));
}

TEST(SimulatorTest, EventsScheduledFromCallbackRun) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_after(SimTime::micros(1), chain);
  };
  sim.schedule_after(SimTime::zero(), chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), SimTime::micros(99));
}

TEST(SimulatorTest, ZeroDelaySelfChainingTerminates) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 1'000) sim.schedule_after(SimTime::zero(), chain);
  };
  sim.schedule_after(SimTime::zero(), chain);
  sim.run();
  EXPECT_EQ(count, 1'000);
  EXPECT_EQ(sim.now(), SimTime::zero());
}

TEST(SimulatorTest, ExecutedCounterCountsFiredOnly) {
  Simulator sim;
  sim.schedule_at(SimTime::millis(1), [] {});
  const EventHandle h = sim.schedule_at(SimTime::millis(2), [] {});
  EXPECT_TRUE(sim.cancel(h));
  sim.run();
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(SimulatorTest, PendingTracksOutstanding) {
  Simulator sim;
  sim.schedule_at(SimTime::millis(1), [] {});
  const EventHandle h = sim.schedule_at(SimTime::millis(2), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, RepeatedScheduleCancelKeepsQueueBounded) {
  // Regression: cancel() used to leave the QueueEntry in the priority queue
  // forever, so a periodic LB re-arming a timer (schedule, cancel, schedule
  // again) grew the queue without bound. Stale entries are now compacted
  // once they outnumber the live ones.
  Simulator sim;
  EventHandle armed;
  int fired = 0;
  for (int i = 0; i < 100'000; ++i) {
    if (armed.valid()) {
      EXPECT_TRUE(sim.cancel(armed));
    }
    armed = sim.schedule_at(SimTime::seconds(1000) + SimTime::millis(i),
                            [&fired] { ++fired; });
    ASSERT_LE(sim.queue_size(), 512u) << "at cycle " << i;
    ASSERT_EQ(sim.pending(), 1u);
  }
  sim.run();
  EXPECT_EQ(fired, 1);  // only the last armed timer survives
  EXPECT_EQ(sim.executed(), 1u);
  EXPECT_EQ(sim.queue_size(), 0u);
}

TEST(SimulatorTest, CompactionPreservesLiveEventsAndOrder) {
  // Interleave long-lived events with heavy schedule/cancel churn; every
  // live event must still fire, in time order, despite compaction passes.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 200; ++i)
    sim.schedule_at(SimTime::millis(10 * (i + 1)),
                    [&order, i] { order.push_back(i); });
  for (int i = 0; i < 10'000; ++i)
    ASSERT_TRUE(sim.cancel(sim.schedule_at(SimTime::seconds(100), [] {})));
  EXPECT_LE(sim.queue_size(), 1024u);
  sim.run();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, RunUntilInterleavedWithScheduleAtNow) {
  // Regression: run_until() used to set now_ = t unconditionally after the
  // loop; interleaving it with schedule_at(now()) must never let the clock
  // pass an event that has not executed yet.
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(SimTime::millis(10), [&] {
    fired.push_back(10);
    // Same-time follow-up scheduled while run_until is draining t=10ms.
    sim.schedule_at(sim.now(), [&] { fired.push_back(11); });
  });
  sim.run_until(SimTime::millis(10));
  EXPECT_EQ(fired, (std::vector<int>{10, 11}));
  EXPECT_EQ(sim.now(), SimTime::millis(10));
  EXPECT_EQ(sim.pending(), 0u);

  // A later boundary with a pending event exactly on it behaves the same.
  sim.schedule_at(SimTime::millis(20), [&] {
    fired.push_back(20);
    sim.schedule_after(SimTime::zero(), [&] { fired.push_back(21); });
  });
  sim.run_until(SimTime::millis(25));
  EXPECT_EQ(fired, (std::vector<int>{10, 11, 20, 21}));
  EXPECT_EQ(sim.now(), SimTime::millis(25));
  // Scheduling at the post-run_until clock still works (not "in the past").
  bool tail = false;
  sim.schedule_at(sim.now(), [&] { tail = true; });
  sim.run();
  EXPECT_TRUE(tail);
}

TEST(SimulatorTest, StaleHandleOnRecycledSlotIsRejected) {
  // A fired event's slot goes back on the free list; the very next
  // schedule reuses it at a bumped generation. Cancelling the stale handle
  // must fail and must NOT cancel the new occupant.
  Simulator sim;
  bool first = false;
  const EventHandle stale =
      sim.schedule_at(SimTime::millis(1), [&] { first = true; });
  sim.run();
  EXPECT_TRUE(first);
  EXPECT_EQ(sim.slot_count(), 1u);  // arena has exactly one slot to recycle

  bool second = false;
  const EventHandle fresh =
      sim.schedule_at(SimTime::millis(2), [&] { second = true; });
  EXPECT_EQ(sim.slot_count(), 1u);  // same slot, new generation
  EXPECT_FALSE(sim.cancel(stale));  // generation mismatch: rejected
  EXPECT_EQ(sim.pending(), 1u);     // the new occupant is untouched
  sim.run();
  EXPECT_TRUE(second);
  EXPECT_FALSE(sim.cancel(fresh));  // fired; its handle is stale too now
}

TEST(SimulatorTest, CancelledSlotRecycledHandleIsRejected) {
  // Same recycling scenario, but the slot is freed via cancel() rather
  // than firing.
  Simulator sim;
  const EventHandle a = sim.schedule_at(SimTime::millis(1), [] {});
  EXPECT_TRUE(sim.cancel(a));
  bool fired = false;
  sim.schedule_at(SimTime::millis(1), [&] { fired = true; });
  EXPECT_EQ(sim.slot_count(), 1u);
  EXPECT_FALSE(sim.cancel(a));  // stale handle on the recycled slot
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, TraceHookSeesExecutedEventsInOrder) {
  Simulator sim;
  std::vector<std::pair<SimTime, std::uint64_t>> trace;
  sim.set_trace_hook(
      [&](SimTime t, std::uint64_t seq) { trace.emplace_back(t, seq); });
  sim.schedule_at(SimTime::millis(2), [] {});
  const EventHandle h = sim.schedule_at(SimTime::millis(1), [] {});
  sim.schedule_at(SimTime::millis(1), [] {});
  EXPECT_TRUE(sim.cancel(h));  // cancelled events never reach the hook
  sim.run();
  ASSERT_EQ(trace.size(), 2u);
  // Sequence numbers record SCHEDULING order (1-based), so the 1ms
  // survivor is seq 3 (the cancelled one was seq 2) and the 2ms event,
  // scheduled first, is seq 1.
  EXPECT_EQ(trace[0], std::make_pair(SimTime::millis(1), std::uint64_t{3}));
  EXPECT_EQ(trace[1], std::make_pair(SimTime::millis(2), std::uint64_t{1}));
}

TEST(SimulatorTest, ManyEventsStressDeterministic) {
  auto run_once = [] {
    Simulator sim;
    std::uint64_t checksum = 0;
    for (int i = 0; i < 5'000; ++i) {
      // Pseudo-random but fixed times.
      const auto t = SimTime::nanos((i * 2654435761u) % 1'000'000);
      sim.schedule_at(t, [&checksum, i] { checksum = checksum * 31 + static_cast<std::uint64_t>(i); });
    }
    sim.run();
    return checksum;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- Same-instant lane -----------------------------------------------------

// The full ordering key of one scheduled event, as the engine assigns it:
// seq counts schedule_* calls from 1.
struct LaneKey {
  SimTime time;
  SimTime stamp;
  std::uint64_t rank;
  std::uint64_t seq;
  bool operator<(const LaneKey& o) const {
    return std::tie(time, stamp, rank, seq) <
           std::tie(o.time, o.stamp, o.rank, o.seq);
  }
  bool operator==(const LaneKey& o) const {
    return std::tie(time, stamp, rank, seq) ==
           std::tie(o.time, o.stamp, o.rank, o.seq);
  }
};

// Drives one engine through a seeded mix of same-instant, zero-delay,
// future, stamped and ranked schedules, cancels and mid-callback rank
// overrides. Every key is drawn at or after the key of the event that
// schedules it (ranks only ever rise within a callback), so a correct
// engine fires exactly the live keys in sorted order. Returns
// {fired, reference}.
std::pair<std::vector<LaneKey>, std::vector<LaneKey>> run_lane_mix(
    std::uint64_t seed) {
  Simulator sim;
  Rng rng{seed};
  std::vector<LaneKey> keys;  // index = seq - 1
  std::vector<EventHandle> handles;
  std::vector<bool> cancelled;
  std::vector<LaneKey> fired;
  LaneKey running{SimTime::zero(), SimTime::zero(), 0, 0};
  std::size_t budget = 3000;

  // Schedules one event keyed at or after `running` (the firing event's
  // key, or the last fired key between drives).
  bool in_callback = false;
  std::function<void()> spawn;
  const auto callback = [&](std::uint64_t seq) {
    return [&, seq] {
      const LaneKey me = keys[seq - 1];
      in_callback = true;
      EXPECT_EQ(sim.now(), me.time);
      EXPECT_EQ(sim.current_rank(), me.rank);
      fired.push_back(me);
      running = me;
      const auto children = rng.uniform_int(0, 3);
      for (std::int64_t c = 0; c < children; ++c) {
        if (rng.uniform_int(0, 5) == 0)
          sim.set_current_rank(
              sim.current_rank() +
              static_cast<std::uint64_t>(rng.uniform_int(0, 3)));
        spawn();
      }
      if (rng.uniform_int(0, 7) == 0 && !handles.empty()) {
        const auto victim = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
        if (sim.cancel(handles[victim])) cancelled[victim] = true;
      }
      if (rng.uniform_int(0, 63) == 0) sim.validate_integrity();
      in_callback = false;
    };
  };
  spawn = [&] {
    if (budget == 0) return;
    --budget;
    const SimTime now = sim.now();
    const std::uint64_t seq = keys.size() + 1;
    // Outside a callback the rank is 0, which may sort before the last
    // fired key at this instant: such schedules go to a later instant.
    const std::int64_t min_delay =
        !in_callback && now == running.time ? 1 : 0;
    const SimTime delay = rng.uniform_int(0, 2) == 0
                              ? SimTime::nanos(min_delay)
                              : SimTime::nanos(rng.uniform_int(min_delay, 3));
    const SimTime t = now + delay;
    // Same-instant keys must not sort before the running key.
    const SimTime low = t == running.time ? running.stamp : SimTime::zero();
    EventHandle h;
    LaneKey key{t, now, sim.current_rank(), seq};
    switch (rng.uniform_int(0, 3)) {
      case 0:
        h = delay.is_zero() && rng.uniform_int(0, 1) == 0
                ? sim.schedule_at(now, callback(seq))
                : sim.schedule_after(delay, callback(seq));
        break;
      case 1:
        key.stamp = SimTime::nanos(rng.uniform_int(low.ns(), now.ns()));
        if (key.stamp == running.stamp && t == running.time &&
            key.rank < running.rank)
          key.stamp = now;
        h = sim.schedule_at_stamped(t, key.stamp, callback(seq));
        break;
      default: {
        key.stamp = SimTime::nanos(rng.uniform_int(low.ns(), now.ns()));
        key.rank = static_cast<std::uint64_t>(rng.uniform_int(0, 7));
        if (t == running.time && key.stamp == running.stamp &&
            key.rank < running.rank)
          key.rank = running.rank;
        h = sim.schedule_at_ranked(t, key.stamp, key.rank, callback(seq));
        break;
      }
    }
    keys.push_back(key);
    handles.push_back(h);
    cancelled.push_back(false);
  };

  for (int i = 0; i < 16; ++i) spawn();
  while (sim.pending() > 0) {
    if (rng.uniform_int(0, 3) == 0) {
      sim.run_until(sim.now() + SimTime::nanos(rng.uniform_int(0, 2)));
      // Between drives the clock may sit past the last fired key; new
      // top-level schedules then start a fresh instant.
      if (sim.now() > running.time)
        running = LaneKey{sim.now(), SimTime::zero(), 0, 0};
      for (int i = 0; i < 2; ++i) spawn();
    } else {
      EXPECT_TRUE(sim.step());
    }
  }
  sim.validate_integrity();
  std::vector<LaneKey> reference;
  for (std::size_t i = 0; i < keys.size(); ++i)
    if (!cancelled[i]) reference.push_back(keys[i]);
  std::sort(reference.begin(), reference.end());
  return {fired, reference};
}

TEST(SimulatorLaneTest, SeededMixFiresInReferenceKeyOrder) {
  // The engine's own monotone-order check runs on every fired event.
  ValidationScope validation{true};
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    const auto [fired, reference] = run_lane_mix(seed);
    ASSERT_GT(fired.size(), 100u) << "seed " << seed;
    ASSERT_EQ(fired.size(), reference.size()) << "seed " << seed;
    for (std::size_t i = 0; i < fired.size(); ++i)
      ASSERT_TRUE(fired[i] == reference[i])
          << "seed " << seed << ": event " << i << " fired seq "
          << fired[i].seq << ", reference seq " << reference[i].seq;
  }
}

TEST(SimulatorLaneTest, SameInstantEventsInterleaveWithHeapByKey) {
  // A ranked heap event at the current instant must fire between lane
  // entries exactly where its key sorts.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::millis(1), [&] {
    sim.schedule_after(SimTime::zero(), [&] { order.push_back(1); });
    sim.set_current_rank(5);
    sim.schedule_after(SimTime::zero(), [&] { order.push_back(3); });
    // Rank 2 sorts before the lane tail (rank 5): it goes to the heap and
    // still fires second.
    sim.schedule_at_ranked(sim.now(), sim.now(), 2,
                           [&] { order.push_back(2); });
    // An older stamp sorts before every lane entry.
    sim.schedule_at_stamped(sim.now(), SimTime::zero(),
                            [&] { order.push_back(0); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorLaneTest, CancelledLaneEntryNeverFires) {
  Simulator sim;
  std::vector<int> fired;
  // now() == 0, so these three land in the same-instant lane.
  sim.schedule_at(SimTime::zero(), [&] { fired.push_back(0); });
  const EventHandle doomed =
      sim.schedule_at(SimTime::zero(), [&] { fired.push_back(1); });
  sim.schedule_after(SimTime::zero(), [&] { fired.push_back(2); });
  EXPECT_TRUE(sim.cancel(doomed));
  EXPECT_FALSE(sim.cancel(doomed));
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.queue_size(), 3u);  // the stale entry waits in the lane
  sim.validate_integrity();
  EXPECT_EQ(sim.next_live_time(), SimTime::zero());
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 2}));
  EXPECT_EQ(sim.queue_size(), 0u);
  sim.validate_integrity();
}

TEST(SimulatorLaneTest, LaneCompactionKeepsOrder) {
  // Cancelling most of a large lane triggers compaction, which must keep
  // the survivors in FIFO order.
  Simulator sim;
  std::vector<int> fired;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 400; ++i)
    handles.push_back(
        sim.schedule_at(SimTime::zero(), [&fired, i] { fired.push_back(i); }));
  for (int i = 0; i < 400; ++i)
    if (i % 5 != 0) {
      EXPECT_TRUE(sim.cancel(handles[static_cast<std::size_t>(i)]));
    }
  EXPECT_LT(sim.queue_size(), 400u);  // compacted at least once
  sim.validate_integrity();
  sim.run();
  ASSERT_EQ(fired.size(), 80u);
  for (std::size_t k = 0; k < fired.size(); ++k)
    EXPECT_EQ(fired[k], static_cast<int>(5 * k));
}

TEST(SimulatorLaneTest, RewindAndWindowsSeeLaneEntries) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(SimTime::zero(), [&] { ran = true; });
  // run_before(0) owns no instant, so the lane entry stays pending.
  sim.run_before(SimTime::zero());
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.next_live_time(), SimTime::zero());
  sim.run_before(SimTime::nanos(1));
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), SimTime::nanos(1));
  EXPECT_EQ(sim.pending(), 0u);
  sim.rewind_clock(SimTime::zero());
  EXPECT_EQ(sim.now(), SimTime::zero());
}

}  // namespace
}  // namespace cloudlb
