// Allocation audit for the simulator hot path. The slot arena plus the
// small-buffer-optimized callback storage promise that a warm simulator
// performs ZERO heap allocations per schedule→fire cycle as long as the
// capture fits Simulator::kInlineCallbackBytes. This binary replaces the
// global allocator with a counting shim and pins that promise.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstdint>
#include <new>

#include "machine/machine.h"
#include "sim/simulator.h"
#include "util/thread_pool.h"
#include "util/validate.h"
#include "vm/virtual_machine.h"

namespace {

std::atomic<std::size_t> g_news{0};
std::atomic<bool> g_armed{false};

void probe_arm() {
  g_news.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
}

std::size_t probe_disarm() {
  g_armed.store(false, std::memory_order_relaxed);
  return g_news.load(std::memory_order_relaxed);
}

}  // namespace

// Replacement global allocator: malloc-backed, counts while armed. Both
// new forms and all delete forms are replaced together, so every pointer
// freed here came from the std::malloc above — GCC cannot see that pairing
// across the replaced operators, hence the diagnostic suppression.
void* operator new(std::size_t size) {
  if (g_armed.load(std::memory_order_relaxed))
    g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace cloudlb {
namespace {

constexpr int kBatch = 256;

void warm_up(Simulator& sim) {
  // Grow the slot arena and the event heap to their steady-state
  // capacity so the measured region never resizes a vector.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < kBatch; ++i)
      sim.schedule_after(SimTime::nanos(i + 1), [] {});
    sim.run();
  }
}

TEST(SimAllocTest, WarmScheduleFireLoopIsAllocationFree) {
  Simulator sim;
  warm_up(sim);

  std::uint64_t fired = 0;
  probe_arm();
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < kBatch; ++i)
      sim.schedule_after(SimTime::nanos(i + 1), [&fired] { ++fired; });
    while (sim.step()) {
    }
  }
  const std::size_t allocs = probe_disarm();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(fired, 50u * kBatch);
}

TEST(SimAllocTest, ReservePresizesTheColdEngine) {
  // reserve(events, slots) replaces the warm-up loop: a *cold* engine
  // that was presized schedules its first full batch without touching
  // the allocator. This is the hint run_scenario_with() issues at setup.
  Simulator sim;
  sim.reserve(kBatch, kBatch);

  std::uint64_t fired = 0;
  probe_arm();
  for (int i = 0; i < kBatch; ++i)
    sim.schedule_after(SimTime::nanos(i + 1), [&fired] { ++fired; });
  while (sim.step()) {
  }
  const std::size_t allocs = probe_disarm();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kBatch));
}

TEST(SimAllocTest, FatInlineCaptureStaysAllocationFree) {
  // The widest capture the runtime schedules is ~56 bytes (message
  // delivery); a same-size synthetic capture must still ride inline.
  struct Payload {
    std::uint64_t words[6];  // 48 bytes + the 8-byte sink reference = 56
  };
  Simulator sim;
  warm_up(sim);

  std::uint64_t sink = 0;
  probe_arm();
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < kBatch; ++i) {
      Payload p{};
      p.words[0] = static_cast<std::uint64_t>(i);
      sim.schedule_after(SimTime::nanos(i + 1),
                         [&sink, p] { sink += p.words[0]; });
    }
    while (sim.step()) {
    }
  }
  const std::size_t allocs = probe_disarm();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sink, 50u * (kBatch * (kBatch - 1) / 2));
}

TEST(SimAllocTest, ScheduleCancelChurnIsAllocationFree) {
  // The zero-allocation promise covers the production configuration:
  // compaction auto-runs validate_integrity() when validation is on, and
  // the validator's O(slots) scratch is an accepted cost of validated
  // builds, not a warm-path regression.
  ValidationScope validation{false};
  Simulator sim;
  warm_up(sim);

  probe_arm();
  EventHandle armed;
  for (int i = 0; i < 10'000; ++i) {
    // Inside the allocation-probe window: discard instead of asserting
    // so the check machinery cannot perturb the count being measured.
    if (armed.valid()) static_cast<void>(sim.cancel(armed));
    armed = sim.schedule_after(SimTime::seconds(100), [] {});
  }
  const std::size_t allocs = probe_disarm();
  // Compaction passes shrink in place (std::erase_if) and the freed slot
  // is recycled immediately, so re-arming a timer never allocates.
  EXPECT_EQ(allocs, 0u);
  EXPECT_TRUE(sim.cancel(armed));
  sim.run();
}

TEST(SimAllocTest, OverBudgetCaptureFallsBackToHeap) {
  // Sanity check that the probe actually observes allocations: a capture
  // wider than Simulator::kInlineCallbackBytes must take the heap path.
  struct Huge {
    std::byte bytes[Simulator::kInlineCallbackBytes + 16];
  };
  static_assert(!Simulator::Callback::fits_inline<Huge>());
  Simulator sim;
  warm_up(sim);

  Huge huge{};
  probe_arm();
  sim.schedule_after(SimTime::nanos(1), [huge] { (void)huge; });
  const std::size_t allocs = probe_disarm();
  EXPECT_GE(allocs, 1u);
  sim.run();
}

TEST(SimAllocTest, WarmLaneIsAllocationFree) {
  // Same-instant bursts — a fan-out of zero-delay events, each delivering
  // once more at the same instant — run entirely through the lane. The
  // lane is not presized by reserve(): it grows in the first burst and
  // every later burst of that size reuses it without allocating.
  Simulator sim;
  sim.reserve(kBatch, kBatch);
  std::uint64_t fired = 0;
  const auto burst = [&] {
    for (int i = 0; i < kBatch / 2; ++i) {
      sim.schedule_after(SimTime::zero(), [&sim, &fired] {
        ++fired;
        sim.schedule_after(SimTime::zero(), [&fired] { ++fired; });
      });
    }
    while (sim.step()) {
    }
  };
  burst();  // grows the lane
  probe_arm();
  for (int round = 0; round < 50; ++round) burst();
  const std::size_t allocs = probe_disarm();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(fired, 51u * kBatch);
}

TEST(SimAllocTest, FatCaptureMovesThroughDemandWithoutAllocating) {
  // The move-only path: a 56-byte completion closure (the size of the
  // runtime's message-delivery capture) is handed to VirtualMachine::demand
  // by rvalue, parked in the core's request slot and moved into the
  // zero-delay completion event. One unmeasured demand sizes the core's
  // active set and completion scratch.
  struct Payload {
    std::uint64_t words[6];  // 48 bytes + the 8-byte sink reference = 56
  };
  Simulator sim;
  sim.reserve(kBatch, kBatch);
  Machine machine{sim, MachineConfig{.nodes = 1,
                                     .cores_per_node = 1,
                                     .core_speed_overrides = {}}};
  VirtualMachine vm{machine, "app", {0}};

  std::uint64_t sink = 0;
  vm.demand(0, SimTime::micros(1), [] {});
  while (sim.step()) {
  }
  probe_arm();
  for (std::uint64_t i = 0; i < kBatch; ++i) {
    Payload p{};
    p.words[0] = i;
    vm.demand(0, SimTime::micros(1), [&sink, p] { sink += p.words[0]; });
    while (sim.step()) {
    }
  }
  const std::size_t allocs = probe_disarm();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sink, static_cast<std::uint64_t>(kBatch) * (kBatch - 1) / 2);
}

TEST(SimAllocTest, WorkerTeamRoundsAreAllocationFree) {
  // Regression pin for the run_round signature change: the per-window
  // worker closure is borrowed through a FunctionRef, never type-erased
  // into an owning std::function (which heap-allocates for captures past
  // its small-buffer size). A warm team must run any number of rounds
  // with an arbitrarily wide capture without touching the allocator.
  WorkerTeam team{3};
  struct Wide {
    std::uint64_t lanes[16] = {};  // 128 bytes: past any SBO budget
  } wide;
  // One unmeasured round lets the OS finish any lazy thread setup.
  team.run_round([&wide](int worker) {
    wide.lanes[static_cast<std::size_t>(worker)] += 1;
  });

  probe_arm();
  for (int round = 0; round < 50; ++round) {
    team.run_round([&wide](int worker) {
      wide.lanes[static_cast<std::size_t>(worker)] += 1;
    });
  }
  const std::size_t allocs = probe_disarm();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(wide.lanes[0], 51u);
  EXPECT_EQ(wide.lanes[1], 51u);
  EXPECT_EQ(wide.lanes[2], 51u);
}

TEST(SimAllocTest, WarmDemandChainIsAllocationFree) {
  // The zero-allocation promise extends through the machine and VM
  // layers: a demand's completion callback is an engine Callback stored
  // inline in the core's per-context request slot, and the completion
  // scan reuses its scratch. Two VMs co-located on every core keep the
  // active sets churning (shares, reschedules, cancellations), as an
  // interfered application does.
  constexpr int kCores = 4;
  Simulator sim;
  Machine machine{sim, MachineConfig{.nodes = 1,
                                     .cores_per_node = kCores,
                                     .core_speed_overrides = {}}};
  const std::vector<CoreId> all{0, 1, 2, 3};
  VirtualMachine app{machine, "app", all};
  VirtualMachine bg{machine, "bg", all};

  struct Chain {
    VirtualMachine* vm;
    int vcpu;
    SimTime cost;
    std::uint64_t* done;
    std::uint64_t limit;
    void request() {
      vm->demand(vcpu, cost, [this] {
        if (++*done < limit) request();
      });
    }
  };
  std::uint64_t done = 0;
  std::vector<Chain> chains;
  for (int v = 0; v < kCores; ++v) {
    chains.push_back(Chain{&app, v, SimTime::micros(1000), &done, 0});
    chains.push_back(Chain{&bg, v, SimTime::micros(1500), &done, 0});
  }
  const auto run_chains = [&](std::uint64_t completions) {
    done = 0;
    for (Chain& chain : chains) chain.limit = completions;
    for (Chain& chain : chains) chain.request();
    while (sim.step()) {
    }
  };

  run_chains(2'000);  // warm-up: grows the arena, heap and scratch
  probe_arm();
  run_chains(20'000);
  const std::size_t allocs = probe_disarm();
  EXPECT_EQ(allocs, 0u);
  EXPECT_GE(done, 20'000u);
}

}  // namespace
}  // namespace cloudlb
