// TraceRing: wraparound retention, single-writer ordering under a
// concurrent reader, the runtime enable flag, and the compile-out gate.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace icilk::obs {
namespace {

TEST(TraceRing, RecordsAndSnapshots) {
  if (!compiled_in()) GTEST_SKIP() << "built with ICILK_OBS=OFF";
  TraceSink sink(/*ring_capacity=*/64, /*enabled=*/true);
  TraceRing& ring = sink.acquire_ring("w0");
  ring.record(EventKind::kSpawn, 3, 7);
  ring.record(EventKind::kSteal, 1, 0);

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kSpawn);
  EXPECT_EQ(events[0].level, 3);
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_EQ(events[1].kind, EventKind::kSteal);
  EXPECT_GE(events[1].tick, events[0].tick);
}

TEST(TraceRing, WraparoundKeepsLastCapacityEventsInOrder) {
  if (!compiled_in()) GTEST_SKIP() << "built with ICILK_OBS=OFF";
  constexpr std::size_t kCap = 64;
  TraceSink sink(kCap, true);
  TraceRing& ring = sink.acquire_ring("w0");
  ASSERT_EQ(ring.capacity(), kCap);

  constexpr std::uint32_t kTotal = 1000;  // ~15x capacity
  for (std::uint32_t i = 0; i < kTotal; ++i) {
    ring.record(EventKind::kSpawn, 0, i);
  }
  EXPECT_EQ(ring.recorded(), kTotal);

  const auto events = ring.snapshot();
  // A full ring yields capacity-1 events: the oldest slot is the one a
  // concurrent writer would overwrite next, so it is dropped.
  ASSERT_EQ(events.size(), kCap - 1);
  // The *last* records survive, oldest first, ending at the newest.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, kTotal - (kCap - 1) + i);
  }
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  if (!compiled_in()) GTEST_SKIP() << "built with ICILK_OBS=OFF";
  TraceSink sink(/*ring_capacity=*/100, true);
  EXPECT_EQ(sink.acquire_ring("w0").capacity(), 128u);
}

TEST(TraceRing, DisabledSinkRecordsNothing) {
  TraceSink sink(64, /*enabled=*/false);
  TraceRing& ring = sink.acquire_ring("w0");
  ring.record(EventKind::kSpawn, 0, 1);
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());

  sink.set_enabled(true);
  ring.record(EventKind::kSpawn, 0, 2);
  if (compiled_in()) {
    ASSERT_EQ(ring.snapshot().size(), 1u);
    EXPECT_EQ(ring.snapshot()[0].arg, 2u);
  } else {
    // Compiled out: set_enabled is forced to stay false.
    EXPECT_FALSE(sink.enabled());
    EXPECT_TRUE(ring.snapshot().empty());
  }
}

TEST(TraceRing, AcquireRingIsStableAndNamed) {
  TraceSink sink(64, true);
  TraceRing& a = sink.acquire_ring("worker0");
  TraceRing& b = sink.acquire_ring("io0");
  EXPECT_EQ(&sink.acquire_ring("worker0"), &a);
  EXPECT_EQ(sink.ring_count(), 2u);
  EXPECT_EQ(a.name(), "worker0");
  EXPECT_NE(a.tid(), b.tid());
}

// Single-writer ordering: one writer thread appends a monotone sequence;
// a concurrent reader snapshots repeatedly. Every snapshot must be a
// window of consecutive, strictly increasing sequence numbers — torn or
// reordered records would break monotonicity.
TEST(TraceRing, SnapshotsAreConsistentUnderConcurrentWrites) {
  if (!compiled_in()) GTEST_SKIP() << "built with ICILK_OBS=OFF";
  TraceSink sink(/*ring_capacity=*/256, true);
  TraceRing& ring = sink.acquire_ring("w0");

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint32_t seq = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ring.record(EventKind::kSpawn, 0, seq++);
    }
  });

  for (int iter = 0; iter < 200; ++iter) {
    const auto events = ring.snapshot();
    for (std::size_t i = 1; i < events.size(); ++i) {
      // Strictly increasing; gaps allowed only from dropped torn records.
      ASSERT_GT(events[i].arg, events[i - 1].arg)
          << "snapshot " << iter << " out of order at " << i;
      ASSERT_GE(events[i].tick, events[i - 1].tick);
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

TEST(TraceEvent, EventNamesAreStable) {
  EXPECT_STREQ(event_name(EventKind::kSpawn), "spawn");
  EXPECT_STREQ(event_name(EventKind::kSteal), "steal");
  EXPECT_STREQ(event_name(EventKind::kMug), "mug");
  EXPECT_STREQ(event_name(EventKind::kAbandon), "abandon");
  EXPECT_STREQ(event_name(EventKind::kIoComplete), "io_complete");
}

}  // namespace
}  // namespace icilk::obs
