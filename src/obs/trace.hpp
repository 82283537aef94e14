// Lock-free scheduler event tracing (the observability layer's raw feed).
//
// Design constraints, in order:
//   1. Hot-path cost must be negligible: a disabled sink costs one relaxed
//      load and a predictable branch; an enabled one adds a tick stamp and
//      two relaxed atomic stores into a preallocated ring.
//   2. Single-writer discipline: every ring has exactly one writing thread
//      (a worker, or one reactor I/O thread). Readers (exporters) run
//      concurrently but only promise a *consistent prefix* — a record being
//      overwritten mid-read is detected by kind-range validation and
//      dropped, never mis-decoded into UB (slots are pairs of relaxed
//      atomics, so there is no data race even under TSan).
//   3. Compile-out: with -DICILK_OBS=OFF (obs/compiled_in.hpp) record()
//      compiles to nothing, for the fig6-style waste/overhead runs that
//      must match the untraced seed.
//
// Records are fixed-size (16 bytes): a raw tick stamp (see clock.hpp) plus
// a packed (kind, level, arg) word. The TraceSink owns all rings, the
// global enable flag, and the Chrome trace_event JSON exporter — the
// emitted file loads directly in chrome://tracing and Perfetto.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "concurrent/clock.hpp"
#include "obs/compiled_in.hpp"

namespace icilk::obs {

/// The scheduler event taxonomy (documented in DESIGN.md "Observability").
enum class EventKind : std::uint16_t {
  kSpawn = 0,     ///< spawn/fut_create pushed a stealable parent
  kSteal,         ///< thief took a topmost continuation
  kMug,           ///< thief took over a resumable deque whole
  kAbandon,       ///< worker abandoned its deque for a higher priority
  kSuspend,       ///< deque suspended (blocked get/sync)
  kResume,        ///< a worker resumed a woken deque in place
  kSleepBegin,    ///< worker began an idle condvar wait
  kSleepEnd,      ///< worker woke from the idle wait
  kIoSubmit,      ///< I/O operation armed in the reactor (would block)
  kIoComplete,    ///< reactor completed an armed operation
  kTimerFire,     ///< reactor fired a sleep timer
  kDequeDead,     ///< active deque exhausted and died
  kAcquireFail,   ///< acquire probe found a pool/bit empty
  kInject,        ///< fault injection fired (level = inject::Point,
                  ///< arg = action << 24 | delay-arg); see src/inject/
  kReqBegin,      ///< request began (level = priority, arg = low 32 bits
                  ///< of the request id — the Chrome-trace flow id)
  kReqPhase,      ///< request phase transition (level = ReqPhase,
                  ///< arg = request id low bits); see obs/reqtrace.hpp
  kReqEnd,        ///< request completed (level = priority, arg = id bits)
  kCount          ///< sentinel; not a real event
};

/// Stable lowercase name for export ("spawn", "steal", ...).
const char* event_name(EventKind k) noexcept;

struct TraceEvent {
  std::uint64_t tick = 0;     ///< now_ticks() at record time
  EventKind kind = EventKind::kCount;
  std::uint16_t level = kNoLevel16;  ///< priority level, or kNoLevel16
  std::uint32_t arg = 0;      ///< kind-specific payload (fd, count, ...)

  static constexpr std::uint16_t kNoLevel16 = 0xffff;
};

/// Fixed-capacity single-writer ring. Overwrites the oldest record on wrap
/// (a trace keeps the *last* capacity() events, which is what you want when
/// attaching to a long-running server).
class TraceRing {
 public:
  TraceRing(std::size_t capacity_pow2, const std::atomic<bool>* enabled,
            std::string name, int tid);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  const std::string& name() const noexcept { return name_; }
  int tid() const noexcept { return tid_; }
  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Writer-side: records one event. Only the owning thread may call this.
  void record(EventKind k, std::uint16_t level = TraceEvent::kNoLevel16,
              std::uint32_t arg = 0) noexcept {
#if ICILK_OBS_ENABLED
    if (!enabled_->load(std::memory_order_relaxed)) return;
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[h & mask_];
    s.stamp.store(now_ticks(), std::memory_order_relaxed);
    s.packed.store(pack(k, level, arg), std::memory_order_relaxed);
    head_.store(h + 1, std::memory_order_release);
#else
    (void)k;
    (void)level;
    (void)arg;
#endif
  }

  /// Total records ever written (wrapped ones included).
  std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Records lost to ring wrap (recorded but no longer retained). A
  /// nonzero value means exports/attribution are seeing a truncated
  /// window — surfaced in `stats icilk`, /metrics, and the Chrome trace
  /// metadata so silent drops can't skew analysis.
  std::uint64_t dropped() const noexcept {
    const std::uint64_t head = recorded();
    const std::uint64_t cap = capacity();
    return head > cap ? head - cap : 0;
  }

  /// Reader-side: copies the retained events, oldest first. Safe to call
  /// concurrently with the writer: records that were (or may have been)
  /// overwritten during the scan are dropped via a head re-read, so the
  /// result is always a consistent in-order window. Exact at quiescence
  /// except that a full (wrapped) ring conservatively yields
  /// capacity() - 1 events — the oldest slot can never be proven stable.
  std::vector<TraceEvent> snapshot() const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> stamp{0};
    std::atomic<std::uint64_t> packed{0};
  };

  static std::uint64_t pack(EventKind k, std::uint16_t level,
                            std::uint32_t arg) noexcept {
    return static_cast<std::uint64_t>(static_cast<std::uint16_t>(k)) |
           (static_cast<std::uint64_t>(level) << 16) |
           (static_cast<std::uint64_t>(arg) << 32);
  }

  const std::atomic<bool>* enabled_;
  std::uint64_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::string name_;
  int tid_;
};

/// Owns every ring of one runtime (workers, reactor threads), the shared
/// enable flag, and the exporters.
class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 15;

  explicit TraceSink(std::size_t ring_capacity = kDefaultCapacity,
                     bool enabled = false);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Registers (or returns) a ring named `name`; the returned reference is
  /// stable for the sink's lifetime. The caller thread becomes the ring's
  /// single writer by convention.
  TraceRing& acquire_ring(const std::string& name);

  void set_enabled(bool on) noexcept {
    enabled_.store(on && compiled_in(), std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  std::size_t ring_count() const;

  /// Per-ring write/drop totals (name, recorded, dropped) — the overflow
  /// surfacing consumed by `stats icilk` and the /metrics endpoint.
  struct RingStats {
    std::string name;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
  };
  std::vector<RingStats> ring_stats() const;

  /// Writes the whole trace as Chrome trace_event JSON (the object form:
  /// {"traceEvents": [...]}). Loadable by chrome://tracing and Perfetto.
  /// Sleep begin/end pairs become duration ("X") events; everything else
  /// is an instant ("i"). Timestamps are microseconds from the earliest
  /// retained event.
  void write_chrome_trace(std::ostream& os) const;

  /// write_chrome_trace into a string (tests, stats surfaces).
  std::string chrome_trace_json() const;

  /// Convenience: write_chrome_trace to `path`; false on I/O failure.
  bool write_chrome_trace_file(const std::string& path) const;

 private:
  std::size_t ring_capacity_;
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;  // ring registration + export iteration
  std::vector<std::unique_ptr<TraceRing>> rings_;
};

}  // namespace icilk::obs

/// Hot-path record macro: compiles to nothing with ICILK_OBS=OFF and to
/// a null-check + record otherwise. `ring` is a TraceRing* (may be null).
#if ICILK_OBS_ENABLED
#define ICILK_TRACE_RECORD(ring, kind, level, arg)             \
  do {                                                         \
    if ((ring) != nullptr) {                                   \
      (ring)->record((kind), static_cast<std::uint16_t>(level), \
                     static_cast<std::uint32_t>(arg));         \
    }                                                          \
  } while (0)
#else
#define ICILK_TRACE_RECORD(ring, kind, level, arg) \
  do {                                             \
  } while (0)
#endif
