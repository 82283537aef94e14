#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"

namespace icilk::obs {

const char* event_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::kSpawn:
      return "spawn";
    case EventKind::kSteal:
      return "steal";
    case EventKind::kMug:
      return "mug";
    case EventKind::kAbandon:
      return "abandon";
    case EventKind::kSuspend:
      return "suspend";
    case EventKind::kResume:
      return "resume";
    case EventKind::kSleepBegin:
      return "sleep_begin";
    case EventKind::kSleepEnd:
      return "sleep_end";
    case EventKind::kIoSubmit:
      return "io_submit";
    case EventKind::kIoComplete:
      return "io_complete";
    case EventKind::kTimerFire:
      return "timer_fire";
    case EventKind::kDequeDead:
      return "deque_dead";
    case EventKind::kAcquireFail:
      return "acquire_fail";
    case EventKind::kInject:
      return "inject";
    case EventKind::kReqBegin:
      return "req_begin";
    case EventKind::kReqPhase:
      return "req_phase";
    case EventKind::kReqEnd:
      return "req_end";
    case EventKind::kCount:
      break;
  }
  return "?";
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t c = 1;
  while (c < n) c <<= 1;
  return c;
}

}  // namespace

TraceRing::TraceRing(std::size_t capacity_pow2,
                     const std::atomic<bool>* enabled, std::string name,
                     int tid)
    : enabled_(enabled),
      mask_(round_up_pow2(std::max<std::size_t>(capacity_pow2, 2)) - 1),
      slots_(new Slot[mask_ + 1]),
      name_(std::move(name)),
      tid_(tid) {}

std::vector<TraceEvent> TraceRing::snapshot() const {
  std::vector<TraceEvent> out;
  std::vector<std::uint64_t> idx;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = mask_ + 1;
  const std::uint64_t first = head > cap ? head - cap : 0;
  out.reserve(static_cast<std::size_t>(head - first));
  idx.reserve(static_cast<std::size_t>(head - first));
  for (std::uint64_t i = first; i < head; ++i) {
    const Slot& s = slots_[i & mask_];
    TraceEvent ev;
    ev.tick = s.stamp.load(std::memory_order_relaxed);
    const std::uint64_t packed = s.packed.load(std::memory_order_relaxed);
    const std::uint16_t kind16 = static_cast<std::uint16_t>(packed & 0xffff);
    if (kind16 >= static_cast<std::uint16_t>(EventKind::kCount)) {
      continue;  // torn mid-store by a concurrent overwrite; drop
    }
    ev.kind = static_cast<EventKind>(kind16);
    ev.level = static_cast<std::uint16_t>((packed >> 16) & 0xffff);
    ev.arg = static_cast<std::uint32_t>(packed >> 32);
    out.push_back(ev);
    idx.push_back(i);
  }
  // A record published at logical index h overwrites slot h & mask_, i.e.
  // destroys logical index h - cap — and the writer may be mid-record at
  // h = head2 without having published h + 1 yet. head's release/acquire
  // ordering guarantees every write that raced with the scan has h <=
  // head2, so dropping logical indices <= head2 - cap leaves only records
  // that were stable for the whole scan (at the price of one conservative
  // drop at the ring's oldest edge when full).
  const std::uint64_t head2 = head_.load(std::memory_order_acquire);
  if (head2 >= cap) {
    const std::uint64_t lo = head2 - cap + 1;
    std::size_t drop = 0;
    while (drop < idx.size() && idx[drop] < lo) ++drop;
    out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(drop));
  }
  return out;
}

// ---------------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------------

TraceSink::TraceSink(std::size_t ring_capacity, bool enabled)
    : ring_capacity_(ring_capacity),
      enabled_(enabled && trace_compiled_in()) {}

TraceRing& TraceSink::acquire_ring(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  for (auto& r : rings_) {
    if (r->name() == name) return *r;
  }
  rings_.push_back(std::make_unique<TraceRing>(
      ring_capacity_, &enabled_, name, static_cast<int>(rings_.size())));
  return *rings_.back();
}

std::size_t TraceSink::ring_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return rings_.size();
}

std::vector<TraceSink::RingStats> TraceSink::ring_stats() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<RingStats> out;
  out.reserve(rings_.size());
  for (const auto& r : rings_) {
    out.push_back({r->name(), r->recorded(), r->dropped()});
  }
  return out;
}

void TraceSink::write_chrome_trace(std::ostream& os) const {
  std::lock_guard<std::mutex> g(mu_);

  // One pass to find the time origin so ts stays small and positive.
  std::vector<std::vector<TraceEvent>> snaps;
  snaps.reserve(rings_.size());
  std::uint64_t origin = UINT64_MAX;
  for (const auto& r : rings_) {
    snaps.push_back(r->snapshot());
    for (const TraceEvent& ev : snaps.back()) {
      origin = std::min(origin, ev.tick);
    }
  }
  if (origin == UINT64_MAX) origin = 0;
  const double us_per_tick = 1e6 / static_cast<double>(ticks_per_second());

  // Rendered in chunks so a large trace never sits in memory twice.
  std::string buf;
  JsonWriter w(buf);
  {
    auto doc = w.object();
    w.field("displayTimeUnit", "ms");
    auto events = w.array("traceEvents");
    for (const auto& r : rings_) {
      {
        auto e = w.object();
        w.field("name", "thread_name").field("ph", "M").field("pid", 0);
        w.field("tid", r->tid());
        auto args = w.object("args");
        w.field("name", r->name());
      }
      // Ring overflow metadata: a nonzero dropped count means this
      // thread's lane is a truncated window — consumers must not read
      // absence of events as absence of activity.
      auto e = w.object();
      w.field("name", "icilk_ring_stats").field("ph", "M").field("pid", 0);
      w.field("tid", r->tid());
      auto args = w.object("args");
      w.field("ring", r->name()).field("recorded", r->recorded());
      w.field("dropped", r->dropped());
    }

    for (std::size_t i = 0; i < rings_.size(); ++i) {
      const int tid = rings_[i]->tid();
      double sleep_begin_ts = -1.0;
      for (const TraceEvent& ev : snaps[i]) {
        if (buf.size() >= 64 * 1024) {
          os << buf;
          buf.clear();
        }
        const double ts = static_cast<double>(ev.tick - origin) * us_per_tick;
        if (ev.kind == EventKind::kSleepBegin) {
          sleep_begin_ts = ts;
          continue;
        }
        if (ev.kind == EventKind::kSleepEnd && sleep_begin_ts >= 0.0) {
          auto e = w.object();
          w.field("name", "sleep").field("cat", "sched").field("ph", "X");
          w.fixed("ts", sleep_begin_ts, 3).fixed("dur", ts - sleep_begin_ts, 3);
          w.field("pid", 0).field("tid", tid);
          sleep_begin_ts = -1.0;
          continue;
        }
        const bool req = ev.kind == EventKind::kReqBegin ||
                         ev.kind == EventKind::kReqPhase ||
                         ev.kind == EventKind::kReqEnd;
        if (req) {
          // Request spans render as a flow: one arrow chain per request
          // id, hopping across whichever lanes (workers, I/O threads)
          // touched it. Chrome/Perfetto match flows on (cat, name, id).
          const char* ph = ev.kind == EventKind::kReqBegin   ? "s"
                           : ev.kind == EventKind::kReqPhase ? "t"
                                                             : "f";
          auto e = w.object();
          w.field("name", "req").field("cat", "req").field("ph", ph);
          if (ev.kind == EventKind::kReqEnd) w.field("bp", "e");
          w.field("id", ev.arg).fixed("ts", ts, 3);
          w.field("pid", 0).field("tid", tid);
        }
        // An instant naming the event (for a request, the transition).
        auto e = w.object();
        w.field("name", event_name(ev.kind));
        w.field("cat", req ? "req" : "sched").field("ph", "i");
        w.fixed("ts", ts, 3).field("pid", 0).field("tid", tid).field("s", "t");
        auto args = w.object("args");
        if (req) {
          w.field("req", ev.arg).field("level", ev.level);
        } else {
          if (ev.level != TraceEvent::kNoLevel16) w.field("level", ev.level);
          w.field("arg", ev.arg);
        }
      }
    }
  }
  os << buf;
}

std::string TraceSink::chrome_trace_json() const {
  std::ostringstream os;
  write_chrome_trace(os);
  return os.str();
}

bool TraceSink::write_chrome_trace_file(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  write_chrome_trace(f);
  f.flush();
  return static_cast<bool>(f);
}

}  // namespace icilk::obs
