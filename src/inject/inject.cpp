#include "inject/inject.hpp"

#include <cstdlib>
#include <cstring>

#include "obs/thread_ctx.hpp"

namespace icilk::inject {

namespace {

/// splitmix64-style finalizer over (seed, stream, counter). Pure: the
/// whole injection schedule of a run is a function of the seed and the
/// per-stream decision counts — no clocks, no addresses, no thread ids.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t n) noexcept {
  std::uint64_t x = seed ^ (0x9E3779B97F4A7C15ull * (stream + 1)) ^
                    (n * 0xBF58476D1CE4E5B9ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Actions eligible at each point; a hit picks uniformly (unless the
/// config forces one). Menus keep nonsense out — e.g. no short read on
/// accept, no ECONNRESET from a scheduler crosspoint.
struct Menu {
  Action acts[5];
  int n;
};

constexpr Menu kMenus[kPointCount] = {
    /*kSyscallRead*/ {{Action::kShortIo, Action::kEagain, Action::kEintr,
                       Action::kConnReset, Action::kDelay},
                      5},
    /*kSyscallWrite*/
    {{Action::kShortIo, Action::kEagain, Action::kEintr, Action::kConnReset,
      Action::kDelay},
     5},
    /*kSyscallAccept*/ {{Action::kEagain, Action::kEintr, Action::kDelay}, 3},
    /*kEpollDispatch*/ {{Action::kForce, Action::kDelay}, 2},
    /*kTimerFire*/ {{Action::kDelay}, 1},
    /*kSteal*/ {{Action::kYield, Action::kDelay}, 2},
    /*kMug*/ {{Action::kYield, Action::kDelay}, 2},
    /*kAbandonCheck*/ {{Action::kForce}, 1},
    /*kSuspend*/ {{Action::kYield, Action::kDelay}, 2},
    /*kResumePublish*/ {{Action::kDelay, Action::kYield}, 2},
    /*kPromptMask*/ {{Action::kForce}, 1},
};

/// Per-thread cache of (engine serial -> stream) so decide() takes no
/// lock after a thread's first decision on an engine.
struct TlsStream {
  std::uint64_t serial = 0;
  void* stream = nullptr;
};
thread_local TlsStream tls_stream;

std::atomic<std::uint64_t> g_engine_serial{1};

// Probes in flight through Engine::probe_slow. uninstall() spins on this
// to quiesce before letting the caller destroy the engine.
std::atomic<std::uint64_t> g_inflight{0};

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 0);
}

}  // namespace

const char* point_name(Point p) noexcept {
  switch (p) {
    case Point::kSyscallRead:
      return "syscall_read";
    case Point::kSyscallWrite:
      return "syscall_write";
    case Point::kSyscallAccept:
      return "syscall_accept";
    case Point::kEpollDispatch:
      return "epoll_dispatch";
    case Point::kTimerFire:
      return "timer_fire";
    case Point::kSteal:
      return "steal";
    case Point::kMug:
      return "mug";
    case Point::kAbandonCheck:
      return "abandon_check";
    case Point::kSuspend:
      return "suspend";
    case Point::kResumePublish:
      return "resume_publish";
    case Point::kPromptMask:
      return "prompt_mask";
    case Point::kCount:
      break;
  }
  return "?";
}

const char* action_name(Action a) noexcept {
  switch (a) {
    case Action::kNone:
      return "none";
    case Action::kShortIo:
      return "short_io";
    case Action::kEagain:
      return "eagain";
    case Action::kEintr:
      return "eintr";
    case Action::kConnReset:
      return "conn_reset";
    case Action::kDelay:
      return "delay";
    case Action::kYield:
      return "yield";
    case Action::kForce:
      return "force";
    case Action::kCount:
      break;
  }
  return "?";
}

Config Config::from_env(Config base) {
  base.seed = env_u64("ICILK_INJECT_SEED", base.seed);
  if (const char* v = std::getenv("ICILK_INJECT_RATE");
      v != nullptr && *v != '\0') {
    base.set_all_rates(
        static_cast<std::uint32_t>(std::strtoul(v, nullptr, 0)));
  }
  base.max_delay_spins = static_cast<std::uint32_t>(
      env_u64("ICILK_INJECT_DELAY_SPINS", base.max_delay_spins));
  return base;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

std::atomic<Engine*> Engine::active_{nullptr};

Engine::Engine(const Config& cfg)
    : cfg_(cfg),
      serial_(g_engine_serial.fetch_add(1, std::memory_order_relaxed)) {}

Engine::~Engine() { uninstall(); }

void Engine::install() noexcept {
  Engine* expected = nullptr;
  active_.compare_exchange_strong(expected, this,
                                  std::memory_order_seq_cst);
}

void Engine::uninstall() noexcept {
  Engine* expected = this;
  if (!active_.compare_exchange_strong(expected, nullptr,
                                       std::memory_order_seq_cst)) {
    return;
  }
  // Quiesce. Any probe that will dereference this engine incremented
  // g_inflight before loading the pointer (both seq_cst): if its load
  // preceded our swap, its increment is visible here; if not, it saw
  // nullptr. So once the count reads zero, no decide() is running and
  // none can start — the caller may destroy the engine.
  while (g_inflight.load(std::memory_order_acquire) != 0) ::sched_yield();
}

Outcome Engine::probe_slow(Point p) noexcept {
  g_inflight.fetch_add(1, std::memory_order_seq_cst);
  Engine* e = active_.load(std::memory_order_seq_cst);
  Outcome o{};
  if (e != nullptr) o = e->decide(p);
  g_inflight.fetch_sub(1, std::memory_order_release);
  return o;
}

Outcome Engine::eval(const Config& cfg, std::uint32_t stream,
                     std::uint64_t n, Point p) noexcept {
  const int pi = static_cast<int>(p);
  const std::uint32_t ppm = cfg.rate_ppm[pi];
  if (ppm == 0) return {};
  const std::uint64_t u = mix(cfg.seed, stream, n);
  if (u % 1000000u >= ppm) return {};
  Action a = cfg.force_action[pi];
  if (a == Action::kNone) {
    const Menu& m = kMenus[pi];
    a = m.acts[(u >> 20) % static_cast<std::uint64_t>(m.n)];
  }
  std::uint32_t arg = 0;
  if (a == Action::kDelay) {
    const std::uint32_t bound = cfg.max_delay_spins ? cfg.max_delay_spins : 1;
    arg = 1 + static_cast<std::uint32_t>((u >> 32) % bound);
  }
  return {a, arg};
}

Engine::Stream& Engine::this_stream() {
  if (tls_stream.serial == serial_) {
    return *static_cast<Stream*>(tls_stream.stream);
  }
  std::lock_guard<std::mutex> g(mu_);
  auto s = std::make_unique<Stream>();
  s->id = next_stream_id_++;
  Stream& ref = *s;
  streams_.push_back(std::move(s));
  tls_stream = {serial_, &ref};
  return ref;
}

void Engine::bind_stream(std::uint32_t id) {
  if (tls_stream.serial == serial_ &&
      static_cast<Stream*>(tls_stream.stream)->id == id) {
    return;
  }
  std::lock_guard<std::mutex> g(mu_);
  for (auto& s : streams_) {
    if (s->id == id) {
      tls_stream = {serial_, s.get()};
      return;
    }
  }
  auto s = std::make_unique<Stream>();
  s->id = id;
  if (id >= next_stream_id_) next_stream_id_ = id + 1;
  Stream& ref = *s;
  streams_.push_back(std::move(s));
  tls_stream = {serial_, &ref};
}

Outcome Engine::decide(Point p) noexcept {
  Stream& s = this_stream();
  const std::uint64_t n = s.counter.load(std::memory_order_relaxed);
  s.counter.store(n + 1, std::memory_order_relaxed);
  const Outcome out = eval(cfg_, s.id, n, p);
  if (out.action != Action::kNone) {
    injected_[static_cast<int>(p)].fetch_add(1, std::memory_order_relaxed);
    if (cfg_.record_decisions && s.log.size() < cfg_.max_log_entries) {
      s.log.push_back({n, p, out.action, out.arg});
    }
#if ICILK_INJECT_ENABLED
    // Into the calling thread's trace ring (obs::ThreadScope binds it).
    if (obs::TraceRing* ring = obs::thread_ctx().ring; ring != nullptr) {
      ring->record(
          obs::EventKind::kInject, static_cast<std::uint16_t>(p),
          (static_cast<std::uint32_t>(out.action) << 24) |
              (out.arg & 0x00FFFFFFu));
    }
#endif
  }
  return out;
}

std::uint64_t Engine::decisions() const noexcept {
  std::lock_guard<std::mutex> g(mu_);
  std::uint64_t total = 0;
  for (const auto& s : streams_) {
    total += s->counter.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Engine::injected() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : injected_) {
    total += c.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<Decision> Engine::stream_log(std::uint32_t id) const {
  std::lock_guard<std::mutex> g(mu_);
  for (const auto& s : streams_) {
    if (s->id == id) return s->log;
  }
  return {};
}

std::size_t Engine::stream_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return streams_.size();
}

// ---------------------------------------------------------------------------
// Hook helpers
// ---------------------------------------------------------------------------

void spin_delay(std::uint32_t iters) noexcept {
  for (std::uint32_t i = 0; i < iters; ++i) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }
}

#if ICILK_INJECT_ENABLED

Outcome probe_active(Point p) noexcept { return Engine::probe_slow(p); }

#endif  // ICILK_INJECT_ENABLED

}  // namespace icilk::inject
