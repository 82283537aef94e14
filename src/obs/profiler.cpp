#include "obs/profiler.hpp"

#include <execinfo.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "concurrent/clock.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "obs/thread_ctx.hpp"

namespace icilk::obs {

const char* prof_bucket_name(ProfBucket b) noexcept {
  switch (b) {
    case ProfBucket::kNone:
      return "none";
    case ProfBucket::kTask:
      return "task";
    case ProfBucket::kSchedLoop:
      return "sched_loop";
    case ProfBucket::kSteal:
      return "steal";
    case ProfBucket::kSleep:
      return "sleep";
    case ProfBucket::kPreOpCheck:
      return "pre_op_check";
    case ProfBucket::kReactorWait:
      return "reactor_wait";
    case ProfBucket::kReactorDrain:
      return "reactor_drain";
    case ProfBucket::kCount:
      break;
  }
  return "?";
}

const char* prof_thread_kind_name(ProfThreadKind k) noexcept {
  switch (k) {
    case ProfThreadKind::kWorker:
      return "worker";
    case ProfThreadKind::kIo:
      return "io";
    case ProfThreadKind::kOther:
      return "thread";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Per-thread state
// ---------------------------------------------------------------------------

namespace {

/// Single-writer sample ring: the writer is this thread's SIGPROF handler
/// (or sample_now on the same thread); the reader is stop(), which only
/// drains after disarming the timer and quiescing in_handler. No wrap:
/// a window fills at most `slots` samples and counts the overflow.
struct ProfRing {
  explicit ProfRing(int cap) : slots(static_cast<std::size_t>(cap)) {}
  std::vector<ProfSample> slots;
  std::atomic<std::uint32_t> n{0};
  std::atomic<std::uint64_t> dropped{0};
};

pid_t sys_gettid() noexcept {
  return static_cast<pid_t>(::syscall(SYS_gettid));
}

}  // namespace

struct ProfThreadEntry {
  pid_t tid = 0;
  ProfThreadKind kind = ProfThreadKind::kOther;
  int idx = 0;
  timer_t timer{};
  bool timer_ok = false;
  std::atomic<bool> live{true};  ///< false once the thread unregistered
  /// Armed window ring; null outside windows. The handler loads it with
  /// acquire AFTER bumping in_handler, so stop() can clear + wait.
  std::atomic<ProfRing*> ring{nullptr};
  std::atomic<int> in_handler{0};
  ProfRing* owned = nullptr;  ///< drained/deleted by stop() under reg_mu_
};

namespace {

#if defined(__x86_64__)
std::uintptr_t interrupted_pc(void* ucv) noexcept {
  return static_cast<std::uintptr_t>(
      static_cast<ucontext_t*>(ucv)->uc_mcontext.gregs[REG_RIP]);
}
#elif defined(__aarch64__)
std::uintptr_t interrupted_pc(void* ucv) noexcept {
  return static_cast<std::uintptr_t>(
      static_cast<ucontext_t*>(ucv)->uc_mcontext.pc);
}
#else
std::uintptr_t interrupted_pc(void*) noexcept { return 0; }
#endif

/// The shared capture path (handler + sample_now). `pc` = interrupted PC
/// when called from the handler (used to strip our own frames), 0 from
/// sample_now. Async-signal-safe by construction: backtrace() is primed
/// at Profiler construction so its lazy libgcc initialization (which
/// mallocs) has already happened on a normal stack.
void capture_sample(ProfThreadEntry* e, ProfRing* r,
                    std::uintptr_t pc) noexcept {
  const std::uint32_t i = r->n.load(std::memory_order_relaxed);
  if (i >= r->slots.size()) {
    r->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ProfSample& s = r->slots[i];
  s.ctx = thread_ctx().prof_word.load(std::memory_order_relaxed);
  s.kind = static_cast<std::uint8_t>(e->kind);
  s.truncated = 0;

  constexpr int kCap = ProfSample::kMaxFrames + 8;  // room for our frames
  void* raw[kCap];
  const int n = ::backtrace(raw, kCap);

  // Strip the handler/backtrace frames: everything above the signal frame.
  // The frame for the interrupted context carries the exact RIP (libgcc
  // marks signal frames, so it is not return-address-adjusted) — search
  // for it. Fallback: keep just the PC, so attribution still works.
  int start = 0;
  if (pc != 0) {
    start = -1;
    for (int j = 0; j < n; ++j) {
      if (reinterpret_cast<std::uintptr_t>(raw[j]) == pc) {
        start = j;
        break;
      }
    }
    if (start < 0) {
      s.frames[0] = pc;
      s.nframes = 1;
      r->n.store(i + 1, std::memory_order_release);
      return;
    }
  }
  int out = 0;
  for (int j = start; j < n && out < ProfSample::kMaxFrames; ++j) {
    s.frames[out++] = reinterpret_cast<std::uintptr_t>(raw[j]);
  }
  if (n - start > ProfSample::kMaxFrames) s.truncated = 1;
  if (n == kCap) s.truncated = 1;  // deeper than we even looked
  s.nframes = static_cast<std::uint16_t>(out);
  r->n.store(i + 1, std::memory_order_release);
}

extern "C" void prof_sigprof_handler(int, siginfo_t*, void* ucv) {
  ProfThreadEntry* e = thread_ctx().prof_entry;
  if (e == nullptr) return;
  const int saved_errno = errno;
  e->in_handler.fetch_add(1, std::memory_order_seq_cst);
  if (ProfRing* r = e->ring.load(std::memory_order_acquire)) {
    capture_sample(e, r, interrupted_pc(ucv));
  }
  e->in_handler.fetch_sub(1, std::memory_order_seq_cst);
  errno = saved_errno;
}

/// Installs the process-wide SIGPROF disposition (idempotent).
///
/// sa_mask policy (ISSUE 6 satellite): SIGUSR2 is blocked for the
/// handler's duration so a watchdog dump trigger can never nest inside a
/// backtrace; SIGPROF itself is blocked implicitly (no SA_NODEFER).
/// SA_RESTART limits EINTR fallout to the syscalls the kernel refuses to
/// restart (epoll_wait) — paths that already carry retry edges.
void install_sigprof() {
  static std::atomic<bool> installed{false};
  if (installed.exchange(true, std::memory_order_acq_rel)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = &prof_sigprof_handler;
  sigemptyset(&sa.sa_mask);
  sigaddset(&sa.sa_mask, SIGUSR2);
  sa.sa_flags = SA_RESTART | SA_SIGINFO;
  ::sigaction(SIGPROF, &sa, nullptr);
}

bool arm_timer(timer_t t, std::uint64_t period_ns) noexcept {
  itimerspec its{};
  its.it_interval.tv_sec = static_cast<time_t>(period_ns / 1000000000ull);
  its.it_interval.tv_nsec = static_cast<long>(period_ns % 1000000000ull);
  its.it_value = its.it_interval;
  return ::timer_settime(t, 0, &its, nullptr) == 0;
}

void disarm_timer(timer_t t) noexcept {
  itimerspec its{};
  ::timer_settime(t, 0, &its, nullptr);
}

}  // namespace

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

Profiler::Profiler(Config cfg) : cfg_(cfg) {
  if (cfg_.default_hz < 1) cfg_.default_hz = 99;
  if (cfg_.ring_slots < 64) cfg_.ring_slots = 64;
  if (cfg_.num_levels > MetricsRegistry::kMaxLevels) {
    cfg_.num_levels = MetricsRegistry::kMaxLevels;
  }
  // Prime backtrace() outside signal context: its first call lazily
  // initializes libgcc's unwinder (with allocation), which must never
  // happen inside the SIGPROF handler.
  void* dummy[4];
  ::backtrace(dummy, 4);
}

Profiler::~Profiler() {
  if (running()) stop();
  std::lock_guard<std::mutex> lk(reg_mu_);
  for (ProfThreadEntry* e : threads_) {
    // Defensive: entries whose threads never unregistered (the runtime
    // normally tears workers down before the profiler dies).
    if (e->live.load(std::memory_order_acquire) && e->timer_ok) {
      ::timer_delete(e->timer);
    }
    delete e;
  }
  threads_.clear();
}

void Profiler::register_current_thread(ProfThreadKind kind,
                                       int idx) noexcept {
  ThreadCtx& c = thread_ctx();
  if (c.prof_entry != nullptr) return;  // already registered
  auto* e = new ProfThreadEntry();
  e->tid = sys_gettid();
  e->kind = kind;
  e->idx = idx;

  sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
#if defined(sigev_notify_thread_id)
  sev.sigev_notify_thread_id = e->tid;
#else
  sev._sigev_un._tid = e->tid;
#endif
  // CLOCK_THREAD_CPUTIME_ID binds to the CALLING thread's CPU clock —
  // which is the registering thread itself: the timer only ticks while
  // this thread burns CPU, so idle threads are never signaled at all.
  e->timer_ok =
      ::timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &e->timer) == 0;

  std::lock_guard<std::mutex> lk(reg_mu_);
  threads_.push_back(e);
  c.prof_entry = e;
  // A window opened before this thread arrived still covers it (late
  // reactor threads, tests): arm into the open window.
  if (running_.load(std::memory_order_acquire)) {
    e->owned = new ProfRing(cfg_.ring_slots);
    e->ring.store(e->owned, std::memory_order_release);
    if (e->timer_ok) {
      const int rate = hz_.load(std::memory_order_relaxed);
      arm_timer(e->timer, 1000000000ull / static_cast<unsigned>(rate));
    }
  }
}

void Profiler::unregister_current_thread() noexcept {
  ThreadCtx& c = thread_ctx();
  ProfThreadEntry* e = c.prof_entry;
  if (e == nullptr) return;
  std::lock_guard<std::mutex> lk(reg_mu_);
  if (e->timer_ok) {
    ::timer_delete(e->timer);
    e->timer_ok = false;
  }
  // Mid-window exit: hand the ring to stop() for draining but detach the
  // context so any straggler SIGPROF already queued for this thread
  // (signals can outlive timer_delete) finds a null entry and bails.
  e->ring.store(nullptr, std::memory_order_release);
  e->live.store(false, std::memory_order_release);
  c.prof_entry = nullptr;
}

int Profiler::registered_threads() const noexcept {
  std::lock_guard<std::mutex> lk(reg_mu_);
  int n = 0;
  for (const ProfThreadEntry* e : threads_) {
    if (e->live.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

bool Profiler::start(int hz) {
  if (hz <= 0) hz = cfg_.default_hz;
  if (hz > 10000) hz = 10000;
  std::lock_guard<std::mutex> lk(reg_mu_);
  if (running_.load(std::memory_order_acquire)) return false;
  install_sigprof();
  hz_.store(hz, std::memory_order_relaxed);
  window_start_ns_ = now_ns();

  // Off-CPU baseline: per-level, per-phase nanosecond accumulators.
  phase_base_.assign(
      static_cast<std::size_t>(cfg_.num_levels) * kReqPhaseCount, 0);
  if (cfg_.metrics != nullptr) {
    for (int l = 0; l < cfg_.num_levels; ++l) {
      if (const auto* ls = cfg_.metrics->req_level(l)) {
        for (int p = 0; p < kReqPhaseCount; ++p) {
          phase_base_[static_cast<std::size_t>(l) * kReqPhaseCount + p] =
              ls->phase_sum_ns[p].load(std::memory_order_relaxed);
        }
      }
    }
  }

  const std::uint64_t period_ns = 1000000000ull / static_cast<unsigned>(hz);
  for (ProfThreadEntry* e : threads_) {
    if (!e->live.load(std::memory_order_acquire)) continue;
    e->owned = new ProfRing(cfg_.ring_slots);
    e->ring.store(e->owned, std::memory_order_release);
    if (e->timer_ok) arm_timer(e->timer, period_ns);
  }
  running_.store(true, std::memory_order_release);
  windows_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

ProfileReport Profiler::stop() {
  ProfileReport rep;
  std::lock_guard<std::mutex> lk(reg_mu_);
  if (!running_.load(std::memory_order_acquire)) return rep;
  rep.hz = hz_.load(std::memory_order_relaxed);
  rep.period_ns = 1000000000ull / static_cast<unsigned>(rep.hz);
  rep.window_ns = now_ns() - window_start_ns_;

  // Disarm + detach every ring, then quiesce: a handler that loaded its
  // ring before the detach is still inside in_handler — spin it out
  // before touching the slots.
  for (ProfThreadEntry* e : threads_) {
    if (e->live.load(std::memory_order_acquire) && e->timer_ok) {
      disarm_timer(e->timer);
    }
    e->ring.store(nullptr, std::memory_order_release);
  }
  for (ProfThreadEntry* e : threads_) {
    while (e->in_handler.load(std::memory_order_seq_cst) != 0) {
    }
  }

  // Fold on-CPU stacks: key = kind;bucket[;level];frames(root-first).
  std::map<std::string, ProfileReport::Stack> folded;
  char hexbuf[2 + 16 + 1];
  for (ProfThreadEntry* e : threads_) {
    ProfRing* r = e->owned;
    if (r == nullptr) continue;
    const std::uint32_t n = std::min(
        r->n.load(std::memory_order_acquire),
        static_cast<std::uint32_t>(r->slots.size()));
    rep.samples += n;
    rep.dropped += r->dropped.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < n; ++i) {
      const ProfSample& s = r->slots[i];
      const ProfBucket b = prof_bucket_of(s.ctx);
      std::string key = "oncpu;";
      key += prof_thread_kind_name(static_cast<ProfThreadKind>(s.kind));
      key += ';';
      if (b == ProfBucket::kTask) {
        key += "task;l";
        key += std::to_string(prof_level_of(s.ctx));
      } else {
        key += (b == ProfBucket::kReactorWait || b == ProfBucket::kReactorDrain)
                   ? "reactor;"
                   : "sched;";
        key += prof_bucket_name(b);
      }
      // Frames are captured leaf-first; folded format wants root-first.
      for (int j = static_cast<int>(s.nframes) - 1; j >= 0; --j) {
        std::snprintf(hexbuf, sizeof(hexbuf), "0x%zx",
                      static_cast<std::size_t>(s.frames[j]));
        key += ';';
        key += hexbuf;
      }
      auto& slot = folded[key];
      slot.weight_ns += rep.period_ns;
      slot.count += 1;
    }
    e->owned = nullptr;
    delete r;
  }

  // Off-CPU synthesis: reqtrace per-level phase deltas over the window.
  // kExecuting is excluded — that time is what the on-CPU samples already
  // cover; the other phases are "parked waiting on X" by definition.
  if (cfg_.metrics != nullptr) {
    for (int l = 0; l < cfg_.num_levels; ++l) {
      const auto* ls = cfg_.metrics->req_level(l);
      if (ls == nullptr) continue;
      for (int p = 0; p < kReqPhaseCount; ++p) {
        if (static_cast<ReqPhase>(p) == ReqPhase::kExecuting) continue;
        const std::uint64_t base =
            phase_base_[static_cast<std::size_t>(l) * kReqPhaseCount + p];
        const std::uint64_t cur =
            ls->phase_sum_ns[p].load(std::memory_order_relaxed);
        if (cur <= base) continue;
        const std::uint64_t d = cur - base;
        std::string key = "offcpu;l";
        key += std::to_string(l);
        key += ';';
        key += req_phase_name(static_cast<ReqPhase>(p));
        auto& slot = folded[key];
        slot.weight_ns += d;
        rep.offcpu_ns += d;
      }
    }
  }

  rep.stacks.reserve(folded.size());
  for (auto& [key, st] : folded) {
    st.key = key;
    rep.stacks.push_back(std::move(st));
  }
  std::sort(rep.stacks.begin(), rep.stacks.end(),
            [](const auto& a, const auto& b) {
              return a.weight_ns > b.weight_ns;
            });

  // Module table for offline symbolization: every file-backed mapping
  // that contains executable code, keyed by its lowest mapped address.
  {
    char exe[4096];
    const ssize_t en = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (en > 0) rep.exe.assign(exe, static_cast<std::size_t>(en));
    std::ifstream maps("/proc/self/maps");
    std::string line;
    std::map<std::string, std::pair<std::uintptr_t, std::uintptr_t>> mods;
    std::map<std::string, bool> exec_seen;
    while (std::getline(maps, line)) {
      std::uintptr_t lo = 0, hi = 0;
      char perms[8] = {};
      int consumed = 0;
      if (std::sscanf(line.c_str(), "%zx-%zx %7s %*s %*s %*s %n",
                      &lo, &hi, perms, &consumed) < 3) {
        continue;
      }
      std::size_t path_at = line.find('/');
      if (path_at == std::string::npos) continue;
      const std::string path = line.substr(path_at);
      auto it = mods.find(path);
      if (it == mods.end()) {
        mods.emplace(path, std::make_pair(lo, hi));
      } else {
        it->second.first = std::min(it->second.first, lo);
        it->second.second = std::max(it->second.second, hi);
      }
      if (std::strchr(perms, 'x') != nullptr) exec_seen[path] = true;
    }
    for (const auto& [path, range] : mods) {
      if (!exec_seen[path]) continue;
      rep.modules.push_back({range.first, range.second, path});
    }
  }

  total_samples_.fetch_add(rep.samples, std::memory_order_relaxed);
  total_dropped_.fetch_add(rep.dropped, std::memory_order_relaxed);
  running_.store(false, std::memory_order_release);
  return rep;
}

bool Profiler::sample_now() noexcept {
  ProfThreadEntry* e = thread_ctx().prof_entry;
  if (e == nullptr) return false;
  // Mask SIGPROF around the manual capture so a timer firing mid-push
  // cannot interleave two writers on the same ring.
  sigset_t block, old;
  sigemptyset(&block);
  sigaddset(&block, SIGPROF);
  pthread_sigmask(SIG_BLOCK, &block, &old);
  ProfRing* r = e->ring.load(std::memory_order_acquire);
  const bool ok = r != nullptr;
  if (ok) capture_sample(e, r, 0);
  pthread_sigmask(SIG_SETMASK, &old, nullptr);
  return ok;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

std::string Profiler::folded_text(const ProfileReport& r) {
  std::ostringstream os;
  os << "# icilk-profile v1 folded\n";
  os << "# exe " << r.exe << '\n';
  os << "# hz " << r.hz << " period_ns " << r.period_ns << " window_ns "
     << r.window_ns << '\n';
  os << "# samples " << r.samples << " dropped " << r.dropped
     << " offcpu_ns " << r.offcpu_ns << '\n';
  for (const auto& m : r.modules) {
    os << "# module 0x" << std::hex << m.base << " 0x" << m.end << std::dec
       << ' ' << m.path << '\n';
  }
  for (const auto& s : r.stacks) {
    os << s.key << ' ' << s.weight_ns << '\n';
  }
  return os.str();
}

std::string Profiler::json_text(const ProfileReport& r) {
  return json_object([&r](JsonWriter& w) {
    w.field("hz", r.hz).field("period_ns", r.period_ns);
    w.field("window_ns", r.window_ns).field("samples", r.samples);
    w.field("dropped", r.dropped).field("offcpu_ns", r.offcpu_ns);
    w.field("exe", r.exe);
    {
      auto mods = w.array("modules");
      for (const auto& m : r.modules) {
        auto o = w.object();
        w.field("base", m.base).field("end", m.end).field("path", m.path);
      }
    }
    auto stacks = w.array("stacks");
    for (const auto& st : r.stacks) {
      auto o = w.object();
      w.field("stack", st.key).field("ns", st.weight_ns);
      w.field("count", st.count);
    }
  });
}

bool Profiler::write_folded(const ProfileReport& r, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << folded_text(r);
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Health fragments
// ---------------------------------------------------------------------------

std::string prof_health_json(const Profiler* p) {
  return json_object([p](JsonWriter& w) {
    w.field("compiled_in", compiled_in());
    w.field("running", p != nullptr && p->running());
    if (p == nullptr) return;
    w.field("hz", p->running() ? p->hz() : p->config().default_hz);
    w.field("threads", p->registered_threads()).field("windows", p->windows());
    w.field("samples", p->total_samples()).field("dropped", p->total_dropped());
  });
}

std::string prof_health_stats_text(const Profiler* p,
                                   const std::string& prefix,
                                   const std::string& eol) {
  std::string out;
  const StatLines st(out, prefix + "prof_", eol);
  st.add("compiled_in", compiled_in());
  st.add("running", p != nullptr && p->running());
  if (p == nullptr) return out;
  st.add("hz", p->running() ? p->hz() : p->config().default_hz);
  st.add("threads", p->registered_threads()).add("windows", p->windows());
  st.add("samples", p->total_samples()).add("dropped", p->total_dropped());
  return out;
}

// ---------------------------------------------------------------------------
// Hot-path hook backing (compiled-in builds only)
// ---------------------------------------------------------------------------

#if ICILK_OBS_ENABLED

std::uint32_t prof_context() noexcept {
  return thread_ctx().prof_word.load(std::memory_order_relaxed);
}

void prof_enter_bucket(ProfBucket b, int level) noexcept {
  thread_ctx().prof_word.store(prof_pack(b, level),
                               std::memory_order_relaxed);
}

ProfScope::ProfScope(ProfBucket b, int level) noexcept {
  ThreadCtx& c = thread_ctx();
  saved_ = c.prof_word.load(std::memory_order_relaxed);
  c.prof_word.store(prof_pack(b, level), std::memory_order_relaxed);
}

// Re-resolves the context: the scope may close on another worker.
ProfScope::~ProfScope() {
  thread_ctx().prof_word.store(saved_, std::memory_order_relaxed);
}

void prof_register_thread(Profiler* p, ProfThreadKind kind,
                          int idx) noexcept {
  if (p != nullptr) p->register_current_thread(kind, idx);
}

void prof_unregister_thread(Profiler* p) noexcept {
  if (p != nullptr) p->unregister_current_thread();
}

#endif  // ICILK_OBS_ENABLED

}  // namespace icilk::obs
