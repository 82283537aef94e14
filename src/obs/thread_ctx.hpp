// The per-OS-thread strand context: all the observability state about
// "what runs on this thread now", in one thread_local (cheetah's
// local_state idiom). Per-task state (request, SpanAcc, level) rides the
// fiber in TaskState, because I-Cilk resumes, mugs and steals deques onto
// any worker; the dispatch loop mirrors it into this context for exactly
// one run, with strand_enter before switch_context and strand_leave after.
//
// Compilers may cache a thread_local's address within a function, and a
// fiber can change threads mid-function, so every access goes through the
// noipa accessor thread_ctx() (the rule core/runtime.cpp's this_worker()
// follows): never hold a ThreadCtx& across a park. The struct is
// constant-initialised, so the SIGPROF handler may read it. Every field is
// always present; each ICILK_* flag compiles out the code touching its own.
#pragma once

#include <atomic>
#include <cstdint>

#include "concurrent/clock.hpp"
#include "obs/profiler.hpp"
#include "obs/reqtrace.hpp"
#include "obs/spanprof.hpp"
#include "obs/trace.hpp"

namespace icilk::obs {

struct ThreadCtx {
  TraceRing* ring = nullptr;            ///< reqtrace + inject records
  int where = ReqHop::kNoWhere;         ///< worker id, or -1-idx for I/O
  ReqContext* req = nullptr;            ///< request of the running fiber
  std::atomic<std::uint32_t> prof_word{0};  ///< profiler attribution
  ProfThreadEntry* prof_entry = nullptr;    ///< profiler registration
  SpanAcc* sp_acc = nullptr;            ///< armed strand, or null
  std::uint64_t sp_start_ns = 0;        ///< strand clock at last flush
  bool sp_precise = false;              ///< thread-CPU strand clock
};

ThreadCtx& thread_ctx() noexcept;

#if ICILK_SPANPROF_ENABLED
/// Spanprof's half of the bracket. The TSC strand clock reuses the ticks
/// the dispatch loop reads for its work clock; only the precise (thread
/// CPU) clock reads its own. A null `acc` disarms.
inline void sp_strand_arm(ThreadCtx& c, SpanAcc* acc, bool precise,
                          std::uint64_t t0) noexcept {
  c.sp_acc = acc;
  c.sp_precise = precise;
  if (acc != nullptr) {
    c.sp_start_ns = precise ? now_cpu_ns() : ticks_to_ns(t0);
  }
}

/// Flushes the strand into the armed acc and disarms. Runs before a
/// parked fiber is published, so it never races a thief.
inline void sp_strand_flush(ThreadCtx& c, std::uint64_t t1) noexcept {
  SpanAcc* acc = c.sp_acc;
  if (acc == nullptr) return;
  const std::uint64_t e =
      (c.sp_precise ? now_cpu_ns() : ticks_to_ns(t1)) - c.sp_start_ns;
  acc->work += e;
  acc->depth += e;
  acc->bdepth += e;
  c.sp_acc = nullptr;
}
#else
inline void sp_strand_arm(ThreadCtx&, SpanAcc*, bool,
                          std::uint64_t) noexcept {}
inline void sp_strand_flush(ThreadCtx&, std::uint64_t) noexcept {}
#endif

/// Binds the context to the task about to run: its request (the owner
/// chain enters the executing phase), its profiler word at `level`, and
/// its strand clock (`acc` is null when spanprof is off at run time).
/// Returns the now_ticks() reading the run starts at.
inline std::uint64_t strand_enter(ReqContext* req, bool owner, int level,
                                  SpanAcc* acc, bool precise) noexcept {
#if ICILK_REQTRACE_ENABLED || ICILK_PROFILE_ENABLED || ICILK_SPANPROF_ENABLED
  ThreadCtx& c = thread_ctx();
#endif
#if ICILK_REQTRACE_ENABLED
  if (req != nullptr && owner) req->enter(ReqPhase::kExecuting);
  c.req = req;
#endif
#if ICILK_PROFILE_ENABLED
  c.prof_word.store(
      prof_pack(ProfBucket::kTask, level,
                req != nullptr ? static_cast<std::uint16_t>(req->id) : 0),
      std::memory_order_relaxed);
#endif
  const std::uint64_t t0 = now_ticks();
#if ICILK_SPANPROF_ENABLED
  sp_strand_arm(c, acc, precise, t0);
#endif
  return t0;
}

/// The fiber switched back to the scheduler loop at `level`: closes the
/// strand and unbinds the task. Returns the now_ticks() reading the run
/// ended at.
inline std::uint64_t strand_leave(int level) noexcept {
  const std::uint64_t t1 = now_ticks();
#if ICILK_REQTRACE_ENABLED || ICILK_PROFILE_ENABLED || ICILK_SPANPROF_ENABLED
  ThreadCtx& c = thread_ctx();
#endif
#if ICILK_SPANPROF_ENABLED
  sp_strand_flush(c, t1);
#endif
#if ICILK_PROFILE_ENABLED
  c.prof_word.store(prof_pack(ProfBucket::kSchedLoop, level),
                    std::memory_order_relaxed);
#endif
#if ICILK_REQTRACE_ENABLED
  c.req = nullptr;
#endif
  return t1;
}

/// A worker's or reactor I/O thread's registration for its lifetime:
/// trace ring, hop location and profiler timer (`prof` may be null).
class ThreadScope {
 public:
  ThreadScope(TraceRing* ring, ProfThreadKind kind, int idx,
              Profiler* prof) noexcept
      : prof_(prof) {
    ThreadCtx& c = thread_ctx();
    c.ring = ring;
    c.where = kind == ProfThreadKind::kWorker ? idx
              : kind == ProfThreadKind::kIo   ? -1 - idx
                                              : ReqHop::kNoWhere;
    prof_register_thread(prof, kind, idx);
  }
  ~ThreadScope() {
    prof_unregister_thread(prof_);
    ThreadCtx& c = thread_ctx();
    c.prof_word.store(0, std::memory_order_relaxed);
    c.ring = nullptr;
    c.where = ReqHop::kNoWhere;
  }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  Profiler* prof_;
};

}  // namespace icilk::obs
