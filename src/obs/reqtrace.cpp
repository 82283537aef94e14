#include "obs/reqtrace.hpp"

#include "obs/thread_ctx.hpp"

namespace icilk::obs {

const char* req_phase_name(ReqPhase p) noexcept {
  switch (p) {
    case ReqPhase::kQueueing:
      return "queueing";
    case ReqPhase::kExecuting:
      return "executing";
    case ReqPhase::kRunnable:
      return "runnable";
    case ReqPhase::kSuspendedIo:
      return "suspended_io";
    case ReqPhase::kSuspendedSync:
      return "suspended_sync";
    case ReqPhase::kCount:
      break;
  }
  return "?";
}

#if ICILK_REQTRACE_ENABLED
ReqContext* req_current() noexcept { return thread_ctx().req; }
#endif

void ReqContext::start(std::uint64_t rid, std::uint16_t prio,
                       std::uint64_t arrival_ns) noexcept {
  id = rid;
  priority = prio;
  begin_ns = arrival_ns != 0 ? arrival_ns : now_ns();
  end_ns = 0;
  for (int i = 0; i < kReqPhaseCount; ++i) phase_ns[i] = 0;
  nhops = 0;
  hops_dropped = 0;
  phase_ = ReqPhase::kQueueing;
  io_hint_ = false;
  phase_start_ns_ = begin_ns;
  log_hop(begin_ns, ReqPhase::kQueueing, thread_ctx().where);
}

void ReqContext::enter(ReqPhase p) noexcept {
  ThreadCtx& c = thread_ctx();
  if (p == phase_) {
    // Same phase: only a cross-thread migration (steal of an executing
    // chain, cross-thread wake) is worth a hop; accumulators are
    // untouched — the phase simply continues.
    if (nhops != 0 && hops[nhops - 1].where == c.where) return;
    log_hop(now_ns(), p, c.where);
    ICILK_TRACE_RECORD(c.ring, EventKind::kReqPhase,
                       static_cast<std::uint16_t>(p),
                       static_cast<std::uint32_t>(id));
    return;
  }
  const std::uint64_t now = now_ns();
  phase_ns[static_cast<int>(phase_)] +=
      now > phase_start_ns_ ? now - phase_start_ns_ : 0;
  phase_ = p;
  phase_start_ns_ = now;
  log_hop(now, p, c.where);
  ICILK_TRACE_RECORD(c.ring, EventKind::kReqPhase,
                     static_cast<std::uint16_t>(p),
                     static_cast<std::uint32_t>(id));
}

std::uint64_t ReqContext::close() noexcept {
  const std::uint64_t now = now_ns();
  phase_ns[static_cast<int>(phase_)] +=
      now > phase_start_ns_ ? now - phase_start_ns_ : 0;
  phase_start_ns_ = now;
  end_ns = now;
  return now > begin_ns ? now - begin_ns : 0;
}

void ReqContext::log_hop(std::uint64_t t, ReqPhase p, int where) noexcept {
  if (nhops >= kMaxHops) {
    ++hops_dropped;
    return;
  }
  ReqHop& h = hops[nhops++];
  h.t_ns = t;
  h.phase = p;
  h.where = (where >= INT16_MIN && where <= INT16_MAX)
                ? static_cast<std::int16_t>(where)
                : ReqHop::kNoWhere;
}

}  // namespace icilk::obs
