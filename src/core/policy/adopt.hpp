// Shared thief-protocol plumbing used by every policy: the bookkeeping
// when a worker takes over work (mug/steal stats, aging samples, reqtrace
// flow ids), the central-queue candidate protocol (try_mug -> steal_top ->
// lazy drop, with the fault-injection crosspoints at each window), and the
// abandonment park sequence. Extracted from the Prompt/Adaptive schedulers
// so a policy only supplies what genuinely differs: the republish action
// that makes a deque discoverable again in ITS structure.
#pragma once

#include <cstdint>
#include <utility>

#include "concurrent/ref.hpp"
#include "core/deque.hpp"
#include "core/runtime.hpp"
#include "core/worker.hpp"
#include "inject/inject.hpp"
#include "obs/trace.hpp"

namespace icilk::policy {

/// Mug bookkeeping: stats, per-level metrics, the aging-delay sample from
/// the deque's resumable stamp, and a trace record whose arg carries the
/// mugged request's id (low 32 bits) so Chrome-trace flows can follow a
/// request across workers; 0 when untagged.
inline void note_mugged(Runtime& rt, Worker& w, Deque& d,
                        const Continuation& c, Priority level) {
  w.stats.mugs++;
  rt.metrics().count(obs::EventKind::kMug, level);
  if (const std::uint64_t since = d.take_resumable_stamp(); since != 0) {
    const std::uint64_t now = now_ns();
    const std::uint64_t delay = now > since ? now - since : 0;
    rt.metrics().record_aging(level, delay);
    sp_charge_resume(c, delay);  // measured burden on the resumed strand
  }
  ICILK_TRACE_RECORD(w.trace, obs::EventKind::kMug, level,
                     c.resume != nullptr && c.resume->st.req != nullptr
                         ? static_cast<std::uint32_t>(c.resume->st.req->id)
                         : 0);
}

/// Steal bookkeeping; the stolen continuation becomes the bottom of a
/// fresh deque owned by `w` at `level`.
inline void adopt_stolen(Runtime& rt, Worker& w, TaskFiber* f,
                         Priority level) {
  w.stats.steals++;
  rt.metrics().count(obs::EventKind::kSteal, level);
  ICILK_TRACE_RECORD(w.trace, obs::EventKind::kSteal, level,
                     f->st.req != nullptr
                         ? static_cast<std::uint32_t>(f->st.req->id)
                         : 0);
#if ICILK_OBS_ENABLED
  // No resumable stamp to measure on a steal (the continuation was never
  // parked-resumable); charge the estimated per-event burden instead.
  f->st.sp.bdepth += obs::sp_overhead_est();
#endif
  auto nd = Ref<Deque>::adopt(new Deque(level, rt.census_slot(level)));
  w.stats.deques_created++;
  w.level = level;
  w.active = std::move(nd);
  w.next = Continuation::of_fiber(f);
}

/// A deque is being kept out of its structure: clear the membership flag,
/// then re-check visibility (it may have refilled / become resumable
/// mid-flight) — the structural mirror of the bitfield double check.
/// `requeue(Ref<Deque>)` must republish a deque whose enqueued flag is
/// already SET (it is re-marked here on the recheck path).
template <typename Requeue>
inline void drop_with_recheck(Ref<Deque> d, Requeue&& requeue) {
  d->clear_enqueued();
  if (d->stealable_or_resumable() && d->mark_enqueued()) {
    requeue(std::move(d));
  }
}

/// One popped candidate through the centralized thief protocol. On
/// success, sets w.level/w.active/w.next and returns true. The inject
/// crosspoints widen the pop->mug and mug->steal windows where the
/// deque's state can change under the thief — identical placement for
/// every policy, so chaos coverage carries across schedulers.
template <typename Requeue>
inline bool process_candidate(Runtime& rt, Worker& w, Ref<Deque> d,
                              Priority h, Requeue&& requeue) {
  Continuation c;
  inject::maybe_pause(inject::probe(inject::Point::kMug));
  if (d->try_mug(c)) {
    note_mugged(rt, w, *d, c, h);
    Ref<Deque> keep = d;  // our active reference
    if (d->has_entries()) {
      requeue(std::move(d));  // still stealable: back into the structure
    } else {
      drop_with_recheck(std::move(d), requeue);
    }
    w.level = h;
    w.active = std::move(keep);
    w.next = std::move(c);
    return true;
  }
  inject::maybe_pause(inject::probe(inject::Point::kSteal));
  if (TaskFiber* f = d->steal_top()) {
    if (d->stealable_or_resumable()) {
      requeue(std::move(d));
    } else {
      drop_with_recheck(std::move(d), requeue);
    }
    adopt_stolen(rt, w, f, h);
    return true;
  }
  // Empty (lazily lingering) or dead: drop it and look further.
  drop_with_recheck(std::move(d), requeue);
  return false;
}

/// Abandon the worker's active deque (promptness migration or quantum
/// reassignment): shared accounting, then the park. `publish(Worker&,
/// Ref<Deque>, TaskFiber*)` runs on the scheduler stack after the switch
/// and must make the deque resumable AND discoverable in the policy's
/// structure (ordering is policy-specific — see each policy's comment).
template <typename Publish>
inline void abandon_active(Runtime& rt, Worker& w, Publish publish) {
  w.stats.abandons++;
  rt.metrics().count(obs::EventKind::kAbandon, w.level);
  ICILK_TRACE_RECORD(w.trace, obs::EventKind::kAbandon, w.level, 0);
  TaskFiber* self = w.current;
  rt.park_current([publish, self] {
    Worker& w2 = *this_worker();
    Ref<Deque> d = std::move(w2.active);
    publish(w2, std::move(d), self);
  });
  // Resumed later by a mug (possibly our own worker coming back down).
}

}  // namespace icilk::policy
