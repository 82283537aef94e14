// The observability compile-out switch. Configuring with -DICILK_OBS=OFF
// defines ICILK_OBS_ENABLED=0, and every observability hook on the
// scheduler, deque and reactor hot paths (trace records, request phases,
// watchdog census and state words, profiler attribution, the spanprof
// strand clock) inlines to nothing; scripts/soak.sh obsoff and the CI
// off-matrix prove it with the OBS rows of scripts/hook_symbols.txt. The
// classes themselves stay compiled (tests and endpoints drive them), but
// the runtime never instantiates a Watchdog or a Profiler. The
// RuntimeConfig *_enabled fields are the per-subsystem runtime kill
// switches.
#pragma once

#if !defined(ICILK_OBS_ENABLED)
#define ICILK_OBS_ENABLED 1
#endif

namespace icilk::obs {

/// True when the observability hooks were compiled in (ICILK_OBS=ON).
constexpr bool compiled_in() noexcept { return ICILK_OBS_ENABLED != 0; }

}  // namespace icilk::obs
