#!/usr/bin/env bash
# Chaos-soak orchestrator for the fault-injection subsystem (src/inject/).
#
# Phases (default: all):
#   tsan      build with ICILK_SANITIZE=thread, run `ctest -L inject` plus
#             the bench/soak_inject driver — data races in the widened
#             windows surface here;
#   asan      same under ICILK_SANITIZE=address (lifetime bugs on the
#             faulted paths: recycled ops, cancelled fds, dead deques);
#   offcheck  build with ICILK_INJECT=OFF and PROVE the zero-overhead
#             contract: (a) the hot-path objects (reactor, scheduler,
#             runtime) contain no reference to any inject symbol, and
#             (b) micro_inject_overhead's probe loop costs the same as its
#             plain baseline loop.
#   attribution
#             run bench/attribution_smoke against the default build: a
#             live minicached under TCP load, then scrape /metrics and
#             /latency and assert the phase histograms are non-empty and
#             the worst-K timelines parse.
#   reqoff    build with ICILK_TRACE=OFF ICILK_REQTRACE=OFF and prove the
#             request-tracing compile-out: (a) the hot-path objects carry
#             no live ReqContext/context-accessor symbols, and (b)
#             micro_reqtrace's attributed runtime loop costs the same as
#             its unattributed baseline loop.
#   wdoff     build with ICILK_WATCHDOG=OFF and prove the watchdog
#             compile-out: (a) the hot-path objects carry no watchdog
#             symbols (census hooks, Watchdog class),
#             (b) micro_watchdog's hook loops cost the same as its plain
#             baseline loop, and (c) `ctest -L obs` still passes (the
#             hook-dependent cases skip).
#   profoff   build with ICILK_PROFILE=OFF and prove the profiler
#             compile-out: (a) the hot-path objects carry no prof hooks
#             (bucket stores, scopes, thread registration), (b)
#             micro_profiler's hook loops cost the same as its plain
#             baseline loop, and
#             (c) `ctest -L obs` still passes (attribution cases skip).
#   spoff     build with ICILK_SPANPROF=OFF and prove the work/span
#             profiler compile-out: (a) the hot-path objects carry no
#             spanprof symbols (the dispatch bracket's strand clock,
#             sp_strand_now and the burden estimator must fold away), (b)
#             micro_spanprof's hook loops cost the same as its plain
#             baseline loop, and (c) `ctest -L obs` still passes (the
#             closed-form cases skip).
#
# Every (a) check reads its symbol patterns from scripts/hook_symbols.txt
# (shared with the CI off-matrix job) and, when build/ holds a default
# build, also proves each pattern matches something there.
#
# Usage: scripts/soak.sh [tsan|asan|offcheck|attribution|reqoff|wdoff|profoff|spoff|all] \
#                        [soak-duration-s] [seed]
set -uo pipefail

PHASE="${1:-all}"
DURATION="${2:-2.0}"
SEED="${3:-1}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc)"
FAILURES=0

note() { printf '\n== %s ==\n' "$*"; }
fail() { printf 'FAIL: %s\n' "$*"; FAILURES=$((FAILURES + 1)); }

build() { # build <dir> <extra cmake args...>
  local dir="$1"
  shift
  cmake -B "$dir" -S "$REPO_ROOT" "$@" >/dev/null || return 1
  cmake --build "$dir" -j "$JOBS" >/dev/null
}

# hook_check <phase> <off-build-dir> FLAG...: the compile-out proof over
# the table in scripts/hook_symbols.txt. The OFF build's hot-path objects
# must carry none of the flags' symbols, and the default build (when
# built/ exists) must carry every live one, so the patterns can match.
hook_check() {
  local phase="$1" dir="$2"
  shift 2
  note "$phase: hot-path objects carry no $* hook symbols"
  "$REPO_ROOT/scripts/hook_symbols.sh" absent "$dir" "$@" ||
    fail "$phase: $* hook symbols survived the compile-out"
  if [ -d "$REPO_ROOT/build/src" ]; then
    note "$phase: every $* pattern matches the default build"
    "$REPO_ROOT/scripts/hook_symbols.sh" live "$REPO_ROOT/build" "$@" ||
      fail "$phase: a $* pattern matches nothing in the default build"
  else
    echo "skipping the default-build match (build/ not built)"
  fi
}

run_sanitizer_phase() { # run_sanitizer_phase <name> <ICILK_SANITIZE value>
  local name="$1" san="$2"
  local dir="$REPO_ROOT/build-soak-$name"
  note "$name: building (ICILK_SANITIZE=$san)"
  if ! build "$dir" -DICILK_SANITIZE="$san"; then
    fail "$name build"
    return
  fi
  note "$name: ctest -L inject"
  if ! (cd "$dir" && ctest -L inject --output-on-failure -j 2); then
    fail "$name ctest -L inject"
  fi
  note "$name: soak_inject ${DURATION}s seed=$SEED"
  if ! "$dir/bench/soak_inject" "$DURATION" "$SEED"; then
    fail "$name soak_inject (replay: soak_inject $DURATION $SEED)"
  fi
}

run_offcheck_phase() {
  local dir="$REPO_ROOT/build-soak-injectoff"
  note "offcheck: building (ICILK_INJECT=OFF)"
  if ! build "$dir" -DICILK_INJECT=OFF; then
    fail "offcheck build"
    return
  fi

  # (a) No inject symbol may be referenced (or emitted) by the hot-path
  # translation units: the itanium-mangled namespace is ...6injectE-free.
  hook_check offcheck "$dir" INJECT

  # (b) probe() folded to nothing: the probe loop and the baseline loop
  # must cost the same (<1.5x, far under the >2x an extra load+branch or a
  # call would show). Uses google-benchmark CSV output.
  note "offcheck: micro_inject_overhead probe == baseline"
  local csv
  csv="$("$dir/bench/micro_inject_overhead" --benchmark_format=csv \
        2>/dev/null | tr -d '"')"
  local base probe
  base="$(echo "$csv" | awk -F, '$1 == "BM_Baseline" {print $4}')"
  probe="$(echo "$csv" | awk -F, '$1 == "BM_ProbeNoEngine" {print $4}')"
  echo "BM_Baseline=${base}ns BM_ProbeNoEngine=${probe}ns"
  if [ -z "$base" ] || [ -z "$probe" ]; then
    fail "offcheck: could not parse micro_inject_overhead output"
  elif ! awk -v b="$base" -v p="$probe" 'BEGIN { exit !(p <= b * 1.5) }'; then
    fail "offcheck: probe loop ${probe}ns vs baseline ${base}ns (>1.5x)"
  fi

  # The engine itself still works compiled-out (tests skip the hook cases).
  note "offcheck: ctest -L inject (OFF build)"
  if ! (cd "$dir" && ctest -L inject --output-on-failure -j 2); then
    fail "offcheck ctest -L inject"
  fi
}

run_attribution_phase() {
  local dir="$REPO_ROOT/build"
  note "attribution: building (default flags)"
  if ! build "$dir"; then
    fail "attribution build"
    return
  fi
  note "attribution: bench/attribution_smoke"
  if ! "$dir/bench/attribution_smoke"; then
    fail "attribution smoke (minicached /metrics + /latency scrape)"
  fi
}

run_reqoff_phase() {
  local dir="$REPO_ROOT/build-soak-reqoff"
  note "reqoff: building (ICILK_TRACE=OFF ICILK_REQTRACE=OFF)"
  if ! build "$dir" -DICILK_TRACE=OFF -DICILK_REQTRACE=OFF; then
    fail "reqoff build"
    return
  fi

  # (a) No live request-tracing machinery in the hot-path objects: the
  # context accessor and ReqContext member functions must be absent.
  # (ReqContext may still appear as a mangled POINTER PARAMETER type,
  # "...10ReqContextE", in always-compiled signatures — that is a type
  # name, not code; the table matches members, "ReqContext<len><name>".)
  hook_check reqoff "$dir" REQTRACE

  # (b) req_begin/req_end folded to stubs: the attributed runtime loop in
  # micro_reqtrace must cost the same as its unattributed baseline
  # (<1.4x; live attribution shows ~2x on this loop).
  note "reqoff: micro_reqtrace attributed == baseline"
  local out base probe
  out="$("$dir/bench/micro_reqtrace" 2>/dev/null)"
  echo "$out"
  base="$(echo "$out" | awk '/mode=runtime_base/ { for (i=1;i<=NF;i++) if ($i ~ /^ns_per_op=/) { sub("ns_per_op=","",$i); print $i } }')"
  probe="$(echo "$out" | awk '/mode=runtime / { for (i=1;i<=NF;i++) if ($i ~ /^ns_per_op=/) { sub("ns_per_op=","",$i); print $i } }')"
  if [ -z "$base" ] || [ -z "$probe" ]; then
    fail "reqoff: could not parse micro_reqtrace output"
  elif ! awk -v b="$base" -v p="$probe" 'BEGIN { exit !(p <= b * 1.4) }'; then
    fail "reqoff: attributed loop ${probe}ns vs baseline ${base}ns (>1.4x)"
  else
    echo "runtime_base=${base}ns runtime=${probe}ns"
  fi

  # The OFF build must still pass its own tests (obs label: the class
  # stays compiled, hook-dependent cases skip).
  note "reqoff: ctest -L obs (OFF build)"
  if ! (cd "$dir" && ctest -L obs --output-on-failure -j 2); then
    fail "reqoff ctest -L obs"
  fi
}

run_wdoff_phase() {
  local dir="$REPO_ROOT/build-soak-wdoff"
  note "wdoff: building (ICILK_WATCHDOG=OFF)"
  if ! build "$dir" -DICILK_WATCHDOG=OFF; then
    fail "wdoff build"
    return
  fi

  # (a) No watchdog machinery in the hot-path objects: the census hooks
  # and the Watchdog class itself ("...8Watchdog" mangled) must be absent.
  hook_check wdoff "$dir" WATCHDOG

  # (b) The hooks folded to nothing: the state-publication and census-note
  # loops in micro_watchdog must cost the same as the plain baseline loop
  # (<1.5x; the live census hook's hashed registry shows ~60x on this
  # loop, so the margin is unambiguous).
  note "wdoff: micro_watchdog hooks == baseline"
  local csv base pub census
  csv="$("$dir/bench/micro_watchdog" --benchmark_format=csv \
        2>/dev/null | tr -d '"')"
  base="$(echo "$csv" | awk -F, '$1 == "BM_Baseline" {print $4}')"
  pub="$(echo "$csv" | awk -F, '$1 == "BM_PublishState" {print $4}')"
  census="$(echo "$csv" | awk -F, '$1 == "BM_CensusNote" {print $4}')"
  echo "BM_Baseline=${base}ns BM_PublishState=${pub}ns BM_CensusNote=${census}ns"
  if [ -z "$base" ] || [ -z "$pub" ] || [ -z "$census" ]; then
    fail "wdoff: could not parse micro_watchdog output"
  else
    if ! awk -v b="$base" -v p="$pub" 'BEGIN { exit !(p <= b * 1.5) }'; then
      fail "wdoff: publish-state loop ${pub}ns vs baseline ${base}ns (>1.5x)"
    fi
    if ! awk -v b="$base" -v p="$census" 'BEGIN { exit !(p <= b * 1.5) }'; then
      fail "wdoff: census-note loop ${census}ns vs baseline ${base}ns (>1.5x)"
    fi
  fi

  # (c) The OFF build still passes the observability tests (detector unit
  # tests run against the always-compiled class; runtime-integration cases
  # skip).
  note "wdoff: ctest -L obs (OFF build)"
  if ! (cd "$dir" && ctest -L obs --output-on-failure -j 2); then
    fail "wdoff ctest -L obs"
  fi

  # (d) Clean-mode soak: watchdog sampler alongside real load with zero
  # invariant trips required (rate 0 = no faults, the false-positive
  # gate) — in the DEFAULT build, where the watchdog is live.
  note "wdoff: clean-mode soak (default build, watchdog on, rate 0)"
  if [ -x "$REPO_ROOT/build/bench/soak_inject" ]; then
    if ! "$REPO_ROOT/build/bench/soak_inject" "$DURATION" "$SEED" 0; then
      fail "wdoff clean-mode soak (replay: soak_inject $DURATION $SEED 0)"
    fi
  else
    echo "skipping clean-mode soak (build/bench/soak_inject not built)"
  fi
}

run_profoff_phase() {
  local dir="$REPO_ROOT/build-soak-profoff"
  note "profoff: building (ICILK_PROFILE=OFF)"
  if ! build "$dir" -DICILK_PROFILE=OFF; then
    fail "profoff build"
    return
  fi

  # (a) No profiler machinery in the hot-path objects: the bucket and
  # scope hooks and thread registration must be absent. (The Profiler
  # class itself stays compiled in icilk_obs — endpoints and tests drive
  # it — but "8Profiler" in a hot-path object means a hook survived.)
  hook_check profoff "$dir" PROFILE

  # (b) The hooks folded to nothing: micro_profiler's context-store and
  # scope loops must cost the same as the plain baseline loop (<1.5x; the
  # live hooks are TLS stores, ~2-4x on this loop).
  note "profoff: micro_profiler hooks == baseline"
  local csv base setctx scope
  csv="$("$dir/bench/micro_profiler" --benchmark_format=csv \
        2>/dev/null | tr -d '"')"
  base="$(echo "$csv" | awk -F, '$1 == "BM_Baseline" {print $4}')"
  setctx="$(echo "$csv" | awk -F, '$1 == "BM_SetContext" {print $4}')"
  scope="$(echo "$csv" | awk -F, '$1 == "BM_ProfScope" {print $4}')"
  echo "BM_Baseline=${base}ns BM_SetContext=${setctx}ns BM_ProfScope=${scope}ns"
  if [ -z "$base" ] || [ -z "$setctx" ] || [ -z "$scope" ]; then
    fail "profoff: could not parse micro_profiler output"
  else
    if ! awk -v b="$base" -v p="$setctx" 'BEGIN { exit !(p <= b * 1.5) }'; then
      fail "profoff: set-context loop ${setctx}ns vs baseline ${base}ns (>1.5x)"
    fi
    if ! awk -v b="$base" -v p="$scope" 'BEGIN { exit !(p <= b * 1.5) }'; then
      fail "profoff: prof-scope loop ${scope}ns vs baseline ${base}ns (>1.5x)"
    fi
  fi

  # (c) The OFF build still passes the observability tests (rendering and
  # window mechanics run against the always-compiled class; attribution
  # and signal cases skip).
  note "profoff: ctest -L obs (OFF build)"
  if ! (cd "$dir" && ctest -L obs --output-on-failure -j 2); then
    fail "profoff ctest -L obs"
  fi
}

run_spoff_phase() {
  local dir="$REPO_ROOT/build-soak-spoff"
  note "spoff: building (ICILK_SPANPROF=OFF)"
  if ! build "$dir" -DICILK_SPANPROF=OFF; then
    fail "spoff build"
    return
  fi

  # (a) No spanprof machinery in the hot-path objects: the dispatch
  # bracket's strand clock, the structural-event flush and the burden
  # estimator must be absent.
  hook_check spoff "$dir" SPANPROF

  # (b) The hooks folded to nothing: every hook loop in micro_spanprof
  # (disarmed event, dispatch pair, armed event, both clock modes) must
  # cost the same as the plain baseline loop (<1.5x; compiled in, the
  # armed TSC rows are ~10-25x and the precise rows ~100x on this loop).
  note "spoff: micro_spanprof hooks == baseline"
  local out base
  out="$("$dir/bench/micro_spanprof" hooks 2>/dev/null)"
  echo "$out"
  base="$(echo "$out" | awk '/mode=base / { for (i=1;i<=NF;i++) if ($i ~ /^ns_per_op=/) { sub("ns_per_op=","",$i); print $i } }')"
  if [ -z "$base" ]; then
    fail "spoff: could not parse micro_spanprof output"
  else
    local mode val
    for mode in hook_disarmed hook_dispatch_pair hook_event \
                hook_dispatch_pair_precise hook_event_precise; do
      val="$(echo "$out" | awk -v m="mode=$mode " '$0 ~ m { for (i=1;i<=NF;i++) if ($i ~ /^ns_per_op=/) { sub("ns_per_op=","",$i); print $i } }')"
      if [ -z "$val" ]; then
        fail "spoff: missing $mode row in micro_spanprof output"
      elif ! awk -v b="$base" -v p="$val" 'BEGIN { exit !(p <= b * 1.5) }'; then
        fail "spoff: $mode loop ${val}ns vs baseline ${base}ns (>1.5x)"
      fi
    done
  fi

  # (c) The OFF build still passes the observability tests (the
  # closed-form and endpoint-content cases skip; surfaces still answer).
  note "spoff: ctest -L obs (OFF build)"
  if ! (cd "$dir" && ctest -L obs --output-on-failure -j 2); then
    fail "spoff ctest -L obs"
  fi
}

case "$PHASE" in
  tsan) run_sanitizer_phase tsan thread ;;
  asan) run_sanitizer_phase asan address ;;
  offcheck) run_offcheck_phase ;;
  attribution) run_attribution_phase ;;
  reqoff) run_reqoff_phase ;;
  wdoff) run_wdoff_phase ;;
  profoff) run_profoff_phase ;;
  spoff) run_spoff_phase ;;
  all)
    run_sanitizer_phase tsan thread
    run_sanitizer_phase asan address
    run_offcheck_phase
    run_attribution_phase
    run_reqoff_phase
    run_wdoff_phase
    run_profoff_phase
    run_spoff_phase
    ;;
  *)
    echo "usage: scripts/soak.sh [tsan|asan|offcheck|attribution|reqoff|wdoff|profoff|spoff|all] [duration-s] [seed]" >&2
    exit 2
    ;;
esac

if [ "$FAILURES" -ne 0 ]; then
  printf '\nsoak.sh: %d phase check(s) FAILED\n' "$FAILURES"
  exit 1
fi
printf '\nsoak.sh: all checks passed\n'
