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
#   obsoff    build with ICILK_OBS=OFF and prove the observability
#             compile-out: (a) the hot-path objects carry no trace,
#             reqtrace, watchdog, profiler or spanprof hook symbols,
#             (b) the micro-bench hook loops cost the same as their plain
#             baselines (micro_reqtrace's attributed runtime loop,
#             micro_watchdog's state and census loops, micro_profiler's
#             context and scope loops, every micro_spanprof hook row),
#             (c) `ctest -L obs` still passes (the hook-dependent cases
#             skip), and (d) a clean-mode soak in the default build
#             trips no watchdog detector.
#
# Every (a) check reads its symbol patterns from scripts/hook_symbols.txt
# (shared with the CI off-matrix job) and, when build/ holds a default
# build, also proves each pattern matches something there.
#
# Usage: scripts/soak.sh [tsan|asan|offcheck|attribution|obsoff|all] \
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

# Micro-bench readings: csv_ns <csv> <row> is a google-benchmark CSV
# row's time; mode_ns <out> <mode> is the ns_per_op of a RESULT line.
csv_ns() { awk -F, -v r="$2" '$1 == r {print $4}' <<< "$1"; }
mode_ns() {
  awk -v m="mode=$2 " '$0 ~ m { for (i = 1; i <= NF; i++)
    if ($i ~ /^ns_per_op=/) { sub("ns_per_op=", "", $i); print $i } }' <<< "$1"
}

# gate <what> <ns> <baseline-ns> <factor>: a hook loop that folded to
# nothing costs at most <factor> times its plain baseline loop.
gate() {
  if [ -z "$2" ] || [ -z "$3" ]; then
    fail "$1: could not parse the micro-bench output"
  elif ! awk -v p="$2" -v b="$3" -v f="$4" 'BEGIN { exit !(p <= b * f) }'; then
    fail "$1: ${2}ns vs baseline ${3}ns (>${4}x)"
  else
    echo "$1: ${2}ns vs baseline ${3}ns (<=${4}x)"
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
  gate "offcheck: probe loop" "$(csv_ns "$csv" BM_ProbeNoEngine)" \
    "$(csv_ns "$csv" BM_Baseline)" 1.5

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

run_obsoff_phase() {
  local dir="$REPO_ROOT/build-soak-obsoff"
  note "obsoff: building (ICILK_OBS=OFF)"
  if ! build "$dir" -DICILK_OBS=OFF; then
    fail "obsoff build"
    return
  fi

  # (a) No observability machinery in the hot-path objects: census and
  # state-word hooks, the Watchdog and Profiler classes, the request
  # context's members, the profiler's bucket/scope hooks and thread
  # registration, the dispatch bracket's strand clock and the spanprof
  # flush and burden estimator. (ReqContext may still appear as a
  # mangled POINTER PARAMETER type, "...10ReqContextE", in
  # always-compiled signatures — a type name, not code; the table matches
  # members, "ReqContext<len><name>".)
  hook_check obsoff "$dir" OBS

  # (b) The hooks folded to nothing: each hook loop costs the same as its
  # plain baseline. Compiled in, attribution shows ~2x on micro_reqtrace's
  # runtime loop, the census hook ~60x and the profiler's TLS stores
  # ~2-4x on theirs, the armed TSC spanprof rows ~10-25x and the precise
  # rows ~100x, so the margins are unambiguous.
  note "obsoff: micro-bench hook loops == baseline"
  local out csv base mode
  out="$("$dir/bench/micro_reqtrace" 2>/dev/null)"
  echo "$out"
  gate "obsoff: micro_reqtrace attributed loop" "$(mode_ns "$out" runtime)" \
    "$(mode_ns "$out" runtime_base)" 1.4
  csv="$("$dir/bench/micro_watchdog" --benchmark_format=csv \
        2>/dev/null | tr -d '"')"
  base="$(csv_ns "$csv" BM_Baseline)"
  gate "obsoff: publish-state loop" "$(csv_ns "$csv" BM_PublishState)" "$base" 1.5
  gate "obsoff: census-note loop" "$(csv_ns "$csv" BM_CensusNote)" "$base" 1.5
  csv="$("$dir/bench/micro_profiler" --benchmark_format=csv \
        2>/dev/null | tr -d '"')"
  base="$(csv_ns "$csv" BM_Baseline)"
  gate "obsoff: set-context loop" "$(csv_ns "$csv" BM_SetContext)" "$base" 1.5
  gate "obsoff: prof-scope loop" "$(csv_ns "$csv" BM_ProfScope)" "$base" 1.5
  out="$("$dir/bench/micro_spanprof" hooks 2>/dev/null)"
  echo "$out"
  base="$(mode_ns "$out" base)"
  for mode in hook_disarmed hook_dispatch_pair hook_event \
              hook_dispatch_pair_precise hook_event_precise; do
    gate "obsoff: micro_spanprof $mode" "$(mode_ns "$out" "$mode")" "$base" 1.5
  done

  # (c) The OFF build still passes the observability tests: the classes
  # stay compiled and the surfaces still answer; hook-dependent cases skip.
  note "obsoff: ctest -L obs (OFF build)"
  if ! (cd "$dir" && ctest -L obs --output-on-failure -j 2); then
    fail "obsoff ctest -L obs"
  fi

  # (d) Clean-mode soak: watchdog sampler alongside real load with zero
  # invariant trips required (rate 0 = no faults, the false-positive
  # gate) — in the DEFAULT build, where the watchdog is live.
  note "obsoff: clean-mode soak (default build, watchdog on, rate 0)"
  if [ -x "$REPO_ROOT/build/bench/soak_inject" ]; then
    if ! "$REPO_ROOT/build/bench/soak_inject" "$DURATION" "$SEED" 0; then
      fail "obsoff clean-mode soak (replay: soak_inject $DURATION $SEED 0)"
    fi
  else
    echo "skipping clean-mode soak (build/bench/soak_inject not built)"
  fi
}

case "$PHASE" in
  tsan) run_sanitizer_phase tsan thread ;;
  asan) run_sanitizer_phase asan address ;;
  offcheck) run_offcheck_phase ;;
  attribution) run_attribution_phase ;;
  obsoff) run_obsoff_phase ;;
  all)
    run_sanitizer_phase tsan thread
    run_sanitizer_phase asan address
    run_offcheck_phase
    run_attribution_phase
    run_obsoff_phase
    ;;
  *)
    echo "usage: scripts/soak.sh [tsan|asan|offcheck|attribution|obsoff|all] [duration-s] [seed]" >&2
    exit 2
    ;;
esac

if [ "$FAILURES" -ne 0 ]; then
  printf '\nsoak.sh: %d phase check(s) FAILED\n' "$FAILURES"
  exit 1
fi
printf '\nsoak.sh: all checks passed\n'
