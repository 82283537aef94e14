#!/usr/bin/env bash
# Captures a performance baseline for regression tracking: the fig1
# memcached p99 sweep plus the reactor fast-path micro-bench with the
# freelists on and off (its RESULT rows, including the `handover` row's
# handover_us: outside write -> parked reader resumed, the completion
# publish and wake layer). Emits BENCH_<date>.json in the repo root
# (BENCH_<date>_runN.json on same-day reruns, so no data point is lost).
#
# Usage: bench/run_baseline.sh [build-dir] [fig1-duration-seconds]
set -euo pipefail

BUILD_DIR="${1:-build}"
FIG1_DURATION="${2:-2.0}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$(cd "$REPO_ROOT" && cd "$BUILD_DIR" && pwd)"
# Same-day reruns get a _runN suffix instead of clobbering earlier data.
STAMP="$(date +%Y%m%d)"
OUT="$REPO_ROOT/BENCH_${STAMP}.json"
idx=1
while [ -e "$OUT" ]; do
  idx=$((idx + 1))
  OUT="$REPO_ROOT/BENCH_${STAMP}_run${idx}.json"
done

FIG1="$BUILD_DIR/bench/fig1_memcached_p99"
MICRO="$BUILD_DIR/bench/micro_reactor_ops"
REQTRACE="$BUILD_DIR/bench/micro_reqtrace"
HOTPATH="$BUILD_DIR/bench/micro_sched_hotpath"
BURST="$BUILD_DIR/bench/fig_burst"
TSMICRO="$BUILD_DIR/bench/micro_timeseries"
SPMICRO="$BUILD_DIR/bench/micro_spanprof"
for bin in "$FIG1" "$MICRO"; do
  [ -x "$bin" ] || { echo "missing $bin — build first" >&2; exit 1; }
done

fig1_out=$(mktemp)
micro_on=$(mktemp)
micro_off=$(mktemp)
reqtrace_on=$(mktemp)
reqtrace_off=$(mktemp)
hotpath_out=$(mktemp)
burst_out=$(mktemp)
tsmicro_out=$(mktemp)
spmicro_out=$(mktemp)
trap 'rm -f "$fig1_out" "$micro_on" "$micro_off" "$reqtrace_on" "$reqtrace_off" "$hotpath_out" "$burst_out" "$tsmicro_out" "$spmicro_out"' EXIT

echo "== fig1 (duration ${FIG1_DURATION}s per point) =="
"$FIG1" "$FIG1_DURATION" | tee "$fig1_out"
echo "== micro_reactor_ops (pools on) =="
"$MICRO" | tee "$micro_on"
echo "== micro_reactor_ops (pools off) =="
ICILK_IO_POOL=0 "$MICRO" | tee "$micro_off"
# The request-tracing micro bench is optional (older build dirs lack it);
# its JSON fields backfill to null rather than failing the baseline.
if [ -x "$REQTRACE" ]; then
  echo "== micro_reqtrace (pools on) =="
  "$REQTRACE" | tee "$reqtrace_on"
  echo "== micro_reqtrace (pools off) =="
  ICILK_IO_POOL=0 "$REQTRACE" | tee "$reqtrace_off"
else
  echo "== micro_reqtrace missing; recording null =="
fi
# Scheduler hot-path costs (optional, like micro_reqtrace).
if [ -x "$HOTPATH" ]; then
  echo "== micro_sched_hotpath =="
  "$HOTPATH" | tee "$hotpath_out"
else
  echo "== micro_sched_hotpath missing; recording null =="
fi
# Burst resilience (optional): only the summary rows are recorded — the
# per-epoch rows are tsreport.py's axis, and the meta row's t0_ns stamp
# would never match between captures.
if [ -x "$BURST" ]; then
  echo "== fig_burst (short windows) =="
  "$BURST" --scheduler=prompt --pre=2 --burst=1 --post=3 \
    | tee /dev/stderr | grep ' phase=summary ' > "$burst_out" || true
else
  echo "== fig_burst missing; recording null =="
fi
# Time-series on/off overhead (optional).
if [ -x "$TSMICRO" ]; then
  echo "== micro_timeseries =="
  "$TSMICRO" | tee "$tsmicro_out"
else
  echo "== micro_timeseries missing; recording null =="
fi
# Work/span profiler hook costs + spanprof on/off p99 overhead (optional).
if [ -x "$SPMICRO" ]; then
  echo "== micro_spanprof =="
  "$SPMICRO" | tee "$spmicro_out"
else
  echo "== micro_spanprof missing; recording null =="
fi

# fig1 rows: "<scheduler> <rps> <p99ms> <p95ms> <n> <err> <p99min> <p99med>"
# p99_ms is the min-filtered trial; p99_min_ms/p99_med_ms are the
# per-trial spread (median is what regression gates should trust).
fig1_json() {
  awk '$2 ~ /^[0-9.]+$/ && $3 ~ /^[0-9.]+$/ && NF >= 8 {
    printf "%s{\"scheduler\":\"%s\",\"rps\":%s,\"p99_ms\":%s,\"p95_ms\":%s,\"completed\":%s,\"errors\":%s,\"p99_min_ms\":%s,\"p99_med_ms\":%s}",
      sep, $1, $2, $3, $4, $5, $6, $7, $8; sep=","
  }' "$1"
}

# micro rows: "RESULT mode=... threads=... ... k=v ..."
micro_json() {
  awk '/^RESULT / {
    printf "%s{", sep; sep=","
    fsep=""
    for (i = 2; i <= NF; i++) {
      split($i, kv, "=")
      v = kv[2]
      # Negative values must stay numeric: a quoted "-4.60" would become
      # part of the row's identity in bench_diff.py instead of a metric.
      if (v ~ /^-?[0-9.]+$/) printf "%s\"%s\":%s", fsep, kv[1], v
      else printf "%s\"%s\":\"%s\"", fsep, kv[1], v
      fsep=","
    }
    printf "}"
  }' "$1"
}

# Repository size stamped next to the perf rows: lines in the tracked
# files under each path (scripts/bench_diff.py shows them lower-is-better
# and never gates on them). null outside a git checkout.
tracked_lines() {
  if git -C "$REPO_ROOT" rev-parse --git-dir >/dev/null 2>&1; then
    git -C "$REPO_ROOT" ls-files -z -- "$@" |
      (cd "$REPO_ROOT" && xargs -0 cat) | wc -l
  else
    echo null
  fi
}
GIT_SHA=$(git -C "$REPO_ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)

# Build-flag provenance from the build dir's CMake cache: a baseline from
# a TRACE=OFF build is not comparable to one with tracing on, so the
# flags ride in the JSON. Missing cache entries backfill to null.
cache_flag() { # cache_flag <NAME> -> "ON"/"OFF"/null
  local v
  v=$(sed -n "s/^$1:BOOL=\(.*\)$/\1/p" "$BUILD_DIR/CMakeCache.txt" 2>/dev/null)
  if [ -n "$v" ]; then echo "\"$v\""; else echo null; fi
}

# Emits a bench-output JSON array, or null when the capture file is empty
# (binary missing / not built) so consumers can tell "not measured" from
# "measured nothing".
rows_or_null() { # rows_or_null <file> <json-fn>
  if [ -s "$1" ]; then echo "[$("$2" "$1")]"; else echo null; fi
}

{
  echo "{"
  echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
  echo "  \"git_sha\": \"$GIT_SHA\","
  echo "  \"host_cores\": $(nproc),"
  echo "  \"src_lines\": $(tracked_lines src),"
  echo "  \"scripts_lines\": $(tracked_lines scripts),"
  # The scheduler spec the capture ran under (benches honor
  # ICILK_SCHEDULER); bench_diff.py refuses to diff captures whose
  # scheduler stamps differ.
  echo "  \"scheduler\": \"${ICILK_SCHEDULER:-prompt}\","
  echo "  \"build_flags\": {"
  echo "    \"ICILK_TRACE\": $(cache_flag ICILK_TRACE),"
  echo "    \"ICILK_INJECT\": $(cache_flag ICILK_INJECT),"
  echo "    \"ICILK_REQTRACE\": $(cache_flag ICILK_REQTRACE),"
  echo "    \"ICILK_WATCHDOG\": $(cache_flag ICILK_WATCHDOG),"
  echo "    \"ICILK_PROFILE\": $(cache_flag ICILK_PROFILE),"
  echo "    \"ICILK_SPANPROF\": $(cache_flag ICILK_SPANPROF),"
  echo "    \"ICILK_SANITIZE\": $(sed -n 's/^ICILK_SANITIZE:STRING=\(.*\)$/"\1"/p' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null | grep . || echo null)"
  echo "  },"
  echo "  \"fig1_duration_s\": $FIG1_DURATION,"
  echo "  \"fig1\": [$(fig1_json "$fig1_out")],"
  echo "  \"micro_reactor_pools_on\": [$(micro_json "$micro_on")],"
  echo "  \"micro_reactor_pools_off\": [$(micro_json "$micro_off")],"
  echo "  \"micro_reqtrace_pools_on\": $(rows_or_null "$reqtrace_on" micro_json),"
  echo "  \"micro_reqtrace_pools_off\": $(rows_or_null "$reqtrace_off" micro_json),"
  echo "  \"micro_sched_hotpath\": $(rows_or_null "$hotpath_out" micro_json),"
  echo "  \"fig_burst\": $(rows_or_null "$burst_out" micro_json),"
  echo "  \"micro_timeseries\": $(rows_or_null "$tsmicro_out" micro_json),"
  echo "  \"micro_spanprof\": $(rows_or_null "$spmicro_out" micro_json)"
  echo "}"
} > "$OUT"

echo "wrote $OUT"

# BENCH_latest.json always points at the newest capture, so tooling (CI
# overhead gates, scripts/bench_diff.py --history) has a stable name for
# "the current baseline" without date arithmetic.
ln -sfn "$(basename "$OUT")" "$REPO_ROOT/BENCH_latest.json"
echo "linked BENCH_latest.json -> $(basename "$OUT")"

# Self-validate: the capture must parse as JSON and diff cleanly against
# itself (scripts/bench_diff.py is also the regression-tracking consumer,
# so this catches schema drift the moment it is introduced).
if command -v python3 >/dev/null 2>&1; then
  python3 "$REPO_ROOT/scripts/bench_diff.py" "$OUT" "$OUT" >/dev/null || {
    echo "self-validation FAILED: $OUT does not round-trip through scripts/bench_diff.py" >&2
    exit 1
  }
  echo "self-validation OK ($OUT parses and self-diffs clean)"
else
  echo "python3 not found; skipping bench_diff.py self-validation" >&2
fi
