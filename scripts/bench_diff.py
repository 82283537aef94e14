#!/usr/bin/env python3
"""Compare two bench/run_baseline.sh captures (BENCH_*.json).

Rows inside each benchmark section are matched by their identity fields
(everything non-numeric: scheduler, mode, pool, ...) plus the numeric
load-point fields that NAME a configuration rather than measure one
(rps, threads). Every other shared numeric field gets a delta; fields
where lower-is-better (latency / ns_per_op / allocs / errors) count as
REGRESSIONS when they worsen past the threshold, throughput fields
(ops_per_s, completed, *_hit_rate) when they DROP past it. The
repository size stamps (src_lines, scripts_lines) are shown
lower-is-better but never counted as regressions.

Usage: bench_diff.py OLD.json NEW.json [--threshold PCT]
       bench_diff.py --history [DIR] [--threshold PCT]

--history lists every BENCH_*.json capture in DIR (default: the repo
root, i.e. this script's parent directory) in chronological order with
its headline numbers, then diffs each consecutive pair — a one-command
view of how the baseline has drifted across PRs. The BENCH_latest.json
symlink run_baseline.sh maintains is excluded (it aliases a real
capture).

Exit code: 0 = no regression beyond threshold, 1 = regression(s),
2 = usage / parse error. Build-flag mismatches between the two captures
are warned about (an OFF-build baseline is not comparable to an ON one)
but do not by themselves fail the diff.
"""

import argparse
import glob
import json
import os
import sys

# Fields that name a load point rather than measure it: part of a row's
# identity, never diffed.
CONFIG_NUMERIC = {"rps", "threads", "ops", "fig1_duration_s"}
# Measured fields where a LOWER value is better. p99_med_ms (per-trial
# median) is the noise-robust fig1 gate; p99_ms/p99_min_ms are the
# min-filtered optimistic view.
LOWER_IS_BETTER = ("p99_ms", "p95_ms", "p99_min_ms", "p99_med_ms",
                   "ns_per_op", "allocs_per_op", "errors",
                   # fig_burst summary rows: burst-window depth, worst
                   # single epoch, and seconds back to the pre-burst p99.
                   "pre_p99_ms", "burst_p99_ms", "worst_epoch_p99_ms",
                   "recovery_s",
                   # micro_timeseries on-vs-off overhead.
                   "overhead_pct", "mean_us", "err",
                   # micro_reactor_ops: outside write -> parked reader
                   # resumed (completion publish and wake).
                   "handover_us")
# Measured fields where a HIGHER value is better.
HIGHER_IS_BETTER = ("ops_per_s", "completed", "op_pool_hit_rate",
                    "fut_pool_hit_rate", "recovered")


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def row_key(row):
    parts = []
    for k in sorted(row):
        v = row[k]
        if not is_number(v) or k in CONFIG_NUMERIC:
            parts.append(f"{k}={v}")
    return " ".join(parts)


def direction(field):
    if field in LOWER_IS_BETTER:
        return "lower"
    if field in HIGHER_IS_BETTER:
        return "higher"
    return None


def diff_section(name, old_rows, new_rows, threshold, out):
    """Returns the number of regressions found in one benchmark section."""
    old_by_key = {row_key(r): r for r in old_rows}
    regressions = 0
    matched = 0
    for new in new_rows:
        key = row_key(new)
        old = old_by_key.get(key)
        if old is None:
            out.append(f"  [{name}] {key}: new row (no baseline)")
            continue
        matched += 1
        for field in sorted(new):
            if not is_number(new[field]) or field in CONFIG_NUMERIC:
                continue
            if not is_number(old.get(field)):
                continue
            a, b = float(old[field]), float(new[field])
            if a == 0.0:
                delta = 0.0 if b == 0.0 else float("inf")
            else:
                delta = (b - a) / a * 100.0
            sense = direction(field)
            worse = (sense == "lower" and delta > threshold) or (
                sense == "higher" and delta < -threshold)
            flag = ""
            if worse:
                flag = "  <-- REGRESSION"
                regressions += 1
            # Keep the report readable: only print fields that moved, or
            # regressed.
            if abs(delta) >= 0.05 or worse:
                out.append(
                    f"  [{name}] {key}: {field} {a:g} -> {b:g} "
                    f"({delta:+.1f}%){flag}")
    if matched == 0 and old_rows and new_rows:
        out.append(f"  [{name}] no rows matched between captures")
    return regressions


# Repository size, stamped by run_baseline.sh: reported lower-is-better so
# the size trajectory sits beside the perf rows, but never gated on.
SIZE_FIELDS = ("src_lines", "scripts_lines")


def diff_size(old_doc, new_doc, out):
    for field in SIZE_FIELDS:
        a, b = old_doc.get(field), new_doc.get(field)
        if not (is_number(a) and is_number(b)) or a == b:
            continue
        delta = (b - a) / a * 100.0 if a else float("inf")
        out.append(f"  [size] {field}: {a:g} -> {b:g} ({delta:+.1f}%, "
                   f"lower is better, not gated)")


def load_doc(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot read {path}: {e}", file=sys.stderr)
        return None


def headline(doc):
    """One-line summary: the fig1 prompt-scheduler p99 at the highest rps
    plus capture provenance."""
    best = None
    for row in doc.get("fig1") or []:
        if not isinstance(row, dict) or row.get("scheduler") != "prompt":
            continue
        if is_number(row.get("rps")) and is_number(row.get("p99_ms")):
            if best is None or row["rps"] > best["rps"]:
                best = row
    if best is None:
        return "no fig1 prompt rows"
    return (f"prompt@{best['rps']:g}rps p99={best['p99_ms']:g}ms "
            f"completed={best.get('completed', '?')}")


def run_history(directory, threshold):
    captures = sorted(
        p for p in glob.glob(os.path.join(directory, "BENCH_*.json"))
        if os.path.basename(p) != "BENCH_latest.json")
    if not captures:
        print(f"bench_diff: no BENCH_*.json captures in {directory}",
              file=sys.stderr)
        return 2
    docs = []
    for path in captures:
        doc = load_doc(path)
        if doc is None:
            return 2
        docs.append((path, doc))
    # Filename order is chronological (BENCH_YYYYMMDD[_runN].json), but
    # trust the embedded timestamp when present.
    docs.sort(key=lambda pd: (pd[1].get("date") or "",
                              os.path.basename(pd[0])))

    print(f"{len(docs)} capture(s) in {directory}:")
    for path, doc in docs:
        print(f"  {os.path.basename(path):<28} sha {doc.get('git_sha', '?'):<9}"
              f" {doc.get('date', '?'):<22} {headline(doc)}")
    regressions = 0
    for (old_path, old_doc), (new_path, new_doc) in zip(docs, docs[1:]):
        print(f"\n== {os.path.basename(old_path)} -> "
              f"{os.path.basename(new_path)} ==")
        lines = []
        step = 0
        for section in sorted(set(old_doc) | set(new_doc)):
            old_rows = old_doc.get(section)
            new_rows = new_doc.get(section)
            if not isinstance(old_rows, list) or not isinstance(new_rows,
                                                                list):
                continue
            if not all(isinstance(r, dict) for r in old_rows + new_rows):
                continue
            step += diff_section(section, old_rows, new_rows, threshold,
                                 lines)
        diff_size(old_doc, new_doc, lines)
        for line in lines:
            print(line)
        if step:
            print(f"  {step} regression(s) beyond {threshold:g}% "
                  f"in this step")
        regressions += step
    print(f"\n{'FAIL' if regressions else 'OK'}: {regressions} "
          f"regression(s) across the history")
    return 1 if regressions else 0


def main():
    ap = argparse.ArgumentParser(
        description="diff two bench/run_baseline.sh JSON captures")
    ap.add_argument("old", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--history", nargs="?", const="", metavar="DIR",
                    help="list + pairwise-diff all BENCH_*.json in DIR "
                         "(default: the repo root)")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent (default 10)")
    args = ap.parse_args()

    if args.history is not None:
        directory = args.history or os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))
        return run_history(directory, args.threshold)
    if args.old is None or args.new is None:
        ap.error("OLD.json and NEW.json are required unless --history")

    docs = []
    for path in (args.old, args.new):
        try:
            with open(path, encoding="utf-8") as f:
                docs.append(json.load(f))
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_diff: cannot read {path}: {e}", file=sys.stderr)
            return 2
    old_doc, new_doc = docs

    # Captures taken under different schedulers measure different systems:
    # refuse outright rather than report spurious "regressions". Older
    # captures without the stamp (pre-scheduler-framework) skip the check.
    sched_old = old_doc.get("scheduler")
    sched_new = new_doc.get("scheduler")
    if sched_old is not None and sched_new is not None \
            and sched_old != sched_new:
        print(f"bench_diff: scheduler mismatch: {args.old} was captured "
              f"under '{sched_old}' but {args.new} under '{sched_new}'; "
              f"refusing to diff", file=sys.stderr)
        return 2

    flags_old = old_doc.get("build_flags") or {}
    flags_new = new_doc.get("build_flags") or {}
    for k in sorted(set(flags_old) | set(flags_new)):
        if flags_old.get(k) != flags_new.get(k):
            print(f"WARNING: build flag {k} differs: "
                  f"{flags_old.get(k)} vs {flags_new.get(k)} "
                  f"(captures may not be comparable)")

    print(f"old: {args.old} (sha {old_doc.get('git_sha', '?')}, "
          f"{old_doc.get('date', '?')})")
    print(f"new: {args.new} (sha {new_doc.get('git_sha', '?')}, "
          f"{new_doc.get('date', '?')})")
    print(f"threshold: {args.threshold:g}%")

    regressions = 0
    lines = []
    for section in sorted(set(old_doc) | set(new_doc)):
        old_rows = old_doc.get(section)
        new_rows = new_doc.get(section)
        if not isinstance(old_rows, list) or not isinstance(new_rows, list):
            continue
        if not all(isinstance(r, dict) for r in old_rows + new_rows):
            continue
        regressions += diff_section(section, old_rows, new_rows,
                                    args.threshold, lines)
    diff_size(old_doc, new_doc, lines)
    for line in lines:
        print(line)

    if regressions:
        print(f"FAIL: {regressions} regression(s) beyond "
              f"{args.threshold:g}%")
        return 1
    print("OK: no regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
