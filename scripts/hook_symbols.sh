#!/usr/bin/env bash
# Compile-out proof over the table in scripts/hook_symbols.txt.
#
#   scripts/hook_symbols.sh absent <build-dir> FLAG...
#       <build-dir> was configured with ICILK_<FLAG>=OFF for every FLAG:
#       fail if any hot-path object matches one of their patterns.
#   scripts/hook_symbols.sh live <build-dir> [FLAG...]
#       <build-dir> is a default (all ON) build: fail if a pattern not
#       marked "inline" matches no hot-path object (all flags when none
#       are given).
#
# Exit 0 when the check holds, 1 when it fails, 2 on usage errors.
set -uo pipefail

TABLE="$(dirname "$0")/hook_symbols.txt"
OBJECTS=(
  src/io/CMakeFiles/icilk_io.dir/reactor.cpp.o
  src/core/CMakeFiles/icilk_core.dir/policy/prompt_policy.cpp.o
  src/core/CMakeFiles/icilk_core.dir/policy/multiqueue_policy.cpp.o
  src/core/CMakeFiles/icilk_core.dir/policy/adaptive_policy.cpp.o
  src/core/CMakeFiles/icilk_core.dir/runtime.cpp.o
)

mode="${1:-}"
dir="${2:-}"
if [ -z "$mode" ] || [ -z "$dir" ]; then
  sed -n '2,12p' "$0" >&2
  exit 2
fi
shift 2
flags=("$@")

# rows <mode>: "FLAG PATTERN" for the selected flags (live mode skips
# "inline" rows).
rows() {
  local flag pattern mark f
  while read -r flag pattern mark; do
    case "$flag" in '' | '#'*) continue ;; esac
    [ "$1" = live ] && [ "$mark" = inline ] && continue
    if [ "${#flags[@]}" -gt 0 ]; then
      for f in "${flags[@]}"; do [ "$f" = "$flag" ] && break; done
      [ "$f" = "$flag" ] || continue
    fi
    echo "$flag $pattern"
  done < "$TABLE"
}

status=0
syms=()
for o in "${OBJECTS[@]}"; do
  if [ ! -f "$dir/$o" ]; then
    echo "missing object: $dir/$o"
    exit 1
  fi
  syms+=("$(nm "$dir/$o")")
done

case "$mode" in
  absent)
    [ "${#flags[@]}" -gt 0 ] || { echo "absent: name the OFF flags" >&2; exit 2; }
    for i in "${!OBJECTS[@]}"; do
      hits=""
      while read -r flag pattern; do
        hit="$(grep -- "$pattern" <<< "${syms[$i]}" | head -3)"
        [ -n "$hit" ] && hits+="  [$flag] $pattern:"$'\n'"$hit"$'\n'
      done < <(rows absent)
      if [ -n "$hits" ]; then
        echo "hook symbols survived compile-out in ${OBJECTS[$i]}:"
        printf '%s' "$hits"
        status=1
      else
        echo "clean: ${OBJECTS[$i]}"
      fi
    done
    ;;
  live)
    while read -r flag pattern; do
      n=0
      for s in "${syms[@]}"; do
        grep -q -- "$pattern" <<< "$s" && n=$((n + 1))
      done
      echo "[$flag] $pattern: matches $n of ${#OBJECTS[@]} hot-path objects"
      [ "$n" -gt 0 ] || status=1
    done < <(rows live)
    ;;
  *)
    sed -n '2,12p' "$0" >&2
    exit 2
    ;;
esac
exit "$status"
