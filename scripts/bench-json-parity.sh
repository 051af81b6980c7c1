#!/usr/bin/env bash
# Compares the simulated fields of two sets of `perfcheck` reports.
#
#   scripts/bench-json-parity.sh <dir-a> <dir-b>
#
# Every BENCH_*.json in either directory must exist in both. Each file is
# normalised with `jq -S` after masking what depends on the host or the
# wall clock:
#
#   * keys containing `wall`, `steps_per_sec` or `speedup`;
#   * drain_overhead, overhead_within_budget, host_cores, host_workers,
#     steals, migrations;
#   * BENCH_9's `workers` (the 1, 2, N, 2N pool sizes follow the host) and
#     `pass` in BENCH_8 and BENCH_9 (it once folded in wall-clock gates);
#   * BENCH_9 `runs` rows whose `workers` is "1:1" (the thread-per-shard
#     driver, since removed; older reports still carry the row).
#
# Prints one verdict per file and a diff for each that differs. Exits 1 on
# any difference or missing file, 2 on bad usage.
set -euo pipefail

if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
  echo "usage: $0 <dir-a> <dir-b>" >&2
  exit 2
fi
command -v jq >/dev/null || { echo "$0: jq is required" >&2; exit 2; }

mask() {
  local extra=""
  case "$(basename "$1")" in
    BENCH_8.json) extra='|^pass$' ;;
    BENCH_9.json) extra='|^pass$|^workers$' ;;
  esac
  jq -S --arg re "wall|steps_per_sec|speedup|^(drain_overhead|overhead_within_budget|host_cores|host_workers|steals|migrations)\$$extra" '
    (if type == "object" and has("runs") then .runs |= map(select(.workers != "1:1")) else . end)
    | walk(if type == "object" then with_entries(select(.key | test($re) | not)) else . end)
  ' "$1"
}

files=$( { (cd "$1" && ls BENCH_*.json 2>/dev/null) || true; (cd "$2" && ls BENCH_*.json 2>/dev/null) || true; } | sort -u)
if [ -z "$files" ]; then
  echo "$0: no BENCH_*.json in $1 or $2" >&2
  exit 1
fi

status=0
for f in $files; do
  if [ ! -f "$1/$f" ] || [ ! -f "$2/$f" ]; then
    echo "$f: missing from one side"
    status=1
    continue
  fi
  # Plain assignments, so a jq failure stops the script under `set -e`
  # instead of comparing two empty outputs.
  a=$(mask "$1/$f")
  b=$(mask "$2/$f")
  if [ "$a" = "$b" ]; then
    echo "$f: identical"
  else
    echo "$f: DIFFERS"
    diff -u --label "$1/$f" --label "$2/$f" <(printf '%s\n' "$a") <(printf '%s\n' "$b") || true
    status=1
  fi
done
exit $status
