#!/usr/bin/env bash
# Smoke of the bench harness: runs the chaos suite of bench/main.exe in a
# temporary directory and checks the BENCH_chaos.json it writes: the
# environment stamp, the number of rounds behind every timed value, and
# the min and max beside the timed key of every row.
#
# Usage: test/bench_smoke.sh PATH/TO/bench/main.exe
set -euo pipefail

bench="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

"$bench" chaos > out.txt
f=BENCH_chaos.json
fail() {
  echo "bench smoke: $*" >&2
  cat "$f" >&2 || true
  exit 1
}
[ -f "$f" ] || fail "no $f written"
grep -q '^  "env": {"git_rev": ".*", "lib_digest": ".*", "nproc": [0-9]*, "ocaml": ".*"},$' "$f" ||
  fail "no env stamp"
grep -q '^  "repeats": [1-9][0-9]*,$' "$f" || fail "no repeats"
rows=$(grep -c '^    {"case": ' "$f")
[ "$rows" -eq 9 ] || fail "expected 9 result rows, got $rows"
timed=$(grep -c '"open_us": [0-9.]*, "open_us_min": [0-9.]*, "open_us_max": [0-9.]*}' "$f")
[ "$timed" -eq "$rows" ] || fail "open_us_min/open_us_max beside open_us in $timed of $rows rows"
echo "bench smoke: ok"
