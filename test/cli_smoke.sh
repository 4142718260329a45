#!/usr/bin/env bash
# End-to-end smoke of the seed command line in a temporary directory:
# init, add, set, select, explain (an indexed probe, and a conjunction
# whose short needle the planner leaves to the re-test), an
# export/import/export round trip into a fresh store, fsck, and the
# shell's show/versions/report printing what the subcommands print.
#
# Usage: test/cli_smoke.sh PATH/TO/seed_cli.exe
set -euo pipefail

seed="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

fail() {
  echo "cli smoke: $*" >&2
  exit 1
}

"$seed" init db >/dev/null
"$seed" add db Alpha --class Data >/dev/null
"$seed" add db Beta --class Action >/dev/null
"$seed" set db Alpha.Description "the recovery path" >/dev/null

"$seed" select db --class Data >select.out
[ "$(cat select.out)" = "Alpha : Data" ] || fail "select --class Data: $(cat select.out)"

"$seed" explain db contains=recovery >explain1.out ||
  fail "explain contains=recovery exited $?"
grep -q '^plan: indexed' explain1.out || fail "contains=recovery is not indexed"
"$seed" explain db contains=ab and contains=recovery >explain2.out ||
  fail "explain contains=ab and contains=recovery exited $?"
[ "$(grep -c '^text index:' explain2.out)" = 1 ] ||
  fail "expected one text lookup: $(cat explain2.out)"
grep -q 'contains "recovery" (' explain2.out ||
  fail "the lookup is not over \"recovery\" alone: $(cat explain2.out)"

"$seed" export db >export1.txt
"$seed" init fresh >/dev/null
"$seed" import fresh export1.txt >/dev/null
"$seed" export fresh >export2.txt
cmp -s export1.txt export2.txt || fail "export of the imported store differs"

"$seed" fsck db >fsck.out || fail "fsck exited $?: $(cat fsck.out)"
grep -q 'status: *healthy' fsck.out || fail "fsck: $(cat fsck.out)"

# a store with a pattern, an inheritor and a derived version: the shell
# prints each listing exactly as its subcommand does
"$seed" init lst >/dev/null
"$seed" add lst Common --class Data --pattern >/dev/null
"$seed" set lst Common.Description "shared text" >/dev/null
"$seed" add lst Alarms --class Data >/dev/null
"$seed" add lst Sensor --class Action >/dev/null
echo "inherit Common Alarms" | "$seed" shell lst >/dev/null
"$seed" snapshot lst >/dev/null
"$seed" set lst Alarms.Revised 1986-02-05 >/dev/null
"$seed" snapshot lst >/dev/null
"$seed" branch lst 1.0 >/dev/null
"$seed" snapshot lst >/dev/null
for cmd in show versions report; do
  "$seed" "$cmd" lst >"$cmd.cli" || fail "$cmd exited $?"
  echo "$cmd" | "$seed" shell lst | sed 's/seed> //g' >"$cmd.shell"
  cmp -s "$cmd.cli" "$cmd.shell" ||
    fail "shell $cmd differs from seed $cmd: $(diff "$cmd.cli" "$cmd.shell")"
done
grep -q '(inherited)' show.cli || fail "show lists no inherited item"
grep -q '^patterns:' show.cli || fail "show lists no patterns"
grep -q '(from 1.0)' versions.cli || fail "versions shows no derivation"
