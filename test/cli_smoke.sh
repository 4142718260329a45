#!/usr/bin/env bash
# End-to-end smoke of the seed command line in a temporary directory:
# init, add, set (indexed and unindexed paths), select, explain (an indexed probe, and a conjunction
# whose short needle the planner leaves to the re-test), an
# export/import/export round trip into a fresh store, fsck, the shell's
# show/versions/report printing what the subcommands print, shell updates
# while an old version is selected, the update commands of `connect`
# against a background `serve`, and stores written in snapshot formats 1
# and 2 (test/fixtures/v1_store, v2_store) opened, appended to and
# salvaged.
#
# Usage: test/cli_smoke.sh PATH/TO/seed_cli.exe
set -euo pipefail

seed="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
fixtures="$(cd "$(dirname "$0")" && pwd)/fixtures"
work="$(mktemp -d)"
serve_pid=""
# SIGTERM the background server, wait up to 10 s for it to exit, then
# kill it; false when it had to be killed
stop_serve() {
  local pid=$serve_pid
  serve_pid=""
  [ -n "$pid" ] || return 0
  kill -TERM "$pid" 2>/dev/null || true
  for _ in $(seq 100); do
    kill -0 "$pid" 2>/dev/null || return 0
    sleep 0.1
  done
  kill -KILL "$pid" 2>/dev/null || true
  return 1
}
trap 'stop_serve || true; rm -rf "$work"' EXIT
cd "$work"

fail() {
  echo "cli smoke: $*" >&2
  exit 1
}

"$seed" init db >/dev/null
"$seed" add db Alpha --class Data >/dev/null
"$seed" add db Beta --class Action >/dev/null
"$seed" set db Alpha.Description "the recovery path" >/dev/null

# a path names one place: Keywords is multi-valued, so an unindexed set
# is refused and leaves Keywords[0] alone, and an indexed one creates
# its place; setting it again sets the same place
"$seed" set db 'Alpha.Keywords[0]' kw1 >/dev/null
! "$seed" set db Alpha.Keywords kw2 >/dev/null 2>&1 ||
  fail "set of an unindexed multi-valued role accepted"
"$seed" set db 'Alpha.Keywords[2]' kw >/dev/null || fail "set Alpha.Keywords[2] refused"
"$seed" set db 'Alpha.Keywords[2]' kw >/dev/null || fail "second set Alpha.Keywords[2] refused"
"$seed" show db Alpha >kw.out
[ "$(grep -c 'Alpha.Keywords' kw.out)" = 2 ] &&
  grep -q 'Alpha.Keywords\[0\] .* = "kw1"' kw.out &&
  grep -q 'Alpha.Keywords\[2\] .* = "kw"' kw.out || fail "keywords: $(cat kw.out)"

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

# shell updates resolve names in the current state, whatever version is
# selected for retrieval: Foo's item here is younger than version 1.0
"$seed" init sel >/dev/null
"$seed" add sel Foo --class Data >/dev/null
printf 'snapshot\ndelete Foo\nadd Data Foo\nselect 1.0\nset Foo.Description new\n' |
  "$seed" shell sel >sel.out
! grep -q 'error' sel.out || fail "shell update under select 1.0: $(cat sel.out)"
"$seed" show sel Foo | grep -q 'Foo.Description .* = "new"' ||
  fail "shell set under select 1.0 not applied: $("$seed" show sel Foo)"

# connect's update commands are applied by the server, and a value is
# read for the type of its place: "42" stays a STRING, a DATE literal
# is a date
"$seed" init srv >/dev/null
"$seed" add srv Alpha --class Data >/dev/null
"$seed" add srv Beta --class Action >/dev/null
"$seed" serve srv --port 0 >serve.log 2>&1 &
serve_pid=$!
port=""
for _ in $(seq 100); do
  port="$(sed -n 's/^seed: serving .* on .*:\([0-9][0-9]*\) .*/\1/p' serve.log)"
  [ -n "$port" ] && break
  sleep 0.1
done
[ -n "$port" ] || fail "serve printed no address: $(cat serve.log)"
"$seed" connect "127.0.0.1:$port" --client smoke -e "checkout Alpha; \
  set Alpha.Description 42; checkout Alpha; set Alpha.Revised 1986-02-05; \
  add Data Gamma; checkout Gamma Beta; link Access Gamma Beta; \
  checkout Gamma; reclassify Gamma InputData" >connect.out ||
  fail "connect updates: $(cat connect.out)"
stop_serve || fail "serve did not stop on SIGTERM"
"$seed" show srv >srv.out
grep -q 'Alpha.Description .* = "42"' srv.out || fail "STRING 42: $(cat srv.out)"
grep -q 'Alpha.Revised .* = 1986-02-05' srv.out || fail "DATE: $(cat srv.out)"
grep -q '^Gamma : InputData' srv.out || fail "reclassify: $(cat srv.out)"
"$seed" export srv | grep -q '^rel Access (Gamma, Beta)' ||
  fail "link: $("$seed" export srv)"

# a store an earlier release wrote (snapshot format 1 or 2) prints what
# that release printed, takes appends, and salvage rewrites it as
# format 3: the payload's first byte, after the 16-byte header, is the
# zig-zag varint 3
for v in 1 2; do
  fixture="$fixtures/v${v}_store"
  cp -r "$fixture/db" "v$v"
  chmod -R u+w "v$v"
  "$seed" export "v$v" | cmp -s - "$fixture/export.txt" || fail "format-$v export differs"
  "$seed" stats "v$v" | cmp -s - "$fixture/stats.txt" || fail "format-$v stats differ"
  "$seed" fsck "v$v" | cmp -s - "$fixture/fsck.txt" || fail "format-$v fsck differs"
  "$seed" add "v$v" Late --class Module >/dev/null
  "$seed" export "v$v" >"v$v.before"
  "$seed" salvage "v$v" >/dev/null || fail "salvage of a format-$v store exited $?"
  [ "$(od -An -tu1 -j16 -N1 "v$v/snapshot.bin" | tr -d ' ')" = 6 ] ||
    fail "salvage of a format-$v store did not write format 3"
  "$seed" export "v$v" | cmp -s - "v$v.before" || fail "salvage changed the format-$v export"
  grep -q '^object Late : Module' "v$v.before" || fail "append to a format-$v store lost"
done
