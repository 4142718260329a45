#!/usr/bin/env bash
# Fail on library exports nothing outside their own module calls.
#
# For each `val NAME` in a tracked lib/**/*.mli, look for NAME as a whole
# word in the tracked files of lib, bin, bench, perfbench and examples,
# leaving out the module's own .ml and .mli. A name found nowhere is
# printed, `(test only)` when test/ uses it, unless
# test/unused_exports.allow lists it with its reason; an allow-list
# entry that no longer matches such a name is printed as stale. Exits 1
# when anything is printed. The match is by word, so a name that two
# modules share hides both: this is a lower bound on the dead surface.
#
# Usage: test/unused_exports.sh   (from the repository root; `make unused`)
set -euo pipefail

allow=test/unused_exports.allow
mapfile -t users < <(git ls-files lib bin bench perfbench examples)
mapfile -t tests < <(git ls-files test)
mapfile -t allowed < <(sed -n 's/^\(lib[^ ]*\.mli\) \([^ ]*\) .*/\1 \2/p' "$allow")

status=0
found=()
for mli in $(git ls-files 'lib/*.mli'); do
  own_ml="${mli%.mli}.ml"
  others=()
  for f in "${users[@]}"; do
    [ "$f" = "$mli" ] || [ "$f" = "$own_ml" ] || others+=("$f")
  done
  for name in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\) *:.*/\1/p" "$mli" |
    sort -u); do
    grep -qw -- "$name" "${others[@]}" && continue
    found+=("$mli $name")
    for a in "${allowed[@]}"; do [ "$a" = "$mli $name" ] && continue 2; done
    status=1
    if grep -qw -- "$name" "${tests[@]}"; then
      echo "$mli: $name  (test only)"
    else
      echo "$mli: $name"
    fi
  done
done
for a in "${allowed[@]}"; do
  for f in "${found[@]}"; do [ "$f" = "$a" ] && continue 2; done
  status=1
  echo "$allow: ${a/ /: }  (stale: no longer unused)"
done
exit $status
