#!/usr/bin/env bash
# Report the library exports nothing outside their own module calls.
#
# For each `val NAME` in a tracked lib/**/*.mli, look for NAME as a whole
# word in the tracked files of lib, bin, bench, perfbench and examples,
# leaving out the module's own .ml and .mli. A name found nowhere is
# printed; `(test only)` marks one that test/ uses. The match is by word,
# so a name that two modules share hides both: the list is a lower bound
# on the dead surface, a report to read, not a gate.
#
# Usage: test/unused_exports.sh   (from the repository root; `make unused`)
set -euo pipefail

mapfile -t users < <(git ls-files lib bin bench perfbench examples)
mapfile -t tests < <(git ls-files test)

for mli in $(git ls-files 'lib/*.mli'); do
  own_ml="${mli%.mli}.ml"
  others=()
  for f in "${users[@]}"; do
    [ "$f" = "$mli" ] || [ "$f" = "$own_ml" ] || others+=("$f")
  done
  for name in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\) *:.*/\1/p" "$mli" |
    sort -u); do
    grep -qw -- "$name" "${others[@]}" && continue
    if grep -qw -- "$name" "${tests[@]}"; then
      echo "$mli: $name  (test only)"
    else
      echo "$mli: $name"
    fi
  done
done
