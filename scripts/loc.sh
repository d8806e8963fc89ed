#!/bin/sh
# Size of the tree the way ROADMAP.md states it: non-test, non-testdata Go
# lines per top-level package, and the //kairoslint:allow waivers in force
# (internal/lint only names the directive, so it is not counted there).
cd "$(dirname "$0")/.." || exit 1
src() { find "$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*'; }
loc() { printf '%-16s %6d\n' "$1" "$(shift; src "$@" | xargs cat | wc -l)"; }
loc root . -maxdepth 1; for d in internal/server internal/core internal/lint cmd bench; do loc "$d" "$d"; done
loc 'all but bench' . ! -path './bench/*'
allow() { src "$@" ! -path './internal/lint/*' | xargs grep -c '//kairoslint:allow' | awk -F: '{n += $2} END {print n}'; }
printf '%-16s %6d (+ %d in bench/)\n' '//kairoslint:allow' "$(allow . ! -path './bench/*')" "$(allow ./bench)"
