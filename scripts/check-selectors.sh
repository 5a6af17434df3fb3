#!/usr/bin/env bash
# check-selectors.sh: fail when a test selector in a Makefile selects
# nothing.
#
# Every -run, -fuzz and -bench pattern of a `$(GO) test` command is
# split into its |-alternatives, and each alternative must match at
# least one test, fuzz target or benchmark that `go test -list .` reports
# for that command's packages. A test renamed or deleted out from under
# a gate then fails here instead of silently shrinking the gate. The
# run-nothing pattern '^$' is exempt.
#
# Usage: scripts/check-selectors.sh [Makefile]   (GO overrides the go binary)
set -euo pipefail

go=${GO:-go}
makefile=${1:-Makefile}
fail=0

# One logical line per `go test` command: join backslash continuations
# and undo make's $$ escaping.
commands=$(sed -e ':a' -e '/\\$/N; s/\\\n//; ta' "$makefile" | sed 's/\$\$/$/g' | grep -E '\$\(GO\) test' || true)

while IFS= read -r cmd; do
	sels=$(grep -oE -- "-(run|fuzz|bench) ('[^']*'|[^ ]+)" <<<"$cmd" || true)
	[ -n "$sels" ] || continue
	pkgs=$(tr ' \t;' '\n\n\n' <<<"$cmd" | grep -E '^\.(/|$)' | tr '\n' ' ')
	names=$($go test -list . $pkgs | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
	while IFS= read -r sel; do
		flag=${sel%% *}
		pattern=${sel#* }
		pattern=${pattern//\'/}
		[ "$pattern" != '^$' ] || continue
		IFS='|' read -ra alts <<<"$pattern"
		for alt in "${alts[@]}"; do
			if ! grep -Eq -- "$alt" <<<"$names"; then
				echo "selectors: $flag alternative '$alt' matches no test in $pkgs" >&2
				fail=1
			fi
		done
	done <<<"$sels"
done <<<"$commands"

exit $fail
