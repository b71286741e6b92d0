#!/usr/bin/env bash
# Docs-consistency gate: OPERATIONS.md and the code agree on every CLI
# flag and on every metric and span name, in both directions. CI runs
# this as the docs-consistency job; run it locally after adding or
# removing a flag, a metric or a span.
#
# Flags: every flag a cmd/* binary registers appears (backticked, with
# its dash) in OPERATIONS.md, and every flag a §1 table lists under a
# `### <binary>` heading is registered by that binary.
#
# Names: every name the code emits — a string literal passed to
# Counter, Gauge or Histogram, or the value of an obs.Span*/obs.Metric*
# constant — has a reader: it is
# backticked in full in OPERATIONS.md, a string in BENCHMARK.json, or
# quoted (or named through its constant) in a _test.go. And every
# dotted name §3 of OPERATIONS.md documents is emitted. A literal that
# ends in "." is a family completed at run time (`<prefix>.<i>`).
#
# Everything is extracted statically, so nothing is built or run.
set -euo pipefail
cd "$(dirname "$0")/.."

doc=OPERATIONS.md
status=0
fail() {
	echo "FAIL: $*" >&2
	status=1
}

# --- Flags -----------------------------------------------------------

# registered <cmd dir> prints the flag names the binary registers.
registered() {
	grep -rhoE 'flag\.(String|Bool|Int|Int64|Float64|Duration)\("[^"]+"' "$1" |
		sed -E 's/.*\("([^"]+)".*/\1/' | sort -u
}

for dir in cmd/*/; do
	bin=$(basename "$dir")
	for f in $(registered "$dir"); do
		grep -q -- "\`-$f\`" "$doc" || fail "$doc does not document \`-$f\` (registered by $bin)"
	done
done

# Doc → code: "binary flag" pairs from the first cell of every flag-table
# row (| `-name` | … or | `-a` / `-b` | …) between a `### <binary>`
# heading and the end of §1.
documented=$(awk '
	/^## 1\./ { in1 = 1; next }
	/^## /    { in1 = 0 }
	in1 && /^### / { bin = $2; next }
	in1 && bin != "" && /^\| `-/ {
		split($0, cells, "|")
		cell = cells[2]
		while (match(cell, /`-[A-Za-z0-9-]+`/)) {
			print bin, substr(cell, RSTART + 2, RLENGTH - 3)
			cell = substr(cell, RSTART + RLENGTH)
		}
	}' "$doc")
while read -r bin f; do
	[ -z "$bin" ] && continue
	if [ ! -d "cmd/$bin" ]; then
		fail "$doc documents flags under \`### $bin\` but cmd/$bin does not exist"
	elif ! registered "cmd/$bin" | grep -qx -- "$f"; then
		fail "$doc documents \`-$f\` under $bin, which does not register it"
	fi
done <<<"$documented"

# --- Names -----------------------------------------------------------

# Non-test Go sources outside the benchmark module, comment lines dropped.
src=$(git ls-files -co --exclude-standard '*.go' ':!:*_test.go' ':!:benchmark/')
tests=$(git ls-files -co --exclude-standard '*_test.go')
code=$(grep -hvE '^[[:space:]]*//' $src)

# One "name [const]" line per emitted name; a trailing "." becomes ".<i>".
emitted=$(
	{
		grep -oE '\.(Counter|Gauge|Histogram)\("[^"]+"' <<<"$code" |
			sed -E 's/.*\("([^"]+)"/\1/; s/\.$/.<i>/'
		grep -hoE '^[[:space:]]*(Span|Metric)[A-Za-z]+[[:space:]]*=[[:space:]]*"[^"]+"' internal/obs/*.go |
			sed -E 's/^[[:space:]]*([A-Za-z]+)[[:space:]]*=[[:space:]]*"([^"]+)"/\2 \1/'
	} | awk '!($1 in c) || $2 != "" { c[$1] = $2 } END { for (n in c) print n, c[n] }' | sort
)

while read -r name const; do
	[ -z "$name" ] && continue
	grep -qF -- "\`$name\`" "$doc" && continue
	grep -qF -- "\"$name\"" BENCHMARK.json && continue
	grep -qF -- "\"$name\"" $tests && continue
	[ -n "$const" ] && grep -qw -- "$const" $tests && continue
	fail "\`$name\` is emitted but nothing reads it (not backticked in $doc, not in BENCHMARK.json, not in a _test.go)"
done <<<"$emitted"

# Doc → code: every backticked dotted name in §3 whose first segment is
# a namespace the code emits in (so not a file name) is emitted, and is
# written in full.
names=$(cut -d' ' -f1 <<<"$emitted")
spaces=$(cut -d. -f1 <<<"$names" | sort -u)
section3=$(awk '/^## 3\./ { in3 = 1; next } /^## / { in3 = 0 } in3' "$doc")
for name in $(grep -oE '`\.?[a-z][a-z0-9_]*(\.[a-z0-9_<>]+)*`' <<<"$section3" | tr -d '`' | sort -u); do
	if [[ $name == .* ]]; then
		fail "$doc §3 abbreviates a name as \`$name\`; write it in full"
	elif [[ $name == *.* ]] && grep -qxF -- "${name%%.*}" <<<"$spaces" &&
		! grep -qxF -- "$name" <<<"$names"; then
		fail "$doc §3 documents \`$name\`, which nothing emits"
	fi
done

if [ "$status" -eq 0 ]; then
	echo "docs OK: $doc agrees with the cmd/* flags and the $(wc -l <<<"$emitted") emitted metric and span names"
fi
exit $status
