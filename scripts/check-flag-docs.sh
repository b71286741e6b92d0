#!/usr/bin/env bash
# Docs-consistency gate, both directions: every CLI flag registered by
# a cmd/* binary must appear (backticked, with its dash) in OPERATIONS.md
# §1, and every flag a §1 flag table documents under a `### <binary>`
# heading must be registered by that binary — so the runbook's flag
# tables stay in lockstep with the code whether a flag is added or
# deleted. CI runs this as the docs-consistency job; run it locally
# after adding or removing a flag.
#
# Flags are extracted statically from the flag.<Type>("name", ...)
# registration calls — the whole tree registers flags with string
# literals, so no binary needs to be built or executed.
set -euo pipefail
cd "$(dirname "$0")/.."

doc=OPERATIONS.md
status=0

# registered <cmd dir> prints the flag names the binary registers.
registered() {
	grep -rhoE 'flag\.(String|Bool|Int|Int64|Float64|Duration)\("[^"]+"' "$1" |
		sed -E 's/.*\("([^"]+)".*/\1/' | sort -u
}

for dir in cmd/*/; do
	bin=$(basename "$dir")
	flags=$(registered "$dir")
	[ -z "$flags" ] && continue
	for f in $flags; do
		if ! grep -q -- "\`-$f\`" "$doc"; then
			echo "FAIL: $doc does not document \`-$f\` (registered by $bin)" >&2
			status=1
		fi
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
		echo "FAIL: $doc documents flags under \`### $bin\` but cmd/$bin does not exist" >&2
		status=1
	elif ! registered "cmd/$bin" | grep -qx -- "$f"; then
		echo "FAIL: $doc documents \`-$f\` under $bin, which does not register it" >&2
		status=1
	fi
done <<<"$documented"

if [ "$status" -eq 0 ]; then
	echo "flag docs OK: cmd/* flags and the $doc flag tables agree"
fi
exit $status
