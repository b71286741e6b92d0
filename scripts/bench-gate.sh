#!/usr/bin/env bash
# Benchmark gate: runs the repository benchmark on a base revision and on
# the working tree with the same inputs, and fails when the change is
# worse than the base beyond BENCHMARK.json's bounds.
#
#   scripts/bench-gate.sh [base-rev]        # base-rev defaults to HEAD
#
# The base is checked out as a detached git worktree in a temporary
# directory outside the checkout ($TMPDIR), built and run there, and
# removed at exit. Both sides run
#
#   bash benchmark/run.sh --all --timed --seed 2008
#
# and each `workload <name> seed ...` header is paired with the JSON
# result line that follows it. The gate exits 1 when
#   - the change's run exits non-zero or reports a failed op or
#     correct:false (a failed op, a wrong answer, an aborted --all), or
#   - alloc_kb_per_op, mallocs_per_op, net_calls_per_op, wire_kb_per_op or
#     live_heap_mb exceeds base x (1 + its BENCHMARK.json bound) on any
#     workload.
# setup_s and the four timed metrics (ops_per_s, p50_ms, p90_ms,
# cpu_ms_per_op) are printed with their ratios and marked "unresolved"
# when worse than setup_s's bound, the largest in BENCHMARK.json (the
# timed metrics have none of their own), but never fail the gate: on
# shared hardware they move past it on identical code
# (benchmark/README.md, "Baseline and A/A spread").
#
# Needs bash, git, go and jq.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
base_rev=${1:-HEAD}
base_sha=$(git rev-parse --verify "$base_rev^{commit}")

tmp=$(mktemp -d)
wt="$tmp/base"
cleanup() {
	git -C "$root" worktree remove --force "$wt" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$wt" "$base_sha"

# bench <dir> <stdout file>: runs the benchmark in dir, prints its exit
# status. Its stderr (build and progress) passes through.
bench() {
	local status=0
	(cd "$1" && bash benchmark/run.sh --all --timed --seed 2008) >"$2" || status=$?
	echo "$status"
}

# results <stdout file>: the run's result objects keyed by workload.
results() {
	awk '/^workload [^ ]+ seed /{name=$2; next} /^\{/ && name != "" {print name "\t" $0; name=""}' "$1" |
		jq -R -s 'split("\n") | map(select(length > 0) | split("\t") | {key: .[0], value: (.[1] | fromjson)}) | from_entries'
}

echo "bench-gate: base $base_sha ($base_rev), change = working tree of $root" >&2
base_status=$(bench "$wt" "$tmp/base.out")
change_status=$(bench "$root" "$tmp/change.out")
results "$tmp/base.out" >"$tmp/base.json"
results "$tmp/change.out" >"$tmp/change.json"

# One row per workload x metric: workload, metric, base, change,
# change/base, bound, verdict (ok, FAIL, unresolved, missing).
rows=$(jq -r -n \
	--slurpfile contract BENCHMARK.json \
	--slurpfile base "$tmp/base.json" \
	--slurpfile change "$tmp/change.json" '
	$contract[0] as $c | $base[0] as $b | $change[0] as $ch
	| ($c.end_to_end + $c.per_layer | map({key: .name, value: .}) | from_entries) as $spec
	| ($spec.setup_s.bound) as $ceiling
	| ["alloc_kb_per_op", "mallocs_per_op", "net_calls_per_op", "wire_kb_per_op", "live_heap_mb"] as $gated
	| $c.workloads[].name as $w
	| ($gated + ["setup_s", "ops_per_s", "p50_ms", "p90_ms", "cpu_ms_per_op"])[] as $m
	| ($b[$w].metrics[$m].value) as $bv
	| ($ch[$w].metrics[$m].value) as $cv
	| ($spec[$m].bound // $ceiling) as $bound
	| if $bv == null or $cv == null then
		[$w, $m, ($bv // "-"), ($cv // "-"), "-", $bound, "missing"]
	  else
		(if $bv == 0 then (if $cv == 0 then 1 else infinite end) else $cv / $bv end) as $ratio
		| (if $spec[$m].better == "higher" then (if $ratio == 0 then infinite else 1 / $ratio end) else $ratio end) as $worse
		| [$w, $m, $bv, $cv, $ratio, $bound,
		   (if $worse <= 1 + $bound then "ok" elif ($gated | any(. == $m)) then "FAIL" else "unresolved" end)]
	  end
	| map(tostring) | join("\t")')

num() { if [ "$1" = - ]; then echo -; else printf "$2" "$1"; fi; }
printf '\n%-14s %-18s %12s %12s %8s %6s  %s\n' workload metric base change ratio bound verdict
fail=0
while IFS=$'\t' read -r w m bv cv ratio bound verdict; do
	printf '%-14s %-18s %12s %12s %8s %6s  %s\n' "$w" "$m" \
		"$(num "$bv" %.6g)" "$(num "$cv" %.6g)" "$(num "$ratio" %.4f)" "$bound" "$verdict"
	if [ "$verdict" = FAIL ]; then
		echo "bench-gate: $w $m ${cv} > base ${bv} x (1 + $bound)" >&2
		fail=1
	fi
done <<<"$rows"

if [ "$base_status" -ne 0 ]; then
	echo "bench-gate: the base run exited $base_status; workloads it did not finish are not compared" >&2
fi
bad=$(jq -r 'to_entries[] | select(.value.correct != true or .value.failed > 0) | .key' "$tmp/change.json")
if [ "$change_status" -ne 0 ] || [ -n "$bad" ]; then
	echo "bench-gate: the change's run exited $change_status${bad:+; failed or incorrect: $bad}" >&2
	fail=1
fi
if [ "$fail" -ne 0 ]; then
	echo "bench-gate: FAIL" >&2
	exit 1
fi
echo "bench-gate: ok (gated metrics within their BENCHMARK.json bounds on every workload)"
