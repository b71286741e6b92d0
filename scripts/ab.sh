#!/usr/bin/env bash
# Alternating A/B: measures a base revision (A) against the working tree
# (B) with n runs per side, alternating A, B, A, B, ..., and prints every
# run, each metric's median and range per side, and "resolved" for a
# metric only when the two sides' ranges do not overlap. One run per side
# does not resolve a 10 % change on shared hardware; the spread of the
# runs is the noise floor the verdict uses.
#
#   scripts/ab.sh <rev> [n]                       # n defaults to 3
#   AB_MODE=serve scripts/ab.sh HEAD~1 3
#   AB_MODE=bench AB_WORKLOAD=serve_fanout scripts/ab.sh HEAD~1 5
#
# AB_MODE picks the measurement (default crawl):
#   crawl  scripts/paper-scale.sh's crawl-and-publish wall and crawl VmHWM
#   serve  scripts/paper-scale.sh's ajaxserve VmHWM after the uncached
#          query sweep, and the sweep's p50 and p99
#   bench  one `bash benchmark/run.sh --workload $AB_WORKLOAD --seed 2008 --timed`
#          workload's end-to-end and timed metrics
# The paper-scale modes run AB_VIDEOS videos (default 10000) with the fleet
# phase's capacity probe cut to one window at PAPER_SCALE_RATE (default
# 50/s); each run crawls from scratch in its own work directory.
#
# <rev> is checked out as a detached git worktree under $TMPDIR and
# removed at exit; each side runs its own copy of the measuring script
# and builds from its own source. An A/A run (<rev> = HEAD on a clean
# tree) prints "not resolved" unless the noise itself separates. The
# script changes no machine setting: no cache drop, no CPU pinning, no
# cgroup. Needs bash, git, go, awk, curl and jq. A 10 000-video run takes
# about 40 s and 0.6 GB on 2 CPUs.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
if [ $# -lt 1 ]; then
	sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
	exit 2
fi
rev_sha=$(git rev-parse --verify "$1^{commit}")
n=${2:-3}
mode=${AB_MODE:-crawl}
videos=${AB_VIDEOS:-10000}
workload=${AB_WORKLOAD:-serve_fanout}
export PAPER_SCALE_RATE=${PAPER_SCALE_RATE:-50}
case "$mode" in crawl | serve | bench) ;; *)
	echo "ab: AB_MODE must be crawl, serve or bench, not $mode" >&2
	exit 2
	;;
esac

tmp=$(mktemp -d)
wt="$tmp/a"
cleanup() {
	git -C "$root" worktree remove --force "$wt" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$wt" "$rev_sha"
echo "ab: A = $rev_sha ($1), B = working tree of $root; $n runs per side of $mode" >&2
for tree in "$wt" "$root"; do
	(cd "$tree" && go build ./...) || { echo "ab: $tree does not build" >&2; exit 1; }
done

# measure <tree> <log>: one run of the mode in tree; prints "metric value"
# lines.
measure() {
	case "$mode" in
	bench)
		(cd "$1" && bash benchmark/run.sh --workload "$workload" --seed 2008 --timed) >"$2" 2>&1 || {
			cat "$2" >&2
			return 1
		}
		grep -m1 '^{' "$2" | jq -r '.metrics | to_entries[] | "\(.key) \(.value.value)"'
		;;
	*)
		rm -rf "$tmp/work"
		(cd "$1" && bash scripts/paper-scale.sh "$videos" "$tmp/work") >"$2" 2>&1 || {
			cat "$2" >&2
			return 1
		}
		awk -v mode="$mode" '
			/^wall / && mode == "crawl" {print "crawl_wall_s", $2}
			/^peak RSS / && mode == "crawl" {print "crawl_vmhwm_mb", $3}
			/^peak RSS / && mode == "serve" {for (i = 1; i < NF; i++) if ($i == "ajaxserve") print "ajaxserve_vmhwm_mb", $(i + 1)}
			/^query p50 / && mode == "serve" {print "sweep_p50_ms", $3}
			/^query p99 / && mode == "serve" {print "sweep_p99_ms", $3}' "$2"
		;;
	esac
}

: >"$tmp/runs"
for ((run = 1; run <= n; run++)); do
	for side in A B; do
		tree=$root
		if [ "$side" = A ]; then tree=$wt; fi
		measure "$tree" "$tmp/log" >"$tmp/one"
		echo "run $run $side: $(tr '\n' ' ' <"$tmp/one")"
		awk -v s="$side" '{print s, $1, $2}' "$tmp/one" >>"$tmp/runs"
	done
done

# One row per metric: each side's median (the lower middle run for an
# even n) and range, B/A, and the verdict.
echo
printf '%-22s %-28s %-28s %8s  %s\n' metric "A median [min, max]" "B median [min, max]" B/A verdict
awk '
	{v[$2, $1] = v[$2, $1] " " $3; if (!($2 in seen)) {seen[$2] = 1; order[++m] = $2}}
	function stats(list, out,    a, k, i, j, t) {
		k = split(substr(list, 2), a, " ")
		for (i = 1; i <= k; i++) for (j = i + 1; j <= k; j++) if (a[j] + 0 < a[i] + 0) {t = a[i]; a[i] = a[j]; a[j] = t}
		out["med"] = a[int((k + 1) / 2)]; out["min"] = a[1]; out["max"] = a[k]
	}
	END {
		for (i = 1; i <= m; i++) {
			name = order[i]
			stats(v[name, "A"], A); stats(v[name, "B"], B)
			verdict = (B["min"] + 0 > A["max"] + 0 || A["min"] + 0 > B["max"] + 0) ? "resolved" : "not resolved"
			ratio = (A["med"] + 0 != 0) ? sprintf("%.3f", B["med"] / A["med"]) : "-"
			printf "%-22s %-28s %-28s %8s  %s\n", name,
				sprintf("%g [%g, %g]", A["med"], A["min"], A["max"]),
				sprintf("%g [%g, %g]", B["med"], B["min"], B["max"]), ratio, verdict
		}
	}' "$tmp/runs"
