#!/usr/bin/env bash
# Paper scale (thesis ch. 6-7): crawl and publish the simulated site at the
# evaluation's 10 000 videos, then sweep uncached queries through
# ajaxserve over HTTP. Prints wall time, pages/s, states, events, network
# calls, peak RSS (VmHWM, read from /proc while the crawl runs), snapshot
# bytes and shard count, then the sweep's p50/p99. EXPERIMENTS.md "Paper
# scale" quotes its output; rerun it before and after a change to what
# the crawl keeps in memory. scripts/ab.sh alternates runs of it on a base
# revision and the working tree and says whether the two sides resolve.
#
# The fleet phase then splits the snapshot into two partitions (every
# second shard file, hard-linked, under a subset manifest.json written by
# jq), serves each twice behind ajaxrouter, fails unless all 210 sweep
# bodies through the router equal the single server's byte for byte, and
# runs `ajaxbench -exp capacity` against the router: capacity at the SLO,
# or one window at $PAPER_SCALE_RATE queries/s when that is set.
#
#   scripts/paper-scale.sh [videos] [workdir]   # default: 10000, a fresh mktemp -d
#   PAPER_SCALE_CRAWLS=3 scripts/paper-scale.sh  # crawl three times, quote the medians
#
# About 80 s and 0.6 GB of memory at 10 000 videos on 2 CPUs. CI runs it at
# 100 videos with PAPER_SCALE_RATE=50 so its flags and parsing keep working.
# ajaxserve listens on 127.0.0.1:$PAPER_SCALE_PORT (default 18391), the
# fleet on the next five ports.
set -euo pipefail
cd "$(dirname "$0")/.."

videos=${1:-10000}
work=${2:-$(mktemp -d)}
port=${PAPER_SCALE_PORT:-18391}
bin=$work/bin
rm -rf "$bin" "$work/snap" "$work/part0" "$work/part1"
mkdir -p "$bin"
go build -o "$bin/" ./cmd/ajaxcrawl ./cmd/ajaxserve ./cmd/ajaxrouter ./cmd/ajaxbench

# hwm prints a running process's peak resident set in kB (nothing once it
# has exited).
hwm() { awk '/^VmHWM:/ {print $2}' "/proc/$1/status" 2>/dev/null || true; }

# The crawl and publish run $PAPER_SCALE_CRAWLS times (default 1), each
# from scratch; one run's VmHWM does not resolve a 10 % change. Each run's
# wall time and VmHWM are printed, the summary quotes their medians, and
# the serving phases use the last run's snapshot.
crawls=${PAPER_SCALE_CRAWLS:-1}
: >"$work/crawls.txt"
for ((run = 1; run <= crawls; run++)); do
	rm -rf "$work/snap"
	start=$(date +%s%N)
	"$bin/ajaxcrawl" -sim "$videos" -pages "$videos" -lines 2 -sim-noisy -neardup 0.9 \
		-out "$work/snap" -json >"$work/crawl.json" 2>"$work/crawl.log" &
	pid=$!
	peak=0
	while kill -0 "$pid" 2>/dev/null; do
		kb=$(hwm "$pid")
		if [ -n "$kb" ]; then peak=$kb; fi
		sleep 0.05
	done
	wait "$pid" || { cat "$work/crawl.log" >&2; exit 1; }
	echo "$(($(date +%s%N) - start)) $peak" >>"$work/crawls.txt"
	awk -v r="$run" -v n="$crawls" '{ns = $1; kb = $2} END {printf "crawl %d/%d     %.1f s, VmHWM %.1f MB\n", r, n, ns / 1e9, kb * 1024 / 1e6}' "$work/crawls.txt"
done
# median prints the median of column $1 of the runs (the lower middle
# one for an even count).
median() { sort -n -k"$1" "$work/crawls.txt" | awk -v c="$1" '{v[NR] = $c} END {print v[int((NR + 1) / 2)]}'; }
wall_ns=$(median 1)
peak=$(median 2)

# The crawl's totals are the first occurrences in the -json document;
# the per-page records follow them.
field() { grep -m1 "\"$1\":" "$work/crawl.json" | tr -dc '0-9'; }
pages=$(field Pages)
shards=$(find "$work/snap" -name 'shard-*.bin' | wc -l)
shard_bytes=$(find "$work/snap" -name 'shard-*.bin' -printf '%s\n' | awk '{s += $1} END {print s}')
models_bytes=$(stat -c %s "$work/snap/ajaxmodels.gob")

pids=()
trap 'kill "${pids[@]}" 2>/dev/null || true' EXIT
# serve starts an ajaxserve on snapshot $1 at port $2.
serve() {
	"$bin/ajaxserve" -snapshot "$1" -addr "127.0.0.1:$2" >>"$work/serve.log" 2>&1 &
	pids+=($!)
}
# ready waits for port $1's /healthz.
ready() {
	for _ in $(seq 200); do
		if curl -sf "http://127.0.0.1:$1/healthz" >/dev/null; then return; fi
		sleep 0.05
	done
	echo "nothing healthy on port $1" >&2
	exit 1
}
serve "$work/snap" "$port"
spid=$!
ready "$port"
search() { curl -sf -o /dev/null -w '%{time_total}\n' "http://127.0.0.1:$port/search?q=$1&k=10"; }
# Warm the process with words the sweep does not use, then send each
# sweep query once: every one misses the result cache.
for q in love music song band guitar concert album classic; do search "$q" >/dev/null; done
words=(official video live acoustic session tour studio interview exclusive premiere
	morcheeba enjoy ride mysterious journey midnight summer ocean echo dreams)
sweep=()
for ((i = 0; i < ${#words[@]}; i++)); do
	sweep+=("${words[i]}")
	for ((j = i + 1; j < ${#words[@]}; j++)); do sweep+=("${words[i]}+${words[j]}"); done
done
: >"$work/latency.txt"
for q in "${sweep[@]}"; do search "$q" >>"$work/latency.txt"; done
serve_peak=$(hwm "$spid")

# The fleet: partition p holds shard files p, p+2, ...; the manifest keeps
# those entries, drops the models and re-sums the totals.
for p in 0 1; do
	mkdir -p "$work/part$p"
	jq --argjson p "$p" '.shards |= [to_entries[] | select(.key % 2 == $p) | .value]
		| del(.models)
		| .total_docs = ([.shards[].docs] | add)
		| .total_states = ([.shards[].states] | add)
		| .total_terms = ([.shards[].terms // 0] | add)' \
		"$work/snap/manifest.json" >"$work/part$p/manifest.json"
	jq -r '.shards[].file' "$work/part$p/manifest.json" | while read -r f; do
		ln "$work/snap/$f" "$work/part$p/$f"
	done
done
serve "$work/part0" $((port + 1))
serve "$work/part0" $((port + 2))
serve "$work/part1" $((port + 3))
serve "$work/part1" $((port + 4))
rport=$((port + 5))
"$bin/ajaxrouter" -addr "127.0.0.1:$rport" -replicas 2 \
	-shards "127.0.0.1:$((port + 1)),127.0.0.1:$((port + 2)),127.0.0.1:$((port + 3)),127.0.0.1:$((port + 4))" \
	>"$work/router.log" 2>&1 &
pids+=($!)
for p in 1 2 3 4 5; do ready $((port + p)); done
mismatches=0
for q in "${sweep[@]}"; do
	curl -sf -o "$work/single.body" "http://127.0.0.1:$port/search?q=$q&k=10"
	curl -sf -o "$work/fleet.body" "http://127.0.0.1:$rport/search?q=$q&k=10"
	cmp -s "$work/single.body" "$work/fleet.body" || { mismatches=$((mismatches + 1)); echo "fleet body differs: q=$q" >&2; }
done
kill "$spid"
wait "$spid" 2>/dev/null || true
rate=()
if [ -n "${PAPER_SCALE_RATE:-}" ]; then rate=(-rate "$PAPER_SCALE_RATE"); fi
"$bin/ajaxbench" -exp capacity -target "http://127.0.0.1:$rport" "${rate[@]}" >"$work/capacity.txt"
kill "${pids[@]}" 2>/dev/null || true
wait 2>/dev/null || true
trap - EXIT

# pct prints the p-th percentile (nearest rank) of the sweep in ms.
pct() { sort -g "$work/latency.txt" | awk -v p="$1" '{v[NR] = $1} END {r = int(NR * p / 100 + 0.999999); printf "%.2f", v[r] * 1000}'; }
mb() { awk -v b="$1" 'BEGIN {printf "%.1f MB", b / 1e6}'; }
printf '%-14s %s\n' \
	videos "$videos" \
	wall "$(awk -v n="$wall_ns" -v c="$crawls" 'BEGIN {printf "%.1f s (median of %d crawls)", n / 1e9, c}')" \
	pages/s "$(awk -v n="$wall_ns" -v p="$pages" 'BEGIN {printf "%.0f", p / (n / 1e9)}')" \
	pages "$pages" \
	states "$(field States)" \
	events "$(field EventsTriggered)" \
	"network calls" "$(field NetworkCalls)" \
	"peak RSS" "$(mb $((peak * 1024))) (crawl VmHWM, median); ajaxserve $(mb $((serve_peak * 1024)))" \
	snapshot "$(mb "$shard_bytes") in $shards shards, models file $(mb "$models_bytes")" \
	"query p50" "$(pct 50) ms ($(wc -l <"$work/latency.txt") uncached /search over HTTP)" \
	"query p99" "$(pct 99) ms" \
	fleet "2 parts x 2 replicas behind ajaxrouter, GOMAXPROCS ${GOMAXPROCS:-unset} on $(nproc) CPUs" \
	"fleet bodies" "$((${#sweep[@]} - mismatches))/${#sweep[@]} byte-identical to the single ajaxserve"
sed -n '/rate\/s/,$p' "$work/capacity.txt"
echo "work files under $work"
[ "$mismatches" -eq 0 ]
