#!/usr/bin/env bash
# Paper scale (thesis ch. 7): crawl and publish the simulated site at the
# evaluation's 10 000 videos, then sweep uncached queries through
# ajaxserve over HTTP. Prints wall time, pages/s, states, events, network
# calls, peak RSS (VmHWM, read from /proc while the crawl runs), snapshot
# bytes and shard count, then the sweep's p50/p99. EXPERIMENTS.md "Paper
# scale" quotes its output; rerun it before and after a change to what
# the crawl keeps in memory.
#
#   scripts/paper-scale.sh [videos] [workdir]   # default: 10000, a fresh mktemp -d
#
# About 30 s and 0.6 GB of memory at 10 000 videos on 2 CPUs. CI runs it at
# 100 videos so its flags and parsing keep working. ajaxserve listens on
# 127.0.0.1:$PAPER_SCALE_PORT (default 18391) for the sweep.
set -euo pipefail
cd "$(dirname "$0")/.."

videos=${1:-10000}
work=${2:-$(mktemp -d)}
port=${PAPER_SCALE_PORT:-18391}
bin=$work/bin
rm -rf "$bin" "$work/out" "$work/snap"
mkdir -p "$bin"
go build -o "$bin/" ./cmd/ajaxcrawl ./cmd/ajaxserve

# hwm prints a running process's peak resident set in kB (nothing once it
# has exited).
hwm() { awk '/^VmHWM:/ {print $2}' "/proc/$1/status" 2>/dev/null || true; }

start=$(date +%s%N)
"$bin/ajaxcrawl" -sim "$videos" -pages "$videos" -lines 2 -sim-noisy -neardup 0.9 \
	-out "$work/out" -save-index "$work/snap" -json >"$work/crawl.json" 2>"$work/crawl.log" &
pid=$!
peak=0
while kill -0 "$pid" 2>/dev/null; do
	kb=$(hwm "$pid")
	if [ -n "$kb" ]; then peak=$kb; fi
	sleep 0.05
done
wait "$pid" || { cat "$work/crawl.log" >&2; exit 1; }
wall_ns=$(($(date +%s%N) - start))

# The crawl's totals are the first occurrences in the -json document;
# the per-page records follow them.
field() { grep -m1 "\"$1\":" "$work/crawl.json" | tr -dc '0-9'; }
pages=$(field Pages)
shards=$(find "$work/snap" -name 'shard-*.bin' | wc -l)
shard_bytes=$(find "$work/snap" -name 'shard-*.bin' -printf '%s\n' | awk '{s += $1} END {print s}')
models_bytes=$(stat -c %s "$work/snap/ajaxmodels.gob")

"$bin/ajaxserve" -snapshot "$work/snap" -addr "127.0.0.1:$port" >"$work/serve.log" 2>&1 &
spid=$!
trap 'kill "$spid" 2>/dev/null || true' EXIT
for _ in $(seq 200); do
	if curl -sf "http://127.0.0.1:$port/healthz" >/dev/null; then break; fi
	sleep 0.05
done
search() { curl -sf -o /dev/null -w '%{time_total}\n' "http://127.0.0.1:$port/search?q=$1&k=10"; }
# Warm the process with words the sweep does not use, then send each
# sweep query once: every one misses the result cache.
for q in love music song band guitar concert album classic; do search "$q" >/dev/null; done
words=(official video live acoustic session tour studio interview exclusive premiere
	morcheeba enjoy ride mysterious journey midnight summer ocean echo dreams)
: >"$work/latency.txt"
for ((i = 0; i < ${#words[@]}; i++)); do
	search "${words[i]}" >>"$work/latency.txt"
	for ((j = i + 1; j < ${#words[@]}; j++)); do
		search "${words[i]}+${words[j]}" >>"$work/latency.txt"
	done
done
serve_peak=$(hwm "$spid")
kill "$spid"
wait "$spid" 2>/dev/null || true
trap - EXIT

# pct prints the p-th percentile (nearest rank) of the sweep in ms.
pct() { sort -g "$work/latency.txt" | awk -v p="$1" '{v[NR] = $1} END {r = int(NR * p / 100 + 0.999999); printf "%.2f", v[r] * 1000}'; }
mb() { awk -v b="$1" 'BEGIN {printf "%.1f MB", b / 1e6}'; }
printf '%-14s %s\n' \
	videos "$videos" \
	wall "$(awk -v n="$wall_ns" 'BEGIN {printf "%.1f s", n / 1e9}')" \
	pages/s "$(awk -v n="$wall_ns" -v p="$pages" 'BEGIN {printf "%.0f", p / (n / 1e9)}')" \
	pages "$pages" \
	states "$(field States)" \
	events "$(field EventsTriggered)" \
	"network calls" "$(field NetworkCalls)" \
	"peak RSS" "$(mb $((peak * 1024))) (crawl VmHWM); ajaxserve $(mb $((serve_peak * 1024)))" \
	snapshot "$(mb "$shard_bytes") in $shards shards, models file $(mb "$models_bytes")" \
	"query p50" "$(pct 50) ms ($(wc -l <"$work/latency.txt") uncached /search over HTTP)" \
	"query p99" "$(pct 99) ms"
echo "work files under $work"
