#!/usr/bin/env bash
# Interpreter reach: which statements of internal/js, and which library
# functions, the crawls actually execute. Builds the seven examples,
# ajaxbench and ajaxcrawl with coverage over every package, runs them on
# the simulated sites, and prints internal/js's statement coverage and
# the covered functions of its library files (builtins.go, json.go).
# DESIGN.md "Interpreter contract" quotes its output; rerun it after
# changing the library or the sites' scripts.
#
#   scripts/js-reach.sh [workdir]    # default: a fresh mktemp -d
#
# The -coverpkg list must include the main packages, or the binaries
# write no coverage data. About a minute on 2 CPUs.
set -euo pipefail
cd "$(dirname "$0")/.."

work=${1:-$(mktemp -d)}
bin=$work/bin
cov=$work/cov
rm -rf "$bin" "$cov"
mkdir -p "$bin" "$cov"

go build -cover -coverpkg=./... -o "$bin/" ./cmd/ajaxcrawl ./cmd/ajaxbench ./examples/...

export GOCOVERDIR=$cov
for ex in forms newsapp parallel quickstart threshold youtube; do
	"$bin/$ex" >/dev/null
done
"$bin/ajaxbench" -exp all -videos 40 >/dev/null
"$bin/ajaxcrawl" -sim 100 -sim-noisy -neardup 0.9 -out "$work/out" >/dev/null
unset GOCOVERDIR

go tool covdata percent -i "$cov" -pkg ajaxcrawl/internal/js
go tool covdata textfmt -i "$cov" -pkg ajaxcrawl/internal/js -o "$work/js.cov"
echo "library functions reached:"
go tool cover -func "$work/js.cov" | awk '$1 ~ /\/(builtins|json)\.go:/ && $3 != "0.0%"'
echo "coverage data under $work"
