// Command benchmark is the repository's benchmark: four closed-loop
// workloads over the public entry points (ajaxcrawl.BuildEngine /
// Engine.SaveSnapshot for crawling; serve.Server and router.Server on
// real loopback listeners for serving), six gated end-to-end metrics per
// workload, and a traced run that prices each layer from outside, the
// op's four timed metrics first among them.
// README.md is the catalogue; ../BENCHMARK.json is the contract.
//
//	bash benchmark/run.sh --workload crawl_cpu --seed 2008 --seconds 16 --trace 0
//	bash benchmark/run.sh --all
//	bash benchmark/run.sh --aa 10
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// processStart anchors setup_s at the first instruction the program
// controls.
var processStart = time.Now()

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (crawl_cpu, crawl_net, serve_single, serve_fanout)")
		all      = flag.Bool("all", false, "run the four workloads in sequence")
		seed     = flag.Int64("seed", 2008, "input seed: the same seed gives the same site, corpus and query stream")
		seconds  = flag.Float64("seconds", runSeconds, "measuring window per run")
		trace    = flag.Int("trace", 0, "1 = traced run: report the per-layer metrics and write out/trace_<workload>.json")
		aa       = flag.Int("aa", 0, "run the suite N times with N seeds and print each metric's spread against its bound")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for work files and traces (created, inside the checkout)")
		contract = flag.Bool("contract", false, "print BENCHMARK.json as the catalogue defines it, and exit")
		timed    = flag.Bool("timed", false, "untraced run: also put the ungated timed metrics in the result object (what --aa reads)")
	)
	flag.Parse()
	// The load never exceeds the cores the issue measured on; pinning
	// keeps a run comparable on a bigger host.
	runtime.GOMAXPROCS(2)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *contract:
		err = printContract(os.Stdout)
	case *aa > 0:
		err = runAA(ctx, *aa, *seed, *seconds, *outDir)
	case *all:
		start := processStart
		for i := range workloads {
			if err = runOne(ctx, &workloads[i], *seed, *seconds, *trace, *timed, *outDir, start); err != nil {
				break
			}
			start = time.Now()
		}
	default:
		def := findWorkload(*name)
		if def == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			flag.Usage()
			os.Exit(2)
		}
		err = runOne(ctx, def, *seed, *seconds, *trace, *timed, *outDir, processStart)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

// runOne runs one workload and prints its report: a table for people,
// then the result object as the last line of standard output. Any
// failed op makes the run an error (and the process exit non-zero)
// after the report is printed.
func runOne(ctx context.Context, def *workloadDef, seed int64, seconds float64, trace int, timed bool, outDir string, start time.Time) error {
	work := filepath.Join(outDir, fmt.Sprintf("%s-%d", def.Name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	newWorkload := func() workload { return def.New(seed, work, false) }

	var res *runResult
	var err error
	if trace != 0 {
		res, err = runTraced(ctx, def, newWorkload, seed, seconds, outDir, stderrLog)
	} else {
		res, err = runUntraced(ctx, newWorkload, driverOpts(seconds, start))
	}
	if err != nil {
		return fmt.Errorf("%s: %w", def.Name, err)
	}
	if timed {
		for n, m := range res.ungated {
			res.Metrics[n] = m
		}
		res.ungated = nil
	}
	if err := printReport(def.Name, seed, res); err != nil {
		return err
	}
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed: %v", def.Name, res.Failed, res.Attempted, res.firstErr)
	}
	return nil
}

func printReport(name string, seed int64, res *runResult) error {
	fmt.Printf("workload %s seed %d: %d rounds, %d ops attempted, %d failed\n",
		name, seed, res.rounds, res.Attempted, res.Failed)
	table := func(metrics map[string]metric, note string) {
		names := make([]string, 0, len(metrics))
		for n := range metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := metrics[n]
			fmt.Printf("  %-40s %16.6g %-6s%s\n", n, m.Value, m.Unit, note)
		}
	}
	table(res.Metrics, "")
	table(res.ungated, " (layer metric, not gated)")
	line, err := json.Marshal(res)
	if err != nil {
		// A NaN or Inf metric: a measurement that divided by nothing.
		return fmt.Errorf("%s: result is not reportable: %w", name, err)
	}
	fmt.Println(string(line))
	return nil
}
