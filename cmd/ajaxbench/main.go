// Command ajaxbench regenerates every table and figure of the thesis's
// evaluation chapter (ch. 7) on the synthetic YouTube-like site, plus the
// ablation experiments called out in DESIGN.md — and doubles as the
// repo's perf harness: -report emits a versioned BENCH_<n>.json artifact
// (per-phase wall/CPU/alloc, span aggregates, registry snapshot) and
// -compare diffs two artifacts with tolerance bands, exiting non-zero on
// regression so CI can gate.
//
// Usage:
//
//	ajaxbench -exp t7.2 -videos 500
//	ajaxbench -exp all -videos 200 > results.txt
//	ajaxbench -exp t7.1,t7.2,t7.5 -videos 60 -report BENCH_7.json
//	ajaxbench -compare BENCH_6.json -compare-to BENCH_7.json
//	ajaxbench -exp t7.1,t7.2,t7.5 -videos 60 -compare BENCH_6.json
//
// Experiments (paper section in parentheses):
//
//	t7.1  dataset statistics (Table 7.1)
//	f7.1  videos per comment-page count (Figure 7.1)
//	f7.2  states & events vs crawled videos (Figure 7.2)
//	t7.2  crawl overhead traditional vs AJAX (Table 7.2)
//	f7.3  distribution of per-page crawl times (Figure 7.3)
//	f7.4  crawl time vs number of states (Figure 7.4)
//	f7.5  events causing network calls, cache on/off (Figure 7.5)
//	f7.6  network time, cache on/off (Figure 7.6)
//	f7.7  state throughput, cache on/off (Figure 7.7)
//	t7.3  parallel crawl times (Table 7.3)
//	f7.8  parallel vs serial mean crawl time (Figure 7.8)
//	t7.4  query occurrences first page vs all pages (Table 7.4)
//	t7.5  query processing times (Table 7.5)
//	f7.9  query throughput trad vs AJAX (Figure 7.9)
//	f7.10 relative throughput vs crawled states (Figure 7.10)
//	f7.11 1-RelRecall vs crawled states (Figure 7.11)
//	ablate-hotnode  hot-call cache keying strategies
//	ablate-dedup    hash vs structural duplicate detection
//	ablate-idf      global vs local idf in sharded ranking
//	neardup         noisy-app state collapse: exact vs brute-force vs LSH
//	router          sharded fan-out vs single snapshot: equality and overhead
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/obs/report"
	"ajaxcrawl/internal/webapp"
)

type env struct {
	ctx context.Context
	// out receives every experiment table; with -json the tables move
	// here (stderr) while stdout carries exactly one JSON document. The
	// writer is threaded explicitly so report/JSON output can never
	// interleave with table bytes.
	out     io.Writer
	site    *webapp.Site
	videos  int
	seed    int64
	latBase time.Duration
	latPerK time.Duration
	// Resilience knobs (zero-valued unless the -retries /
	// -breaker-threshold / -fault-rate flags are set): every experiment
	// crawl then runs the whole fault-tolerant stack, so tables can be
	// regenerated under chaos to measure the overhead of recovery.
	retry     *fetch.RetryPolicy
	breaker   *fetch.BreakerConfig
	faultRate float64
	// Frontier knobs for the parallel experiments (-frontier-seed,
	// -bloom-bits); zero values select the scheduler defaults.
	frontSeed int64
	bloomBits int
	// Near-duplicate knobs (-neardup, -neardup-bands, -sketch): a
	// non-zero threshold turns sketch-based state merging on for every
	// experiment crawl that does not set its own admission policy.
	nearDup      float64
	nearDupBands int
	sketch       core.SketchKind
}

// experiment is one runnable table/figure reproduction.
type experiment struct {
	id   string
	desc string
	run  func(*env) error
}

var experiments []experiment

func register(id, desc string, run func(*env) error) {
	experiments = append(experiments, experiment{id: id, desc: desc, run: run})
}

func main() {
	var (
		exp         = flag.String("exp", "", "experiment id(s), comma-separated (or 'all'); empty lists experiments")
		videos      = flag.Int("videos", 200, "dataset size in videos (paper: 10000)")
		seed        = flag.Int64("seed", 2008, "site generation seed")
		base        = flag.Duration("latency", 60*time.Millisecond, "simulated per-request base latency")
		perKB       = flag.Duration("latency-per-kb", 4*time.Millisecond, "simulated latency per KiB of body")
		verbose     = flag.Bool("v", false, "live span lines on stderr")
		metricsAddr = flag.String("metrics-addr", "", "serve /debug/metrics, /debug/status, /debug/trace/recent and pprof on this address")
		tracePath   = flag.String("trace", "", "write every span to this JSONL file")
		jsonOut     = flag.Bool("json", false, "print the final registry snapshot (plus the comparison verdict, when comparing) as one JSON document on stdout (tables move to stderr)")
		retries     = flag.Int("retries", 0, "retry transient fetch failures up to this many times per request (0 disables retrying)")
		retryBase   = flag.Duration("retry-base", 100*time.Millisecond, "initial retry backoff; doubles per retry with full jitter")
		breakerThr  = flag.Float64("breaker-threshold", 0, "per-host circuit-breaker failure-rate threshold in (0,1] (0 disables the breaker)")
		faultRate   = flag.Float64("fault-rate", 0, "inject transient fetch faults with this probability (chaos testing; seeded by -seed)")
		nearDup     = flag.Float64("neardup", 0, "merge states whose sketch similarity reaches this threshold in (0,1] (0 disables; 0.9 with the default minhash sketch, ~0.5 with -sketch simhash)")
		nearDupB    = flag.Int("neardup-bands", 0, "near-dup candidate lookup: 0 = LSH index with bands derived from -neardup (recall-preserving), -1 = brute-force linear scan, >0 = force that many bands (probabilistic, may miss merges)")
		sketchKind  = flag.String("sketch", "minhash", "near-dup signature family: minhash (64 permutations) or simhash (64-bit fingerprint, cheaper and coarser)")
		frontSeed   = flag.Int64("frontier-seed", 0, "seed for the parallel crawler's work-stealing scheduler (0 = default seed 1)")
		bloomBits   = flag.Int("bloom-bits", 0, "frontier dedup bloom-filter size in bits, rounded to a power of two (0 = default)")
		reportPath  = flag.String("report", "", "write this run's perf RunReport artifact (BENCH_<n>.json) to this path")
		reportName  = flag.String("report-name", "", "artifact name stamped into the report (default: the -report file's base name)")
		comparePath = flag.String("compare", "", "baseline report to diff against: the fresh run's report, or -compare-to when given")
		compareTo   = flag.String("compare-to", "", "right-hand report for a file-vs-file comparison (no experiments run)")
		compareTol  = flag.Float64("compare-tol", 0, "comparator relative tolerance band (0 = default 0.25)")
		compareWarn = flag.Bool("compare-warn", false, "report-only comparison: print the diff but never fail the exit code (CI soft gate)")
		sampleEvery = flag.Duration("sample", 0, "sample frontier/line/runtime time series at this cadence into the report and /debug/status (0 = off)")
	)
	flag.Parse()

	tol := report.Tolerance{Rel: *compareTol}

	// Pure artifact-vs-artifact mode: no experiments, just the diff.
	if *comparePath != "" && *compareTo != "" {
		oldR, err := report.Load(*comparePath)
		if err != nil {
			fatalf("compare: %v", err)
		}
		newR, err := report.Load(*compareTo)
		if err != nil {
			fatalf("compare: %v", err)
		}
		cmp := report.Compare(oldR, newR, tol)
		if *jsonOut {
			if err := cmp.WriteJSON(os.Stdout); err != nil {
				fatalf("compare: %v", err)
			}
			_ = cmp.WriteTable(os.Stderr)
		} else if err := cmp.WriteTable(os.Stdout); err != nil {
			fatalf("compare: %v", err)
		}
		if cmp.Regressed() && !*compareWarn {
			os.Exit(3)
		}
		return
	}

	if *exp == "" {
		if *comparePath != "" || *reportPath != "" {
			fatalf("-report/-compare need experiments to run: pass -exp (or use -compare with -compare-to for a file-vs-file diff)")
		}
		fmt.Println("available experiments:")
		for _, e := range experiments {
			fmt.Printf("  %-16s %s\n", e.id, e.desc)
		}
		fmt.Println("  all              run everything")
		return
	}

	// Validate the requested ids up front, so `-exp t7.1,typo` fails
	// fast instead of after minutes of crawling.
	wanted := map[string]bool{}
	if *exp != "all" {
		known := map[string]bool{}
		for _, x := range experiments {
			known[x.id] = true
		}
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if !known[id] {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (run without -exp for the list)\n", id)
				os.Exit(2)
			}
			wanted[id] = true
		}
		if len(wanted) == 0 {
			fatalf("-exp %q selects no experiments", *exp)
		}
	}

	cli, err := obs.CLITelemetry(obs.CLIConfig{
		MetricsAddr:   *metricsAddr,
		TracePath:     *tracePath,
		Verbose:       *verbose,
		ProgressSpans: obs.CrawlProgressSpans,
		SampleEvery:   *sampleEvery,
	})
	if err != nil {
		fatalf("telemetry: %v", err)
	}

	// With -json (or -report to stdout) the experiment tables move to
	// stderr, so stdout carries exactly one machine-readable document.
	var tables io.Writer = os.Stdout
	if *jsonOut {
		tables = os.Stderr
	}

	// Ctrl-C aborts the experiment batch between (and within) runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = obs.With(ctx, cli.Tel)
	cli.StartSampler(ctx)

	name := *reportName
	if name == "" && *reportPath != "" {
		name = strings.TrimSuffix(filepath.Base(*reportPath), ".json")
	}
	rec := report.NewRecorder(
		report.Meta{Name: name, Repo: "ajaxcrawl", Notes: "ajaxbench -exp " + *exp},
		report.Site{
			Videos: *videos, Seed: *seed,
			LatencyBaseMS:  float64(*base) / float64(time.Millisecond),
			LatencyPerKBMS: float64(*perKB) / float64(time.Millisecond),
		},
	)

	e := &env{
		ctx:          ctx,
		out:          tables,
		site:         webapp.New(webapp.DefaultConfig(*videos, *seed)),
		videos:       *videos,
		seed:         *seed,
		latBase:      *base,
		latPerK:      *perKB,
		faultRate:    *faultRate,
		frontSeed:    *frontSeed,
		bloomBits:    *bloomBits,
		nearDup:      *nearDup,
		nearDupBands: *nearDupB,
		sketch:       core.SketchKind(*sketchKind),
	}
	if *sketchKind != string(core.SketchMinHash) && *sketchKind != string(core.SketchSimHash) {
		fatalf("-sketch %q: want %s or %s", *sketchKind, core.SketchMinHash, core.SketchSimHash)
	}
	if *retries > 0 {
		e.retry = &fetch.RetryPolicy{MaxAttempts: *retries + 1, BaseDelay: *retryBase}
	}
	if *breakerThr > 0 {
		e.breaker = &fetch.BreakerConfig{FailureThreshold: *breakerThr}
	}
	var failed bool
	for _, x := range experiments {
		if *exp != "all" && !wanted[x.id] {
			continue
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted; skipping remaining experiments")
			break
		}
		fmt.Fprintf(tables, "== %s: %s ==\n", x.id, x.desc)
		start := time.Now()
		endPhase := rec.StartPhase(x.id)
		err := x.run(e)
		endPhase(err)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", x.id, err)
			failed = true
		}
		fmt.Fprintf(tables, "-- %s done in %v --\n\n", x.id, time.Since(start).Round(time.Millisecond))
	}
	if err := cli.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "close trace: %v\n", err)
		failed = true
	}

	rep := rec.Finish(cli.Reg.Snapshot(), cli.Spans.Aggregates(), cli.Sampler.Snapshot())
	if *reportPath != "" {
		if err := rep.Save(*reportPath); err != nil {
			fatalf("report: %v", err)
		}
		fmt.Fprintf(os.Stderr, "perf report written to %s (%d phases, %d span types)\n",
			*reportPath, len(rep.Phases), len(rep.Spans))
	}

	var cmp *report.Comparison
	if *comparePath != "" {
		oldR, err := report.Load(*comparePath)
		if err != nil {
			fatalf("compare: %v", err)
		}
		cmp = report.Compare(oldR, rep, tol)
		if err := cmp.WriteTable(tables); err != nil {
			fatalf("compare: %v", err)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		// Without a comparison the document stays a bare registry
		// snapshot (the pre-report contract); with one, both travel in
		// a single wrapper document.
		var doc any = rep.Registry
		if cmp != nil {
			doc = struct {
				Registry   obs.Snapshot       `json:"registry"`
				Comparison *report.Comparison `json:"comparison"`
			}{rep.Registry, cmp}
		}
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	if cmp != nil && cmp.Regressed() && !*compareWarn {
		os.Exit(3)
	}
}

// ---- shared helpers ----

// instrumented builds a latency-simulating fetcher on a virtual clock,
// with fault injection underneath when -fault-rate is set (so injected
// outcomes are counted like real ones).
func (e *env) instrumented(clock fetch.Clock) *fetch.Instrumented {
	var inner fetch.Fetcher = &fetch.HandlerFetcher{Handler: e.site.Handler()}
	if e.faultRate > 0 {
		maxConsec := 0
		if e.retry != nil {
			maxConsec = e.retry.MaxAttempts - 1
		}
		inner = fetch.NewFaultFetcher(inner, fetch.FaultConfig{
			ErrorRate:      e.faultRate,
			MaxConsecutive: maxConsec,
			Seed:           e.seed,
		}, clock)
	}
	return fetch.NewInstrumented(inner, clock, e.latBase, e.latPerK)
}

// plain builds an uninstrumented in-process fetcher (no latency).
func (e *env) plain() fetch.Fetcher {
	return &fetch.HandlerFetcher{Handler: e.site.Handler()}
}

// urls returns the first n watch URLs.
func (e *env) urls(n int) []string {
	if n > e.site.NumVideos() {
		n = e.site.NumVideos()
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = webapp.WatchURL(e.site.VideoID(i))
	}
	return out
}

// crawl runs a crawl over the first n videos with a fresh virtual clock
// and returns the metrics and application models.
func (e *env) crawl(n int, opts core.Options) (*core.Metrics, []*model.Graph, error) {
	clock := &fetch.VirtualClock{}
	inst := e.instrumented(clock)
	opts.Clock = clock
	opts.RetryPolicy = e.retry
	opts.BreakerConfig = e.breaker
	if opts.NearDupThreshold == 0 && e.nearDup > 0 {
		opts.NearDupThreshold = e.nearDup
		opts.NearDupBands = e.nearDupBands
	}
	if opts.Sketch == "" {
		opts.Sketch = e.sketch
	}
	c := core.New(inst, opts)
	graphs, m, err := c.CrawlAll(e.ctx, e.urls(n))
	if err != nil {
		return nil, nil, err
	}
	return m, graphs, nil
}

// scaledPrefixes maps the paper's video-count series onto the configured
// dataset size (paper series: 20,40,60,80,100,250,500 over 10000).
func (e *env) scaledPrefixes(series []int, paperMax int) []int {
	var out []int
	for _, s := range series {
		n := s * e.videos / paperMax
		if n < 1 {
			n = 1
		}
		if n > e.videos {
			n = e.videos
		}
		if len(out) > 0 && out[len(out)-1] == n {
			continue
		}
		out = append(out, n)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
