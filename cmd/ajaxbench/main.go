// Command ajaxbench regenerates every table and figure of the thesis's
// evaluation chapter (ch. 7) on the synthetic YouTube-like site, plus the
// ablation experiments called out in DESIGN.md and EXPERIMENTS.md. How a
// change to the code performs is measured by the repository benchmark
// (benchmark/, BENCHMARK.json), not here.
//
// Usage:
//
//	ajaxbench                      # lists the experiments, in run order
//	ajaxbench -exp t7.2 -videos 500
//	ajaxbench -exp all -videos 200 > results.txt
//	ajaxbench -exp capacity -target http://127.0.0.1:8090 [-rate 300]
//
// The listing printed with no arguments is the catalogue of experiment
// ids; EXPERIMENTS.md records what each one measured.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/webapp"
)

type env struct {
	ctx context.Context
	// out receives every experiment table; with -json the tables move
	// here (stderr) while stdout carries exactly one JSON document. The
	// writer is threaded explicitly so JSON output can never interleave
	// with table bytes.
	out     io.Writer
	site    *webapp.Site
	videos  int
	seed    int64
	latBase time.Duration
	latPerK time.Duration
	// Resilience knobs (zero-valued unless the -retries / -fault-rate
	// flags are set): every experiment crawl then runs the retry layer
	// over the fault injector, so tables can be regenerated under chaos
	// to measure the overhead of recovery.
	retry     *fetch.RetryPolicy
	faultRate float64
	// Near-duplicate threshold (-neardup): a non-zero one turns
	// MinHash-based state merging on for every experiment crawl that
	// does not set its own admission policy.
	nearDup float64
	// target and rate aim the capacity experiment: a /search base URL,
	// and a fixed offered rate (0 searches for capacity at the SLO).
	target string
	rate   float64
}

// experiment is one runnable table/figure reproduction.
type experiment struct {
	id   string
	desc string
	run  func(*env) error
}

// experiments is every reproduction in paper order — ch. 7's tables and
// figures, then the ablations — which is also the order -exp runs them.
var experiments = []experiment{
	{"t7.1", "dataset statistics (Table 7.1)", expT71},
	{"f7.1", "videos per comment-page count (Figure 7.1)", expF71},
	{"f7.2", "states & events vs crawled videos (Figure 7.2)", expF72},
	{"t7.2", "crawl overhead traditional vs AJAX (Table 7.2)", expT72},
	{"f7.3", "distribution of per-page crawl times (Figure 7.3)", expF73},
	{"f7.4", "crawl time vs number of states (Figure 7.4)", expF74},
	{"f7.5", "events causing network calls, cache on/off (Figure 7.5)", expF75},
	{"f7.6", "network time, cache on/off (Figure 7.6)", expF76},
	{"f7.7", "state throughput, cache on/off (Figure 7.7)", expF77},
	{"t7.3", "parallel crawl times (Table 7.3)", expT73},
	{"f7.8", "parallel vs serial mean crawl time (Figure 7.8)", expF78},
	{"t7.4", "query occurrences first page vs all pages (Table 7.4)", expT74},
	{"t7.5", "query processing times trad vs AJAX (Table 7.5)", expT75},
	{"f7.9", "query throughput trad vs AJAX (Figure 7.9)", expF79},
	{"f7.10", "relative query throughput vs crawled states (Figure 7.10)", expF710},
	{"f7.11", "1-RelRecall vs crawled states (Figure 7.11)", expF711},
	{"ablate-hotnode", "hot-call cache keyed by (fn,args) vs by URL vs off", ablateHotNode},
	{"ablate-dedup", "duplicate detection: canonical hash vs full-tree compare", ablateDedup},
	{"ablate-idf", "sharded ranking: global idf correction vs local idf", ablateIDF},
	{"ablate-neardup", "near-duplicate state merging vs granular-event explosion", ablateNearDup},
	{"neardup", "noisy-app collapse: exact vs near-dup admission", expNearDup},
	{"router", "sharded fan-out vs single snapshot: equality and merge overhead", expRouter},
	{"capacity", "open-loop load on a live -target: capacity at the SLO, or one -rate", expCapacity},
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
		jsonOut     = flag.Bool("json", false, "print the final registry snapshot as one JSON document on stdout (tables move to stderr)")
		retries     = flag.Int("retries", 0, "retry transient fetch failures up to this many times per request (0 disables retrying)")
		retryBase   = flag.Duration("retry-base", 100*time.Millisecond, "initial retry backoff; doubles per retry with full jitter")
		faultRate   = flag.Float64("fault-rate", 0, "inject transient fetch faults with this probability (chaos testing; seeded by -seed)")
		nearDup     = flag.Float64("neardup", 0, "merge states whose MinHash similarity reaches this threshold in (0,1] (0 disables; 0.9 is a reasonable setting)")
		target      = flag.String("target", "", "base URL of a live ajaxserve or ajaxrouter for -exp capacity, e.g. http://127.0.0.1:8090")
		rate        = flag.Float64("rate", 0, "-exp capacity: offer this many queries per second for one window (0 = search for capacity at the SLO)")
	)
	flag.Parse()

	if *exp == "" {
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
	})
	if err != nil {
		fatalf("telemetry: %v", err)
	}

	// With -json the experiment tables move to stderr, so stdout
	// carries exactly one machine-readable document.
	var tables io.Writer = os.Stdout
	if *jsonOut {
		tables = os.Stderr
	}

	// Ctrl-C aborts the experiment batch between (and within) runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = obs.With(ctx, cli.Tel)

	e := &env{
		ctx:       ctx,
		out:       tables,
		site:      webapp.New(webapp.DefaultConfig(*videos, *seed)),
		videos:    *videos,
		seed:      *seed,
		latBase:   *base,
		latPerK:   *perKB,
		faultRate: *faultRate,
		nearDup:   *nearDup,
		target:    *target,
		rate:      *rate,
	}
	if *retries > 0 {
		e.retry = &fetch.RetryPolicy{MaxAttempts: *retries + 1, BaseDelay: *retryBase}
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
		if err := x.run(e); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", x.id, err)
			failed = true
		}
		fmt.Fprintf(tables, "-- %s done in %v --\n\n", x.id, time.Since(start).Round(time.Millisecond))
	}
	if err := cli.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "close trace: %v\n", err)
		failed = true
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cli.Reg.Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
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
	n = min(n, e.site.NumVideos())
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
	if opts.NearDupThreshold == 0 && e.nearDup > 0 {
		opts.NearDupThreshold = e.nearDup
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
		n := min(max(s*e.videos/paperMax, 1), e.videos)
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
