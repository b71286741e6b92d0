// Command ajaxcrawl crawls AJAX pages and publishes them as a search
// snapshot.
//
// It is a flag parser over the library pipeline of thesis chapters 3–6
// (ajaxcrawl.Precrawl and ajaxcrawl.BuildEngineFrom): precrawl (hyperlink
// graph + PageRank), then parallel AJAX crawling with the hot-node policy
// while every 20 consecutive URLs are indexed into one shard file. The
// -out directory receives the precrawl structures (precrawl.gob) before
// the crawl starts and, once it ends, the published snapshot: the shard
// files, the application models (ajaxmodels.gob, URL-sorted) and
// manifest.json, written last. `ajaxserve -snapshot <out>` serves it.
//
// Examples:
//
//	# Crawl 100 pages of the built-in synthetic site into ./crawl-out,
//	# then serve it.
//	ajaxcrawl -sim 500 -pages 100 -out ./crawl-out
//	ajaxserve -snapshot ./crawl-out
//
//	# Crawl a live site over HTTP.
//	ajaxcrawl -start http://host/watch?v=abc -pages 50 -out ./crawl-out
//
//	# Traditional (JavaScript-off) crawl for comparison.
//	ajaxcrawl -sim 500 -pages 100 -out ./trad-out -traditional
//
//	# Crash-tolerant crawl: journal progress, then resume after a kill.
//	ajaxcrawl -sim 500 -pages 100 -out ./crawl-out -checkpoint-dir ./crawl-out/checkpoints
//	ajaxcrawl -sim 500 -pages 100 -out ./crawl-out -resume
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
	"syscall"
	"time"

	"ajaxcrawl"
	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/webapp"
)

func main() {
	var (
		start       = flag.String("start", "", "start URL (http(s)://... for live crawling)")
		sim         = flag.Int("sim", 0, "crawl the built-in synthetic site with this many videos instead of a live URL")
		seed        = flag.Int64("seed", 2008, "synthetic site seed")
		pages       = flag.Int("pages", 50, "number of pages to precrawl")
		lines       = flag.Int("lines", 4, "parallel process lines")
		maxStates   = flag.Int("states", 11, "max states per page (incl. the initial one)")
		traditional = flag.Bool("traditional", false, "disable JavaScript (traditional crawl)")
		noHot       = flag.Bool("no-hotnode", false, "disable the hot-node cache")
		out         = flag.String("out", "crawl-out", "publish the serving snapshot (shards + models + manifest) into this directory, beside precrawl.gob")
		verbose     = flag.Bool("v", false, "per-page progress output (live span lines on stderr)")
		metricsAddr = flag.String("metrics-addr", "", "serve /debug/metrics, /debug/status, /debug/trace/recent and pprof on this address")
		tracePath   = flag.String("trace", "", "write every span to this JSONL file")
		sample      = flag.Duration("sample", 0, "sample frontier depth, line utilization and runtime stats at this cadence (feeds the /debug/status charts; 0 = off)")
		jsonOut     = flag.Bool("json", false, "print the final metrics snapshot as one JSON document on stdout")
		retries     = flag.Int("retries", 0, "retry transient fetch failures up to this many times per request (0 disables retrying)")
		retryBase   = flag.Duration("retry-base", 100*time.Millisecond, "initial retry backoff; doubles per retry with full jitter")
		faultRate   = flag.Float64("fault-rate", 0, "inject transient fetch faults with this probability (chaos testing; seeded by -seed)")
		ckptDir     = flag.String("checkpoint-dir", "", "journal crawl progress into this directory (crash tolerance; default <out>/checkpoints when -resume is set)")
		resume      = flag.Bool("resume", false, "resume a previous crawl: reuse the saved precrawl and replay the checkpoint journal so completed pages are not re-crawled")
		pageTimeout = flag.Duration("page-timeout", 0, "cut off a page whose crawl takes longer than this and count it failed (0 disables)")
		nearDup     = flag.Float64("neardup", 0, "merge states whose MinHash similarity reaches this threshold in (0,1] (0 disables; 0.9 is a reasonable setting)")
		simNoisy    = flag.Bool("sim-noisy", false, "give the synthetic site mutating page chrome (timestamp/view-counter/ad-slot) — the noisy-app workload that near-dup merging collapses")
	)
	flag.Parse()

	cli, err := obs.CLITelemetry(obs.CLIConfig{
		MetricsAddr:   *metricsAddr,
		TracePath:     *tracePath,
		Verbose:       *verbose,
		ProgressSpans: obs.CrawlProgressSpans,
		SampleEvery:   *sample,
	})
	if err != nil {
		fatal("telemetry: %v", err)
	}
	// With -json, stdout carries exactly one JSON document; the human
	// narration moves to stderr.
	var outw io.Writer = os.Stdout
	if *jsonOut {
		outw = os.Stderr
	}
	infof := func(format string, args ...interface{}) {
		fmt.Fprintf(outw, format+"\n", args...)
	}

	var fetcher fetch.Fetcher
	startURL := *start
	switch {
	case *sim > 0:
		cfg := webapp.DefaultConfig(*sim, *seed)
		cfg.NoisyDecor = *simNoisy
		site := webapp.New(cfg)
		fetcher = &fetch.HandlerFetcher{Handler: site.Handler()}
		if startURL == "" {
			startURL = webapp.WatchURL(site.VideoID(0))
		}
	case startURL != "":
		fetcher = &fetch.HTTPFetcher{}
	default:
		fmt.Fprintln(os.Stderr, "either -start or -sim is required")
		flag.Usage()
		os.Exit(2)
	}

	// Chaos testing: fault injection sits under the instrumentation, so
	// injected outcomes count in fetch.requests/fetch.errors like real
	// ones would.
	if *faultRate > 0 {
		fetcher = fetch.NewFaultFetcher(fetcher, fetch.FaultConfig{
			ErrorRate:      *faultRate,
			MaxConsecutive: *retries, // every URL stays recoverable within the retry budget
			Seed:           *seed,
		}, nil)
	}

	// An instrumented fetcher (zero added latency) feeds the fetch counters and
	// per-page NetworkTime; under -sim that is the in-process site's render time
	// plus line contention, not network time (ajaxbench's virtual clock models it).
	fetcher = fetch.NewInstrumented(fetcher, nil, 0, 0)

	// Ctrl-C cancels the pipeline gracefully: in-flight pages stop
	// within one page budget and the completed ones are still flushed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = obs.With(ctx, cli.Tel)
	cli.StartSampler(ctx)

	// -resume implies checkpointing; default the journal directory so
	// `ajaxcrawl -resume` alone picks up where the killed run left off.
	if *resume && *ckptDir == "" {
		*ckptDir = filepath.Join(*out, "checkpoints")
	}

	opts := core.Options{
		Traditional:      *traditional,
		UseHotNode:       !*noHot && !*traditional,
		MaxStates:        *maxStates,
		NearDupThreshold: *nearDup,
		PageTimeout:      *pageTimeout,
	}
	if *retries > 0 {
		opts.RetryPolicy = &fetch.RetryPolicy{
			MaxAttempts: *retries + 1,
			BaseDelay:   *retryBase,
		}
	}

	begin := time.Now()
	var preRes *core.PrecrawlResult
	if *resume {
		// The saved precrawl pins the URL universe and its order, so the
		// resumed run crawls exactly the pages of the killed one.
		loaded, lerr := core.LoadPrecrawl(*out)
		if lerr == nil {
			preRes = loaded
			infof("resume: reusing saved precrawl (%d pages)", len(preRes.URLs))
		} else {
			infof("resume: %v; precrawling fresh", lerr)
		}
	}
	// The precrawl retries like the crawl (cfg.Crawl.RetryPolicy): a
	// fault it gave up on would drop the page, and every link only it
	// leads to.
	cfg := ajaxcrawl.Config{Fetcher: fetcher, StartURL: startURL, MaxPages: *pages, ProcLines: *lines, Crawl: opts, WorkDir: *out}
	if preRes == nil {
		infof("precrawling %d pages from %s ...", *pages, startURL)
		var err error
		if preRes, err = ajaxcrawl.Precrawl(ctx, cfg); err != nil {
			fatal("%v", err)
		}
		if err := preRes.Save(*out); err != nil {
			fatal("save precrawl: %v", err)
		}
		infof("precrawl done: %d pages, %d link sources", len(preRes.URLs), len(preRes.Links))
	}

	if *ckptDir != "" {
		// One journal for every process line. A fresh run (-resume
		// omitted) discards a stale journal; a resume recovers it,
		// whatever line count wrote it.
		cp, err := core.OpenCheckpoint(ctx, *ckptDir, *resume)
		if err != nil {
			fatal("checkpoint: %v", err)
		}
		opts.Checkpoint = cp
		if n := cp.CompletedPages(); *resume && n > 0 {
			infof("resume: %d pages recovered from the journal", n)
		}
		infof("checkpointing crawl into %s", *ckptDir)
	}
	// Page loads reuse the precrawl's responses (a loaded one has none).
	// Each shard file is encoded into -out as its 20 URLs complete.
	cfg.Crawl = opts
	eng, err := ajaxcrawl.BuildEngineFrom(ctx, cfg, preRes)
	if opts.Checkpoint != nil {
		if cerr := opts.Checkpoint.Close(); cerr != nil {
			fatal("checkpoint close: %v", cerr)
		}
	}
	if eng == nil {
		// A recovered panic, or an interrupt before any page
		// completed: nothing is published, and the checkpoint journal
		// keeps the completed pages.
		fatal("%v", err)
	}
	// An interrupted run still publishes what completed, the
	// graceful-shutdown property. (A kill -9 gets no such chance; the
	// checkpoint journal is what survives it.)
	man, perr := eng.SaveSnapshot(*out)
	if perr != nil {
		fatal("publish: %v", perr)
	}
	m := eng.Metrics
	if err != nil {
		infof("interrupted: published partial snapshot for %d crawled pages", m.Pages)
	}
	if *verbose {
		for _, pm := range m.PerPage {
			infof("  %-50s states=%-3d events=%-4d net=%-4d time=%v",
				pm.URL, pm.States, pm.EventsTriggered, pm.NetworkCalls, pm.CrawlTime.Round(time.Millisecond))
		}
	}
	infof("crawled %d pages: %d states, %d events (%d hit the network), %d hot-node hits",
		m.Pages, m.States, m.EventsTriggered, m.NetworkEvents, m.HotNodeHits)
	if m.PagesFailed > 0 {
		infof("skipped %d failed pages", m.PagesFailed)
	}
	if m.PagesResumed > 0 {
		infof("resume: %d pages replayed from the checkpoint journal (not re-crawled)", m.PagesResumed)
	}
	if m.NearDupMerges > 0 {
		infof("near-dup: %d states merged (%d signatures compared)", m.NearDupMerges, m.NearDupCandidates)
	}
	if m.Retries > 0 {
		infof("resilience: %d retries recovered %d pages", m.Retries, m.PagesRecovered)
	}
	infof("snapshot %s published to %s (%d shards, %d docs, %d states) — serve it with: ajaxserve -snapshot %s",
		man.ID, *out, len(man.Shards), man.TotalDocs, man.TotalStates, *out)
	infof("total wall time: %v", time.Since(begin).Round(time.Millisecond))
	if err := cli.Close(); err != nil {
		fatal("close trace: %v", err)
	}
	if *jsonOut {
		doc := struct {
			Crawl    *core.Metrics `json:"crawl"`
			Registry obs.Snapshot  `json:"registry"`
		}{Crawl: m, Registry: cli.Reg.Snapshot()}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal("json: %v", err)
		}
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
