// Command ajaxserve is the long-running search daemon: it loads the
// shards and manifest of a saved index snapshot (as written by
// `ajaxcrawl -out` or Engine.SaveSnapshot; it never reads the
// models) and answers keyword queries over HTTP until stopped — the
// serving half of the search engine the crawling CLIs only build.
//
//	# Crawl and publish a snapshot, then serve it.
//	ajaxcrawl -sim 500 -pages 100 -out ./crawl-out
//	ajaxserve -snapshot ./crawl-out -addr :8090
//
//	# Query it.
//	curl 'http://localhost:8090/search?q=morcheeba+singer&k=5'
//	curl 'http://localhost:8090/healthz'
//	curl 'http://localhost:8090/debug/metrics?format=prom'
//
//	# Re-crawl into the same directory while serving; ajaxserve notices
//	# the new manifest ID and hot-swaps without dropping a request.
//	ajaxserve -snapshot ./crawl-out/snapshot -watch 5s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/serve"
)

func main() {
	var (
		snapshot    = flag.String("snapshot", "", "snapshot directory to serve (required)")
		addr        = flag.String("addr", "127.0.0.1:8090", "listen address")
		defaultK    = flag.Int("k", 10, "default result count when ?k= is absent")
		maxK        = flag.Int("max-k", 100, "upper bound on ?k=")
		cacheSize   = flag.Int("cache-size", 1024, "result cache capacity in entries (0 uses the default)")
		cacheShards = flag.Int("cache-shards", 8, "result cache shard count")
		cacheTTL    = flag.Duration("cache-ttl", 0, "result cache entry TTL (0 = entries live until swap/eviction)")
		maxInflight = flag.Int("max-inflight", 64, "concurrently evaluating queries before shedding with 429 (0 = unlimited)")
		budgetFloor = flag.Duration("budget-floor", 0, "fast-reject queries whose X-Ajaxserve-Budget-Ms remainder is at or below this (0 = 2ms)")
		timeout     = flag.Duration("timeout", 2*time.Second, "per-query deadline (0 = none)")
		watch       = flag.Duration("watch", 0, "poll the manifest at this interval and hot-swap on changes (0 = off)")
		verbose     = flag.Bool("v", false, "live span lines on stderr")
		tracePath   = flag.String("trace", "", "write every span to this JSONL file")
		sample      = flag.Duration("sample", 0, "sample request/inflight/runtime series at this cadence for /debug/status (0 = off)")
	)
	flag.Parse()
	if *snapshot == "" {
		fmt.Fprintln(os.Stderr, "-snapshot is required")
		flag.Usage()
		os.Exit(2)
	}

	// The sampler tracks serving traffic rather than the crawl defaults:
	// in-flight queries (gauge) and total requests (counter), plus the
	// runtime series.
	cli, err := obs.CLITelemetry(obs.CLIConfig{
		TracePath:     *tracePath,
		Verbose:       *verbose,
		ProgressSpans: []string{obs.SpanQueryExec},
		SampleEvery:   *sample,
		Sample: obs.SamplerConfig{
			Gauges:   []string{"http.inflight"},
			Counters: []string{"http.requests", "query.cache.hits"},
		},
	})
	if err != nil {
		fatal("telemetry: %v", err)
	}

	srv, err := serve.New(serve.Config{
		SnapshotDir:   *snapshot,
		DefaultK:      *defaultK,
		MaxK:          *maxK,
		CacheShards:   *cacheShards,
		CacheCapacity: *cacheSize,
		CacheTTL:      *cacheTTL,
		MaxInflight:   *maxInflight,
		BudgetFloor:   *budgetFloor,
		QueryTimeout:  *timeout,
	}, cli.Tel)
	if err != nil {
		fatal("load snapshot: %v", err)
	}
	live, man := srv.QueryServer().Live(), srv.Manifest()
	fmt.Printf("serving snapshot %s: %d shard files, %d docs, %d states\n",
		man.ID, len(man.Shards), live.Docs, live.States)
	fmt.Printf("search:  http://%s/search?q=...&k=%d\n", *addr, *defaultK)
	fmt.Printf("metrics: http://%s/debug/metrics (Prometheus: ?format=prom), health: http://%s/healthz\n", *addr, *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cli.StartSampler(ctx)

	if *watch > 0 {
		fmt.Printf("watching %s for new manifests every %v\n", *snapshot, *watch)
		go srv.Watch(ctx, *watch)
	}

	// One mux serves queries and the debug surface; /search and
	// /healthz ride behind the request-counting middleware, so
	// http.requests / http.latency reflect live query traffic.
	mux := http.NewServeMux()
	cli.Register(mux)
	h := srv.Handler()
	mux.Handle("/search", h)
	mux.Handle("/shard/search", h)
	mux.Handle("/healthz", h)
	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("serve: %v", err)
		}
	case <-ctx.Done():
		// Graceful drain: stop accepting, let in-flight queries finish.
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
		}
		fmt.Println("drained; bye")
	}
	if err := cli.Close(); err != nil {
		fatal("close trace: %v", err)
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
