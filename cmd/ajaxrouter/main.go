// Command ajaxrouter is the query fan-out tier of a sharded serving
// fleet: it owns N shard groups of R ajaxserve replicas each, fans every
// /search out to all shards over the /shard/search protocol, re-scores
// the candidates with the globally corrected idf, and merges them into
// the same byte-identical /search responses a single-snapshot ajaxserve
// would produce.
//
//	# Publish one partition per shard, then serve each behind ajaxserve.
//	ajaxserve -snapshot ./shard0 -addr :9001 &
//	ajaxserve -snapshot ./shard0 -addr :9002 &   # replica of shard 0
//	ajaxserve -snapshot ./shard1 -addr :9003 &
//	ajaxserve -snapshot ./shard1 -addr :9004 &   # replica of shard 1
//
//	# Route over them: consecutive -shards addresses group into
//	# -replicas-sized shard groups (here 2 shards x 2 replicas).
//	ajaxrouter -addr :8090 -replicas 2 \
//	  -shards http://127.0.0.1:9001,http://127.0.0.1:9002,http://127.0.0.1:9003,http://127.0.0.1:9004
//
//	# Query the fleet exactly like a single server.
//	curl 'http://localhost:8090/search?q=morcheeba+singer&k=5'
//
// Replica choice is power-of-two-choices on outstanding requests, a
// failed attempt fails over to a sibling replica, and with -partial a
// dead shard degrades the answer (X-Ajaxserve-Shards: 3/4) instead of
// failing it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/router"
)

func main() {
	var (
		shardsFlag    = flag.String("shards", "", "comma-separated shard server base URLs; consecutive groups of -replicas addresses form one shard (required)")
		replicas      = flag.Int("replicas", 1, "replicas per shard: -shards is split into groups of this size")
		addr          = flag.String("addr", "127.0.0.1:8090", "listen address")
		defaultK      = flag.Int("k", 10, "default result count when ?k= is absent")
		maxK          = flag.Int("max-k", 100, "upper bound on ?k=")
		maxInflight   = flag.Int("max-inflight", 64, "concurrently routed queries before shedding with 429 (0 = unlimited)")
		budgetFloor   = flag.Duration("budget-floor", 0, "fast-reject queries whose deadline budget remainder is at or below this (0 = 2ms)")
		ejectThresh   = flag.Float64("eject-threshold", 0, "failure-EWMA level that quarantines a replica (0 = 0.8)")
		quarantine    = flag.Duration("quarantine", 0, "initial quarantine backoff before the first probe; doubles on failed probes (0 = 5s)")
		quarantineMax = flag.Duration("quarantine-max", 0, "quarantine backoff ceiling (0 = 5m)")
		probation     = flag.Int("probation", 0, "consecutive successful probes required to readmit a quarantined replica (0 = 2)")
		probeInterval = flag.Duration("probe-interval", time.Second, "background health-probe sweep cadence for quarantined replicas (0 = off)")
		timeout       = flag.Duration("timeout", 2*time.Second, "per-query deadline from admission, clamped by any propagated budget; what is left is forwarded to each shard (0 = none)")
		shardTimeout  = flag.Duration("shard-timeout", 1500*time.Millisecond, "per-shard deadline, failovers included (0 = none)")
		partial       = flag.Bool("partial", true, "tolerate failed shards: answer with the responding subset and say so in X-Ajaxserve-Shards")
		seed          = flag.Int64("seed", 0, "replica-pick PRNG seed (0 = default), for reproducible balancing")
		verbose       = flag.Bool("v", false, "live span lines on stderr")
		tracePath     = flag.String("trace", "", "write every span to this JSONL file")
		sample        = flag.Duration("sample", 0, "sample request/inflight/runtime series at this cadence for /debug/status (0 = off)")
	)
	flag.Parse()
	topo, err := parseTopology(*shardsFlag, *replicas, shardClient(*maxInflight))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	cli, err := obs.CLITelemetry(obs.CLIConfig{
		TracePath:     *tracePath,
		Verbose:       *verbose,
		ProgressSpans: []string{obs.SpanRouterFanout},
		SampleEvery:   *sample,
		Sample: obs.SamplerConfig{
			Gauges:   []string{"http.inflight"},
			Counters: []string{"http.requests", "router.fanout.partial"},
		},
	})
	if err != nil {
		fatal("telemetry: %v", err)
	}

	rt, err := router.New(router.Config{
		Shards:          topo,
		ShardTimeout:    *shardTimeout,
		Partial:         *partial,
		Seed:            *seed,
		EjectThreshold:  *ejectThresh,
		QuarantineBase:  *quarantine,
		QuarantineMax:   *quarantineMax,
		ProbationProbes: *probation,
		BudgetFloor:     *budgetFloor,
	})
	if err != nil {
		fatal("router: %v", err)
	}
	rs := router.NewServer(rt, router.ServerConfig{
		DefaultK:     *defaultK,
		MaxK:         *maxK,
		MaxInflight:  *maxInflight,
		QueryTimeout: *timeout,
	}, cli.Tel)
	fmt.Printf("routing %d shards x %d replicas (partial=%v, shard timeout %v)\n",
		rt.NumShards(), *replicas, *partial, *shardTimeout)
	fmt.Printf("search:  http://%s/search?q=...&k=%d\n", *addr, *defaultK)
	fmt.Printf("metrics: http://%s/debug/metrics (Prometheus: ?format=prom), health: http://%s/healthz\n", *addr, *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Background recovery: quarantined replicas are probed on this cadence
	// and readmitted after -probation consecutive successes.
	if *probeInterval > 0 {
		go rt.HealthLoop(obs.With(ctx, cli.Tel), *probeInterval)
	}
	cli.StartSampler(ctx)

	mux := http.NewServeMux()
	cli.Register(mux)
	h := rs.Handler()
	mux.Handle("/search", h)
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
		// Graceful drain: stop accepting, let in-flight fan-outs finish.
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

// shardClient is the one HTTP client every shard backend shares. The
// default transport keeps 2 idle connections per host, so a router
// admitting -max-inflight concurrent queries would close and re-dial
// most of its shard connections on every burst; this one keeps as many
// idle connections per replica as there can be queries in flight
// (0 = unlimited admits, so no cap on idle connections either — the
// transport's idle timeout still reaps them).
func shardClient(maxInflight int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // the per-host bound is the one that matters
	tr.MaxIdleConnsPerHost = maxInflight
	if maxInflight <= 0 {
		tr.MaxIdleConnsPerHost = math.MaxInt
	}
	return &http.Client{Transport: tr}
}

// parseTopology splits the flat -shards list into -replicas-sized shard
// groups of HTTP backends issuing their requests through client.
func parseTopology(shards string, replicas int, client *http.Client) ([][]router.Backend, error) {
	if shards == "" {
		return nil, errors.New("-shards is required")
	}
	if replicas < 1 {
		return nil, fmt.Errorf("-replicas must be >= 1 (got %d)", replicas)
	}
	var addrs []string
	for _, a := range strings.Split(shards, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.HasPrefix(a, "http://") && !strings.HasPrefix(a, "https://") {
			a = "http://" + a
		}
		addrs = append(addrs, strings.TrimRight(a, "/"))
	}
	if len(addrs) == 0 {
		return nil, errors.New("-shards lists no addresses")
	}
	if len(addrs)%replicas != 0 {
		return nil, fmt.Errorf("-shards lists %d addresses, not divisible into groups of %d replicas", len(addrs), replicas)
	}
	topo := make([][]router.Backend, 0, len(addrs)/replicas)
	for i := 0; i < len(addrs); i += replicas {
		group := make([]router.Backend, 0, replicas)
		for _, a := range addrs[i : i+replicas] {
			group = append(group, &router.HTTPBackend{BaseURL: a, Client: client})
		}
		topo = append(topo, group)
	}
	return topo, nil
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
