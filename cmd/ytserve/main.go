// Command ytserve serves the synthetic YouTube-like AJAX site over HTTP,
// so the crawler (and a real browser) can be pointed at a live instance:
//
//	ytserve -videos 1000 -addr :8080
//	# then: ajaxcrawl -start http://localhost:8080/watch?v=<id> -pages 50
//
// Opening http://localhost:8080/ in a browser shows the index page; the
// comment pagination on watch pages is driven by real XMLHttpRequest
// calls, exactly what the AJAX crawler exercises.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/webapp"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		videos     = flag.Int("videos", 500, "number of videos")
		seed       = flag.Int64("seed", 2008, "generation seed")
		faultRate  = flag.Float64("fault-rate", 0, "answer this fraction of requests with 503 (chaos testing a live crawl; seeded by -seed)")
		retryAfter = flag.Duration("fault-retry-after", time.Second, "Retry-After hint advertised on injected 503s")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	site := webapp.New(webapp.DefaultConfig(*videos, *seed))
	fmt.Printf("serving %d synthetic videos on http://%s/\n", *videos, *addr)
	fmt.Printf("first watch page: http://%s%s\n", *addr, webapp.WatchURL(site.VideoID(0)))
	fmt.Printf("metrics: http://%s/debug/metrics (Prometheus: ?format=prom), profiles: http://%s/debug/pprof/\n", *addr, *addr)

	// The site rides behind the request-counting middleware; the same
	// mux serves /debug/metrics (JSON + Prometheus), the recent-span
	// ring, and net/http/pprof.
	reg := obs.NewRegistry()
	ring := obs.NewRingSink(0)
	mux := http.NewServeMux()
	obs.RegisterDebug(mux, reg, ring)
	obs.RegisterStatus(mux, obs.StatusSource{Reg: reg, StartedAt: time.Now()})
	handler := site.Handler()
	// Server-side chaos: a fraction of site requests answer 503 with a
	// Retry-After hint, so a crawl pointed here exercises its retry
	// layer against real HTTP. Injected 503s show up in the
	// instrumented handler's status counters like any other response.
	if *faultRate > 0 {
		rnd := rand.New(rand.NewSource(*seed))
		var mu sync.Mutex
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			inject := rnd.Float64() < *faultRate
			mu.Unlock()
			if inject {
				w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter.Seconds())))
				http.Error(w, "injected fault", http.StatusServiceUnavailable)
				return
			}
			inner.ServeHTTP(w, r)
		})
		fmt.Printf("chaos: injecting 503s on %.0f%% of requests (Retry-After: %v)\n", *faultRate*100, *retryAfter)
	}
	mux.Handle("/", obs.InstrumentHandler(reg, handler))
	srv := &http.Server{Addr: *addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "ytserve: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		// Ctrl-C: drain in-flight requests, then exit cleanly.
		fmt.Println("shutting down ...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "ytserve: shutdown: %v\n", err)
			os.Exit(1)
		}
	}
}
