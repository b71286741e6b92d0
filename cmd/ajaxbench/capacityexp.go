package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"ajaxcrawl/internal/webapp"
)

// Capacity at SLO: the serving half of the north star. F7.9 times
// queries inside one process; this aims seeded open-loop Poisson
// arrivals over the zipf-ranked webapp.Queries() mix at a live /search
// (-target, an ajaxserve or an ajaxrouter) and reports what came back.
// A reply counts as refused when it is not a 200: a 429, 502 or 503, a
// transport error, or no answer within loadTimeout. Latency runs from
// the arrival's scheduled instant, so a generator that falls behind
// charges its lag to the system instead of hiding it.
const (
	sloP99      = 50 * time.Millisecond
	sloRefused  = 0.01
	loadWindow  = 3 * time.Second
	loadTimeout = 2 * time.Second
)

// loadStats is one window of offered load.
type loadStats struct {
	rate     float64
	sent, ok int
	// shed are the 429s, other every other refusal.
	shed, other int
	// degraded answers miss a shard (X-Ajaxserve-Shards ok < total).
	degraded int
	p50, p99 time.Duration
}

func (s loadStats) refused() int { return s.shed + s.other }

// meetsSLO: p99 within sloP99 and fewer than sloRefused of the arrivals
// refused.
func (s loadStats) meetsSLO() bool {
	return s.sent > 0 && s.p99 <= sloP99 && float64(s.refused()) < sloRefused*float64(s.sent)
}

func (s loadStats) print(w io.Writer) {
	pct := func(n int) float64 { return 100 * float64(n) / float64(max(s.sent, 1)) }
	fmt.Fprintf(w, "%8.0f %6d %10.1f %8.2f %8.2f %9.2f %7.2f %10.2f\n",
		s.rate, s.sent, float64(s.ok)/loadWindow.Seconds(), ms(s.p50), ms(s.p99),
		pct(s.refused()), pct(s.shed), pct(s.degraded))
}

// expCapacity warms the target with each query of the mix once, in
// turn, so that router hints and result caches hold their steady state;
// then it offers -rate queries per second for one window, or with no
// -rate searches for the highest whole rate that meets the SLO:
// doubling from 32/s until a window fails, then bisecting to within 5 %.
func expCapacity(e *env) error {
	if e.target == "" {
		fmt.Fprintln(e.out, "(skipped: -target names no /search to load)")
		return nil
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 1024
	client := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()
	fmt.Fprintf(e.out, "target %s, %v windows, SLO p99 <= %v with < %.0f%% refused\n",
		e.target, loadWindow, sloP99, 100*sloRefused)
	fmt.Fprintf(e.out, "%8s %6s %10s %8s %8s %9s %7s %10s\n",
		"rate/s", "sent", "goodput/s", "p50 ms", "p99 ms", "refused%", "shed%", "degraded%")
	target := strings.TrimRight(e.target, "/")
	for _, q := range webapp.Queries() {
		if code, _, msg := search(e.ctx, client, target, q); code != http.StatusOK {
			return fmt.Errorf("warm-up %q: status %d %s", q, code, msg)
		}
	}
	offer := func(rate float64) (loadStats, error) {
		s := offerLoad(e.ctx, client, target, rate, e.seed)
		s.print(e.out)
		return s, e.ctx.Err()
	}
	if e.rate > 0 {
		_, err := offer(e.rate)
		return err
	}
	lo, hi := 0.0, 0.0
	for rate := 32.0; rate <= 1<<16; rate *= 2 {
		s, err := offer(rate)
		if err != nil {
			return err
		}
		if !s.meetsSLO() {
			hi = rate
			break
		}
		lo = rate
	}
	for hi-lo > max(0.05*hi, 1) {
		mid := float64(int((lo + hi) / 2))
		s, err := offer(mid)
		if err != nil {
			return err
		}
		if s.meetsSLO() {
			lo = mid
		} else {
			hi = mid
		}
	}
	fmt.Fprintf(e.out, "capacity-at-SLO: %.0f/s\n", lo)
	return nil
}

// offerLoad sends one window of Poisson arrivals at rate per second and
// waits for every reply. The arrival times and queries depend only on
// seed and rate, so two runs at one rate offer the same sequence.
func offerLoad(ctx context.Context, client *http.Client, target string, rate float64, seed int64) loadStats {
	queries := webapp.Queries()
	rng := rand.New(rand.NewSource(seed ^ int64(rate)))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(queries)-1))
	s := loadStats{rate: rate}
	var (
		mu   sync.Mutex
		lats []time.Duration
		wg   sync.WaitGroup
	)
	start := time.Now()
	for at := time.Duration(0); ctx.Err() == nil; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= loadWindow {
			break
		}
		due := start.Add(at)
		time.Sleep(time.Until(due))
		s.sent++
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			code, h, _ := search(ctx, client, target, q)
			lat := time.Since(due)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case code == http.StatusOK:
				s.ok++
				lats = append(lats, lat)
				if ok, total, found := strings.Cut(h.Get("X-Ajaxserve-Shards"), "/"); found && ok != total {
					s.degraded++
				}
			case code == http.StatusTooManyRequests:
				s.shed++
			default:
				s.other++
			}
		}(queries[zipf.Uint64()])
	}
	wg.Wait()
	slices.Sort(lats)
	if n := len(lats); n > 0 {
		// Nearest rank, as paper-scale.sh reports its sweep.
		rank := func(p int) time.Duration { return lats[(n*p+99)/100-1] }
		s.p50, s.p99 = rank(50), rank(99)
	}
	return s
}

// search is one arrival: GET target/search?q=, bounded by loadTimeout.
// code is 0 on a transport error or timeout; msg holds the start of a
// refusal's body.
func search(ctx context.Context, client *http.Client, target, q string) (code int, h http.Header, msg string) {
	ctx, cancel := context.WithTimeout(ctx, loadTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/search?q="+url.QueryEscape(q), nil)
	if err != nil {
		return 0, nil, ""
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, ""
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		msg = string(b)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, nil, ""
	}
	return resp.StatusCode, resp.Header, msg
}
