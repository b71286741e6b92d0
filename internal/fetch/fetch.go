// Package fetch abstracts how the crawler retrieves resources. The paper
// crawls the live YouTube site over HTTP; this repo's experiments run
// against an in-process synthetic site. Both are Fetchers, and an
// instrumented wrapper injects the simulated network latency and records
// the call/byte/time counters the evaluation chapter reports.
//
// Every Fetch carries a context.Context: deadlines and cancellation
// propagate from the crawler's per-page budget down to the simulated (or
// real) network, so a hung fetch can never stall a process line.
package fetch

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"ajaxcrawl/internal/obs"
)

// Response is a fetched resource.
type Response struct {
	Status      int
	Body        []byte
	ContentType string
	// RetryAfter is the server's Retry-After hint, when the response
	// carried one (0 otherwise). RetryFetcher uses it to override its
	// computed backoff, so cooperating servers can pace their clients.
	RetryAfter time.Duration
}

// parseRetryAfter decodes a Retry-After header value: either a delay in
// seconds or an HTTP-date. Unparseable or negative values yield 0.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// Fetcher retrieves the resource at a URL. Implementations must honor
// ctx: return promptly with ctx.Err() once the context is canceled or
// its deadline passes.
type Fetcher interface {
	Fetch(ctx context.Context, rawurl string) (*Response, error)
}

// Clock abstracts time so benchmarks can run with a virtual clock: the
// "network time" the paper measures is then deterministic and free.
// Sleep is interruptible: it returns ctx.Err() if the context ends
// before the duration elapses, so simulated latency respects deadlines.
type Clock interface {
	Now() time.Time
	Sleep(ctx context.Context, d time.Duration) error
}

// RealClock uses the wall clock.
type RealClock struct{}

// Now returns the current wall time.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep sleeps for d or until ctx ends, whichever comes first.
func (RealClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// VirtualClock advances instantly on Sleep. It is safe for concurrent
// use; concurrent sleeps accumulate, modeling serialized network I/O per
// connection.
type VirtualClock struct {
	ns atomic.Int64
}

// Now returns the virtual time.
func (c *VirtualClock) Now() time.Time { return time.Unix(0, c.ns.Load()) }

// Sleep advances the virtual time by d. Virtual sleeps are free, so a
// canceled context is only reported, never waited on.
func (c *VirtualClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.ns.Add(int64(d))
	return nil
}

// maxBodyBytes bounds one response body read from the network; a larger
// one fails the fetch rather than grow the crawl's heap without limit.
const maxBodyBytes = 8 << 20

// HTTPFetcher fetches over a real HTTP client.
type HTTPFetcher struct {
	Client *http.Client
}

// Fetch implements Fetcher. A body past maxBodyBytes fails the fetch and
// counts fetch.body_too_large.
func (f *HTTPFetcher) Fetch(ctx context.Context, rawurl string) (*Response, error) {
	client := f.Client
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawurl, nil)
	if err != nil {
		return nil, fmt.Errorf("fetch %s: %w", rawurl, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fetch %s: %w", rawurl, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("fetch %s: read body: %w", rawurl, err)
	}
	if len(body) > maxBodyBytes {
		obs.From(ctx).Counter("fetch.body_too_large").Inc()
		return nil, fmt.Errorf("fetch %s: body exceeds %d bytes", rawurl, maxBodyBytes)
	}
	return &Response{
		Status:      resp.StatusCode,
		Body:        body,
		ContentType: resp.Header.Get("Content-Type"),
		RetryAfter:  parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()),
	}, nil
}

// HandlerFetcher serves fetches directly from an http.Handler without
// opening sockets — the in-process path used by tests and experiments.
type HandlerFetcher struct {
	Handler http.Handler
	// Host is the synthetic authority pages appear under, e.g.
	// "sim.youtube.local". Absolute URLs with a different host fail.
	Host string
}

// Fetch implements Fetcher.
func (f *HandlerFetcher) Fetch(ctx context.Context, rawurl string) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fetch %s: %w", rawurl, err)
	}
	u, err := url.Parse(rawurl)
	if err != nil {
		return nil, fmt.Errorf("fetch %s: %w", rawurl, err)
	}
	if u.Host != "" && f.Host != "" && u.Host != f.Host {
		return nil, fmt.Errorf("fetch %s: host %q not served by this fetcher", rawurl, u.Host)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.RequestURI(), nil)
	if err != nil {
		return nil, fmt.Errorf("fetch %s: %w", rawurl, err)
	}
	if f.Host != "" {
		req.Host = f.Host
	}
	rec := httptest.NewRecorder()
	f.Handler.ServeHTTP(rec, req)
	return &Response{
		Status:      rec.Code,
		Body:        rec.Body.Bytes(),
		ContentType: rec.Header().Get("Content-Type"),
		RetryAfter:  parseRetryAfter(rec.Header().Get("Retry-After"), time.Now()),
	}, nil
}

// Stats aggregates what the instrumented fetcher observed.
type Stats struct {
	Calls       int64
	Bytes       int64
	NetworkTime time.Duration
	Errors      int64
}

// StatsProvider is implemented by fetchers that record Stats. The
// crawler attributes per-page network time through this interface
// instead of asserting on a concrete type, so instrumentation survives
// wrapping (e.g. a Handoff around an Instrumented).
type StatsProvider interface {
	Stats() Stats
}

// Wrapper is implemented by fetchers that delegate to an inner Fetcher.
// FindStats walks Unwrap chains to locate a StatsProvider.
type Wrapper interface {
	Unwrap() Fetcher
}

// FindStats returns the first StatsProvider in f's unwrap chain, or nil
// when the chain has none.
func FindStats(f Fetcher) StatsProvider {
	for f != nil {
		if sp, ok := f.(StatsProvider); ok {
			return sp
		}
		w, ok := f.(Wrapper)
		if !ok {
			return nil
		}
		f = w.Unwrap()
	}
	return nil
}

// Instrumented wraps a Fetcher with simulated latency and counters. The
// latency model is latency = Base + PerKB * body_size/1024, roughly a
// fixed round trip plus bandwidth-limited transfer — the cost model under
// which the paper's "hot nodes save network calls" result is measured.
//
// Counter updates and Stats() snapshots are lock-free atomics, so
// concurrent process lines sharing one Instrumented never contend on a
// stats mutex and never race. When a telemetry context (internal/obs)
// reaches Fetch, each request is additionally recorded in the live
// registry: a fetch.latency histogram and fetch.requests / fetch.errors
// / fetch.bytes counters.
type Instrumented struct {
	Inner Fetcher
	Clock Clock
	// Base is the per-request round-trip latency.
	Base time.Duration
	// PerKB is the additional latency per KiB of response body.
	PerKB time.Duration

	calls atomic.Int64
	bytes atomic.Int64
	netNS atomic.Int64
	errs  atomic.Int64
}

// NewInstrumented wraps inner with the given latency model on clock.
func NewInstrumented(inner Fetcher, clock Clock, base, perKB time.Duration) *Instrumented {
	if clock == nil {
		clock = RealClock{}
	}
	return &Instrumented{Inner: inner, Clock: clock, Base: base, PerKB: perKB}
}

// Unwrap implements Wrapper.
func (f *Instrumented) Unwrap() Fetcher { return f.Inner }

// Fetch implements Fetcher, charging simulated latency and recording it.
// The simulated delay is deadline-aware: a canceled or expired context
// interrupts the sleep and the fetch fails with ctx.Err().
func (f *Instrumented) Fetch(ctx context.Context, rawurl string) (*Response, error) {
	tel := obs.From(ctx)
	start := f.Clock.Now()
	resp, err := f.Inner.Fetch(ctx, rawurl)
	if err == nil {
		delay := f.Base + f.PerKB*time.Duration(len(resp.Body))/1024
		if delay > 0 {
			if serr := f.Clock.Sleep(ctx, delay); serr != nil {
				err = fmt.Errorf("fetch %s: %w", rawurl, serr)
			}
		}
		if err == nil {
			elapsed := f.Clock.Now().Sub(start)
			if elapsed < delay {
				// Virtual clocks may report zero elapsed wall time;
				// charge at least the simulated delay.
				elapsed = delay
			}
			f.calls.Add(1)
			f.bytes.Add(int64(len(resp.Body)))
			f.netNS.Add(int64(elapsed))
			tel.Counter("fetch.requests").Inc()
			tel.Counter("fetch.bytes").Add(int64(len(resp.Body)))
			tel.Histogram("fetch.latency").ObserveDuration(elapsed)
			return resp, nil
		}
	}
	elapsed := f.Clock.Now().Sub(start)
	f.calls.Add(1)
	f.errs.Add(1)
	f.netNS.Add(int64(elapsed))
	tel.Counter("fetch.requests").Inc()
	tel.Counter("fetch.errors").Inc()
	tel.Histogram("fetch.latency").ObserveDuration(elapsed)
	return nil, err
}

// Stats returns a snapshot of the counters. Errors is loaded before
// Calls: writers increment calls first, so with this load order a
// snapshot can never show more errors than calls, even mid-update.
func (f *Instrumented) Stats() Stats {
	errs := f.errs.Load()
	return Stats{
		Calls:       f.calls.Load(),
		Bytes:       f.bytes.Load(),
		NetworkTime: time.Duration(f.netNS.Load()),
		Errors:      errs,
	}
}

// Func adapts a function to the Fetcher interface (handy in tests).
type Func func(ctx context.Context, rawurl string) (*Response, error)

// Fetch implements Fetcher.
func (f Func) Fetch(ctx context.Context, rawurl string) (*Response, error) {
	return f(ctx, rawurl)
}
