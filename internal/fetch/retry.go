package fetch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"ajaxcrawl/internal/obs"
)

// RetryPolicy configures RetryFetcher: how many times to attempt a
// fetch, how to space the attempts, and which outcomes are worth
// retrying. The zero value is usable and means 4 attempts, 100ms base
// backoff capped at 5s, no per-attempt timeout, Retry-After honored,
// DefaultRetryable classification.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts, counting the first
	// (so MaxAttempts=1 disables retrying). 0 means 4.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it (exponential backoff). 0 means 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff. 0 means 5s.
	MaxDelay time.Duration
	// AttemptTimeout, when > 0, bounds each individual attempt with a
	// context deadline derived from the caller's context. An attempt
	// that blows only this per-attempt deadline is retryable; the
	// caller's own context ending always stops the loop.
	AttemptTimeout time.Duration
	// IgnoreRetryAfter disables honoring the server's Retry-After hint.
	// By default a hinted delay overrides a shorter computed backoff.
	IgnoreRetryAfter bool
	// Retryable classifies an attempt's outcome; retrying continues only
	// while it returns true. nil means DefaultRetryable.
	Retryable func(resp *Response, err error) bool
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Retryable == nil {
		p.Retryable = DefaultRetryable
	}
	return p
}

// DefaultRetryable is the stock transient-failure classification:
//
//   - transport errors are retryable, except the caller's own context
//     ending (Canceled/DeadlineExceeded);
//   - responses with status 408, 429, or any 5xx are retryable;
//   - everything else (2xx-4xx responses) is final.
//
// Injected faults (ErrInjected) are transport errors and thus retryable,
// which is what lets a chaos crawl recover every page.
func DefaultRetryable(resp *Response, err error) bool {
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return false
		}
		return true
	}
	if resp == nil {
		return false
	}
	switch {
	case resp.Status == 408, resp.Status == 429, resp.Status >= 500:
		return true
	}
	return false
}

// RetryStats aggregates what a RetryFetcher observed.
type RetryStats struct {
	// Attempts counts every inner Fetch call (first tries included).
	Attempts int64
	// Retries counts attempts beyond the first per fetch.
	Retries int64
	// GiveUps counts fetches that exhausted MaxAttempts.
	GiveUps int64
	// Recovered counts fetches that succeeded after at least one retry.
	Recovered int64
}

// RetryStatsProvider is implemented by fetchers that record RetryStats.
// Like StatsProvider, callers locate it through the Unwrap chain
// (FindRetryStats) instead of asserting on a concrete type.
type RetryStatsProvider interface {
	RetryStats() RetryStats
}

// FindRetryStats returns the first RetryStatsProvider in f's unwrap
// chain, or nil when the chain has none.
func FindRetryStats(f Fetcher) RetryStatsProvider {
	for f != nil {
		if sp, ok := f.(RetryStatsProvider); ok {
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

// RetryFetcher retries transient fetch failures with exponential backoff
// and full jitter: the wait before retry n is uniform in
// [0, min(MaxDelay, BaseDelay·2ⁿ⁻¹)], the spread that keeps a fleet of
// process lines from synchronizing their retries into waves. Sleeps run
// on the injected Clock, so under a VirtualClock a whole backoff
// schedule costs no wall time — the property the backoff tests rely on.
//
// Each retry increments the fetch.retry.retries counter and emits a
// fetch.retry event span (URL, attempt, delay) when telemetry rides the
// context; exhaustion increments fetch.retry.giveups, and a success
// after at least one retry increments fetch.retry.recovered.
type RetryFetcher struct {
	Inner  Fetcher
	Policy RetryPolicy
	// Clock paces the backoff sleeps. nil means RealClock.
	Clock Clock
	// Rand is the jitter source, returning values in [0, 1). nil uses
	// the shared math/rand source; tests inject a deterministic one.
	Rand func() float64

	attempts  atomic.Int64
	retries   atomic.Int64
	giveups   atomic.Int64
	recovered atomic.Int64
}

// NewRetryFetcher wraps inner with the given policy on clock.
func NewRetryFetcher(inner Fetcher, policy RetryPolicy, clock Clock) *RetryFetcher {
	if clock == nil {
		clock = RealClock{}
	}
	return &RetryFetcher{Inner: inner, Policy: policy, Clock: clock}
}

// Unwrap implements Wrapper.
func (f *RetryFetcher) Unwrap() Fetcher { return f.Inner }

// RetryStats implements RetryStatsProvider.
func (f *RetryFetcher) RetryStats() RetryStats {
	return RetryStats{
		Attempts:  f.attempts.Load(),
		Retries:   f.retries.Load(),
		GiveUps:   f.giveups.Load(),
		Recovered: f.recovered.Load(),
	}
}

func (f *RetryFetcher) rand() float64 {
	if f.Rand != nil {
		return f.Rand()
	}
	return rand.Float64()
}

// backoff returns the full-jitter delay before retry number n (1-based),
// honoring a Retry-After hint from the failed response when allowed.
func (f *RetryFetcher) backoff(p RetryPolicy, n int, resp *Response) time.Duration {
	ceil := p.BaseDelay
	for i := 1; i < n && ceil < p.MaxDelay; i++ {
		ceil *= 2
	}
	ceil = min(ceil, p.MaxDelay)
	d := time.Duration(f.rand() * float64(ceil))
	if !p.IgnoreRetryAfter && resp != nil && resp.RetryAfter > d {
		d = resp.RetryAfter
	}
	return d
}

// Fetch implements Fetcher. It returns the first successful (or final
// non-retryable) outcome; after MaxAttempts the last error — or, for a
// retryable status, the last response — is returned, the error wrapped
// with the attempt count.
func (f *RetryFetcher) Fetch(ctx context.Context, rawurl string) (*Response, error) {
	p := f.Policy.withDefaults()
	tel := obs.From(ctx)
	clock := f.Clock
	if clock == nil {
		clock = RealClock{}
	}
	var (
		resp *Response
		err  error
	)
	for attempt := 1; ; attempt++ {
		f.attempts.Add(1)
		tel.Counter("fetch.retry.attempts").Inc()
		actx, cancel := ctx, context.CancelFunc(nil)
		if p.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
		}
		resp, err = f.Inner.Fetch(actx, rawurl)
		if cancel != nil {
			cancel()
		}
		// The caller's context ending always wins: no classification, no
		// further attempts. A per-attempt deadline, by contrast, leaves
		// the parent alive and falls through to the retry decision.
		if ctx.Err() != nil {
			if err == nil {
				err = fmt.Errorf("fetch %s: %w", rawurl, ctx.Err())
			}
			return nil, err
		}
		// A blown per-attempt deadline is the retry layer's own doing
		// (the caller's context is still alive at this point), so it is
		// retryable no matter how the policy classifies deadline errors.
		attemptTimedOut := p.AttemptTimeout > 0 && errors.Is(err, context.DeadlineExceeded)
		if !attemptTimedOut && !p.Retryable(resp, err) {
			if err == nil && attempt > 1 {
				f.recovered.Add(1)
				tel.Counter("fetch.retry.recovered").Inc()
			}
			return resp, err
		}
		if attempt >= p.MaxAttempts {
			f.giveups.Add(1)
			tel.Counter("fetch.retry.giveups").Inc()
			if err != nil {
				return nil, fmt.Errorf("fetch %s: gave up after %d attempts: %w", rawurl, attempt, err)
			}
			// A retryable status that never cleared: hand the caller the
			// final response so it can see the status itself.
			return resp, nil
		}
		delay := f.backoff(p, attempt, resp)
		f.retries.Add(1)
		tel.Counter("fetch.retry.retries").Inc()
		tel.Counter("fetch.retry.backoff_ns").Add(int64(delay))
		obs.Event(ctx, obs.SpanFetchRetry,
			obs.A("url", rawurl),
			obs.A("attempt", strconv.Itoa(attempt)),
			obs.A("delay", delay.String()))
		if serr := clock.Sleep(ctx, delay); serr != nil {
			if err == nil {
				err = serr
			}
			return nil, fmt.Errorf("fetch %s: retry canceled: %w", rawurl, err)
		}
	}
}
