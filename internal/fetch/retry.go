package fetch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"ajaxcrawl/internal/obs"
)

// RetryPolicy configures RetryFetcher: how many times to attempt a
// fetch and how to space the attempts. The zero value is usable and
// means 4 attempts, 100ms base backoff capped at 5s. Which outcomes are
// worth retrying is fixed (see retryable), and a server's Retry-After
// hint always overrides a shorter computed backoff.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts, counting the first
	// (so MaxAttempts=1 disables retrying). 0 means 4.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it (exponential backoff). 0 means 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff. 0 means 5s.
	MaxDelay time.Duration
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
	return p
}

// retryable is the transient-failure classification:
//
//   - transport errors are retryable, except the caller's own context
//     ending (Canceled/DeadlineExceeded);
//   - responses with status 408, 429, or any 5xx are retryable;
//   - everything else (2xx-4xx responses) is final.
//
// Injected faults (ErrInjected) are transport errors and thus retryable,
// which is what lets a chaos crawl recover every page.
func retryable(resp *Response, err error) bool {
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

// RetryFetcher retries transient fetch failures with exponential backoff
// and full jitter: the wait before retry n is uniform in
// [0, min(MaxDelay, BaseDelay·2ⁿ⁻¹)], the spread that keeps a fleet of
// process lines from synchronizing their retries into waves. Sleeps run
// on the injected Clock, so under a VirtualClock a whole backoff
// schedule costs no wall time — the property the backoff tests rely on.
//
// Each attempt increments the fetch.retry.attempts counter. Each retry
// increments fetch.retry.retries, adds one to the context's Tally when
// it carries one, and emits a fetch.retry event span (URL, attempt,
// delay) when telemetry rides the context; exhaustion increments
// fetch.retry.giveups, and a success after at least one retry
// increments fetch.retry.recovered.
type RetryFetcher struct {
	Inner  Fetcher
	Policy RetryPolicy
	// Clock paces the backoff sleeps. nil means RealClock.
	Clock Clock
	// Rand is the jitter source, returning values in [0, 1). nil uses
	// the shared math/rand source; tests inject a deterministic one.
	Rand func() float64
}

// NewRetryFetcher wraps inner with the given policy on clock.
func NewRetryFetcher(inner Fetcher, policy RetryPolicy, clock Clock) *RetryFetcher {
	if clock == nil {
		clock = RealClock{}
	}
	return &RetryFetcher{Inner: inner, Policy: policy, Clock: clock}
}

func (f *RetryFetcher) rand() float64 {
	if f.Rand != nil {
		return f.Rand()
	}
	return rand.Float64()
}

// backoff returns the full-jitter delay before retry number n (1-based),
// honoring a Retry-After hint from the failed response.
func (f *RetryFetcher) backoff(p RetryPolicy, n int, resp *Response) time.Duration {
	ceil := p.BaseDelay
	for i := 1; i < n && ceil < p.MaxDelay; i++ {
		ceil *= 2
	}
	ceil = min(ceil, p.MaxDelay)
	d := time.Duration(f.rand() * float64(ceil))
	if resp != nil && resp.RetryAfter > d {
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
		tel.Counter("fetch.retry.attempts").Inc()
		resp, err = f.Inner.Fetch(ctx, rawurl)
		// The caller's context ending always wins: no classification, no
		// further attempts.
		if ctx.Err() != nil {
			if err == nil {
				err = fmt.Errorf("fetch %s: %w", rawurl, ctx.Err())
			}
			return nil, err
		}
		if !retryable(resp, err) {
			if err == nil && attempt > 1 {
				tel.Counter("fetch.retry.recovered").Inc()
			}
			return resp, err
		}
		if attempt >= p.MaxAttempts {
			tel.Counter("fetch.retry.giveups").Inc()
			if err != nil {
				return nil, fmt.Errorf("fetch %s: gave up after %d attempts: %w", rawurl, attempt, err)
			}
			// A retryable status that never cleared: hand the caller the
			// final response so it can see the status itself.
			return resp, nil
		}
		delay := f.backoff(p, attempt, resp)
		if t := tallyFrom(ctx); t != nil {
			t.Retries++
		}
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
