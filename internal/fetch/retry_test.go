package fetch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ajaxcrawl/internal/obs"
)

// recordingClock is a VirtualClock that records every Sleep duration, so
// tests can assert exact backoff schedules without any wall time.
type recordingClock struct {
	VirtualClock
	mu     sync.Mutex
	sleeps []time.Duration
}

func (c *recordingClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.mu.Unlock()
	return c.VirtualClock.Sleep(ctx, d)
}

func (c *recordingClock) recorded() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}

// failNTimes returns a Fetcher that fails its first n calls with
// ErrInjected and succeeds afterwards.
func failNTimes(n int) Fetcher {
	calls := 0
	return Func(func(ctx context.Context, rawurl string) (*Response, error) {
		calls++
		if calls <= n {
			return nil, errInjectedf("transient")
		}
		return &Response{Status: 200, Body: []byte("ok")}, nil
	})
}

func TestRetryBackoffScheduleExact(t *testing.T) {
	clock := &recordingClock{}
	f := NewRetryFetcher(failNTimes(4), RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    400 * time.Millisecond,
	}, clock)
	f.Rand = func() float64 { return 1 } // jitter at the ceiling: exact exponential schedule

	ctx, reg := withRegistry()
	resp, err := f.Fetch(ctx, "/page")
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d, want 200", resp.Status)
	}
	want := []time.Duration{
		100 * time.Millisecond, // 1st retry: base
		200 * time.Millisecond, // 2nd: base*2
		400 * time.Millisecond, // 3rd: base*4, at the cap
		400 * time.Millisecond, // 4th: capped
	}
	got := clock.recorded()
	if len(got) != len(want) {
		t.Fatalf("sleeps = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sleep[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got := retryCounts(reg); got != [4]int64{5, 4, 0, 1} {
		t.Errorf("attempts, retries, giveups, recovered = %v, want [5 4 0 1]", got)
	}
}

func TestRetryJitterBounds(t *testing.T) {
	clock := &recordingClock{}
	f := NewRetryFetcher(failNTimes(1000), RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    time.Second,
	}, clock)
	f.Rand = rand.New(rand.NewSource(7)).Float64

	if _, err := f.Fetch(context.Background(), "/page"); err == nil {
		t.Fatal("want give-up error")
	}
	ceils := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second,
	}
	got := clock.recorded()
	if len(got) != len(ceils) {
		t.Fatalf("got %d sleeps, want %d", len(got), len(ceils))
	}
	distinct := map[time.Duration]bool{}
	for i, d := range got {
		if d < 0 || d > ceils[i] {
			t.Errorf("sleep[%d] = %v outside full-jitter bounds [0, %v]", i, d, ceils[i])
		}
		distinct[d] = true
	}
	if len(distinct) < 2 {
		t.Errorf("sleeps %v show no jitter", got)
	}
}

func TestRetryRespectsRetryAfter(t *testing.T) {
	clock := &recordingClock{}
	calls := 0
	inner := Func(func(ctx context.Context, rawurl string) (*Response, error) {
		calls++
		if calls == 1 {
			return &Response{Status: 503, RetryAfter: 2 * time.Second}, nil
		}
		return &Response{Status: 200}, nil
	})
	f := NewRetryFetcher(inner, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}, clock)
	f.Rand = func() float64 { return 0 } // computed backoff 0 — the hint must win

	resp, err := f.Fetch(context.Background(), "/page")
	if err != nil || resp.Status != 200 {
		t.Fatalf("Fetch = %v, %v; want 200", resp, err)
	}
	got := clock.recorded()
	if len(got) != 1 || got[0] != 2*time.Second {
		t.Errorf("sleeps = %v, want [2s] (the Retry-After hint)", got)
	}
}

func TestRetryGiveUpWrapsLastError(t *testing.T) {
	clock := &recordingClock{}
	inner := Func(func(ctx context.Context, rawurl string) (*Response, error) {
		return nil, errInjectedf("boom")
	})
	f := NewRetryFetcher(inner, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}, clock)

	ctx, reg := withRegistry()
	_, err := f.Fetch(ctx, "/page")
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want wrapped ErrInjected", err)
	}
	if got := retryCounts(reg); got != [4]int64{3, 2, 1, 0} {
		t.Errorf("attempts, retries, giveups, recovered = %v, want [3 2 1 0]", got)
	}
}

func TestRetryNonRetryableStatusReturnsImmediately(t *testing.T) {
	clock := &recordingClock{}
	calls := 0
	inner := Func(func(ctx context.Context, rawurl string) (*Response, error) {
		calls++
		return &Response{Status: 404}, nil
	})
	f := NewRetryFetcher(inner, RetryPolicy{MaxAttempts: 5}, clock)
	resp, err := f.Fetch(context.Background(), "/page")
	if err != nil || resp.Status != 404 {
		t.Fatalf("Fetch = %v, %v; want the 404 back", resp, err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (404 is final)", calls)
	}
}

func TestRetryStopsOnParentCancel(t *testing.T) {
	clock := &recordingClock{}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	inner := Func(func(ctx context.Context, rawurl string) (*Response, error) {
		calls++
		cancel() // the caller goes away while the attempt is in flight
		return nil, errInjectedf("reset")
	})
	f := NewRetryFetcher(inner, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}, clock)
	if _, err := f.Fetch(ctx, "/page"); err == nil {
		t.Fatal("want error after cancel")
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (no retries after parent cancel)", calls)
	}
	if len(clock.recorded()) != 0 {
		t.Errorf("slept %v, want no backoff after parent cancel", clock.recorded())
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		resp *Response
		err  error
		want bool
	}{
		{"transport error", nil, errors.New("conn reset"), true},
		{"injected fault", nil, errInjectedf("x"), true},
		{"canceled", nil, context.Canceled, false},
		{"deadline", nil, context.DeadlineExceeded, false},
		{"503", &Response{Status: 503}, nil, true},
		{"429", &Response{Status: 429}, nil, true},
		{"408", &Response{Status: 408}, nil, true},
		{"200", &Response{Status: 200}, nil, false},
		{"404", &Response{Status: 404}, nil, false},
	}
	for _, c := range cases {
		if got := retryable(c.resp, c.err); got != c.want {
			t.Errorf("%s: retryable = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestTallyThroughMiddlewareStack: a Tally on the context reaches the
// layers that fill it through every middleware between them — Retry
// over Handoff over Fault over Instrumented — and holds exactly the
// fetches made under that context.
func TestTallyThroughMiddlewareStack(t *testing.T) {
	clock := &VirtualClock{}
	inst := NewInstrumented(Func(func(ctx context.Context, rawurl string) (*Response, error) {
		return &Response{Status: 200, Body: []byte("hi")}, nil
	}), clock, 10*time.Millisecond, 0)
	var f Fetcher = NewFaultFetcher(inst, FaultConfig{Scripts: map[string][]FaultOp{
		"/x": {FaultError, FaultTruncate},
	}}, clock)
	f = &Handoff{Inner: f}
	f = NewRetryFetcher(f, RetryPolicy{BaseDelay: time.Millisecond}, clock)

	var tally Tally
	ctx := WithTally(context.Background(), &tally)
	if _, err := f.Fetch(ctx, "/x"); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if tally.Retries != 2 || tally.NetworkTime != 10*time.Millisecond {
		t.Errorf("tally = %+v, want 2 retries and the one fetch that reached Instrumented (10ms)", tally)
	}
	// A fetch under a context without the tally leaves it alone.
	if _, err := f.Fetch(context.Background(), "/y"); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if tally.Retries != 2 || tally.NetworkTime != 10*time.Millisecond {
		t.Errorf("a fetch without the tally changed it: %+v", tally)
	}
}

// retryCounts reads RetryFetcher's counters from reg: attempts,
// retries, giveups and recovered.
func retryCounts(reg *obs.Registry) [4]int64 {
	var out [4]int64
	for i, name := range []string{"attempts", "retries", "giveups", "recovered"} {
		out[i] = reg.Counter("fetch.retry." + name).Value()
	}
	return out
}

// errInjectedf builds a wrapped sentinel error the way the fault
// injector does, for classification tests.
func errInjectedf(msg string) error { return fmt.Errorf("%s: %w", msg, ErrInjected) }
