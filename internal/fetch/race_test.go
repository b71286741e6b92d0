package fetch

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestInstrumentedConcurrentStats hammers one shared Instrumented from
// many goroutines — the shape of concurrent process lines sharing a
// fetcher — each under its own Tally, while another goroutine reads the
// registry. Run under `go test -race` (as CI does) this pins that
// sharing the fetcher races on nothing and loses no update, and that
// each goroutine's tally holds its own fetches.
func TestInstrumentedConcurrentStats(t *testing.T) {
	inner := Func(func(ctx context.Context, rawurl string) (*Response, error) {
		if rawurl == "err://boom" {
			return nil, fmt.Errorf("boom")
		}
		return &Response{Status: 200, Body: make([]byte, 100)}, nil
	})
	clock := &VirtualClock{}
	f := NewInstrumented(inner, clock, time.Millisecond, 0)
	ctx, reg := withRegistry()

	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	tallies := make([]Tally, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := WithTally(ctx, &tallies[w])
			for i := 0; i < perWorker; i++ {
				url := "http://ok"
				if i%10 == 0 {
					url = "err://boom"
				}
				f.Fetch(ctx, url) //nolint:errcheck — errors are part of the workload
			}
		}(w)
	}
	// Concurrent readers: the registry must be safe to read mid-crawl
	// (this is exactly what /debug/metrics does to a live run). Errors
	// is loaded before requests: a fetch counts its request first, so
	// this order can never show more errors than requests.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				errs := reg.Counter("fetch.errors").Value()
				if errs > reg.Counter("fetch.requests").Value() {
					t.Error("snapshot impossible: errors > requests")
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	wantCalls := int64(workers * perWorker)
	wantErrs := int64(workers * perWorker / 10)
	if got := reg.Counter("fetch.requests").Value(); got != wantCalls {
		t.Fatalf("fetch.requests = %d, want %d", got, wantCalls)
	}
	if got := reg.Counter("fetch.errors").Value(); got != wantErrs {
		t.Fatalf("fetch.errors = %d, want %d", got, wantErrs)
	}
	if got := reg.Counter("fetch.bytes").Value(); got != (wantCalls-wantErrs)*100 {
		t.Fatalf("fetch.bytes = %d, want %d", got, (wantCalls-wantErrs)*100)
	}
	for w, tally := range tallies {
		if want := time.Duration(perWorker-perWorker/10) * time.Millisecond; tally.NetworkTime < want {
			t.Fatalf("worker %d: NetworkTime = %v, want >= %v", w, tally.NetworkTime, want)
		}
	}
}

// TestResilienceStackConcurrent hammers one shared
// Retry→Fault→Instrumented stack from many goroutines — the shape of
// process lines sharing a resilient fetcher. Under `go test -race`
// (CI's fetch-race job runs this three times) it pins that the
// middlewares' internal state (fault RNG, script positions) is safe for
// concurrent use, and that the counters balance.
func TestResilienceStackConcurrent(t *testing.T) {
	clock := &VirtualClock{}
	inst := NewInstrumented(Func(func(ctx context.Context, rawurl string) (*Response, error) {
		return &Response{Status: 200, Body: []byte("ok")}, nil
	}), clock, time.Millisecond, 0)
	fault := NewFaultFetcher(inst, FaultConfig{ErrorRate: 0.2, MaxConsecutive: 2, Seed: 9}, clock)
	retry := NewRetryFetcher(fault, RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond}, clock)

	const workers = 8
	const perWorker = 300
	var wg sync.WaitGroup
	ctx, reg := withRegistry()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				retry.Fetch(ctx, fmt.Sprintf("/p%d", i%20)) //nolint:errcheck — faults are part of the workload
			}
		}(w)
	}
	wg.Wait()

	attempts := reg.Counter("fetch.retry.attempts").Value()
	if attempts < workers*perWorker {
		t.Errorf("attempts = %d, want >= %d", attempts, workers*perWorker)
	}
	if reg.Counter("fetch.retry.retries").Value() == 0 {
		t.Error("no retries recorded against a 20% fault rate")
	}
	errs := reg.Counter("fault.injected.errors").Value()
	if errs == 0 {
		t.Error("fault injector never fired")
	}
	inner := reg.Counter("fetch.requests").Value()
	if inner+errs != attempts {
		// Every attempt either reached the inner fetcher or died at the
		// fault injector.
		t.Errorf("attempt accounting leaks: attempts=%d inner=%d injected=%d",
			attempts, inner, errs)
	}
}
