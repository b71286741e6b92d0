package fetch

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ajaxcrawl/internal/obs"
)

// TestInstrumentedConcurrentStats hammers one shared Instrumented from
// many goroutines — the shape of concurrent process lines sharing a
// fetcher — while another goroutine snapshots it. Run under
// `go test -race` (as CI does) this pins the lock-free stats design:
// no data race, and no update lost.
func TestInstrumentedConcurrentStats(t *testing.T) {
	inner := Func(func(ctx context.Context, rawurl string) (*Response, error) {
		if rawurl == "err://boom" {
			return nil, fmt.Errorf("boom")
		}
		return &Response{Status: 200, Body: make([]byte, 100)}, nil
	})
	clock := &VirtualClock{}
	f := NewInstrumented(inner, clock, time.Millisecond, 0)

	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				url := "http://ok"
				if i%10 == 0 {
					url = "err://boom"
				}
				f.Fetch(ctx, url) //nolint:errcheck — errors are part of the workload
			}
		}(w)
	}
	// Concurrent readers: Stats must be safe to call mid-crawl (this is
	// exactly what /debug/metrics does to a live run).
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
				s := f.Stats()
				if s.Errors > s.Calls {
					t.Error("snapshot impossible: errors > calls")
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	s := f.Stats()
	wantCalls := int64(workers * perWorker)
	wantErrs := int64(workers * perWorker / 10)
	if s.Calls != wantCalls {
		t.Fatalf("Calls = %d, want %d", s.Calls, wantCalls)
	}
	if s.Errors != wantErrs {
		t.Fatalf("Errors = %d, want %d", s.Errors, wantErrs)
	}
	if s.Bytes != (wantCalls-wantErrs)*100 {
		t.Fatalf("Bytes = %d, want %d", s.Bytes, (wantCalls-wantErrs)*100)
	}
	if s.NetworkTime < time.Duration(wantCalls-wantErrs)*time.Millisecond {
		t.Fatalf("NetworkTime = %v, want >= %v", s.NetworkTime, time.Duration(wantCalls-wantErrs)*time.Millisecond)
	}
}

// TestResilienceStackConcurrent hammers one shared
// Retry→Fault→Instrumented stack from many goroutines — the shape of
// process lines sharing a resilient fetcher. Under `go test -race`
// (CI's fetch-race job runs this three times) it pins that the
// middlewares' internal state (fault RNG, retry counters) is safe for
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
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, nil))
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

	st := retry.RetryStats()
	if st.Attempts < workers*perWorker {
		t.Errorf("Attempts = %d, want >= %d", st.Attempts, workers*perWorker)
	}
	if st.Retries == 0 {
		t.Error("no retries recorded against a 20% fault rate")
	}
	errs := reg.Counter("fault.injected.errors").Value()
	if errs == 0 {
		t.Error("fault injector never fired")
	}
	if got := inst.Stats().Calls + errs; got != st.Attempts {
		// Every attempt either reached the inner fetcher or died at the
		// fault injector.
		t.Errorf("attempt accounting leaks: attempts=%d inner=%d injected=%d",
			st.Attempts, inst.Stats().Calls, errs)
	}
}
