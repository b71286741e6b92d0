package fetch

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ajaxcrawl/internal/obs"
)

func okFetcher() Fetcher {
	return Func(func(ctx context.Context, rawurl string) (*Response, error) {
		return &Response{Status: 200, Body: []byte("ok")}, nil
	})
}

func TestFaultDeterminism(t *testing.T) {
	pattern := func() string {
		f := NewFaultFetcher(okFetcher(), FaultConfig{ErrorRate: 0.3, Seed: 42}, &VirtualClock{})
		var b strings.Builder
		for i := 0; i < 200; i++ {
			if _, err := f.Fetch(context.Background(), "/p"); err != nil {
				b.WriteByte('E')
			} else {
				b.WriteByte('.')
			}
		}
		return b.String()
	}
	a, b := pattern(), pattern()
	if a != b {
		t.Errorf("same seed, different fault patterns:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "E") {
		t.Error("30%% error rate injected nothing in 200 calls")
	}
	if !strings.Contains(a, ".") {
		t.Error("30%% error rate failed every call")
	}
}

func TestFaultScripts(t *testing.T) {
	clock := &VirtualClock{}
	f := NewFaultFetcher(okFetcher(), FaultConfig{
		Latency: 100 * time.Millisecond,
		Scripts: map[string][]FaultOp{"/u": {FaultError, FaultDelay, FaultTruncate}},
	}, clock)
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, nil))

	if _, err := f.Fetch(ctx, "/u"); !errors.Is(err, ErrInjected) {
		t.Fatalf("call 1: err = %v, want scripted ErrInjected", err)
	}
	before := clock.Now()
	if _, err := f.Fetch(ctx, "/u"); err != nil {
		t.Fatalf("call 2 (delay): %v", err)
	}
	if d := clock.Now().Sub(before); d != 100*time.Millisecond {
		t.Errorf("delay fault advanced clock by %v, want 100ms", d)
	}
	if _, err := f.Fetch(ctx, "/u"); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("call 3: err = %v, want truncation", err)
	}
	// Script exhausted: every further call passes through.
	if _, err := f.Fetch(ctx, "/u"); err != nil {
		t.Fatalf("call 4 (script exhausted): %v", err)
	}
	// Unscripted URLs are untouched when no random rates are set.
	if _, err := f.Fetch(ctx, "/other"); err != nil {
		t.Fatalf("unscripted URL: %v", err)
	}
	for _, kind := range []string{"errors", "delays", "truncations"} {
		if got := reg.Counter("fault.injected." + kind).Value(); got != 1 {
			t.Errorf("fault.injected.%s = %d, want 1", kind, got)
		}
	}
}

func TestFaultMaxConsecutiveBoundsTheStreak(t *testing.T) {
	f := NewFaultFetcher(okFetcher(), FaultConfig{
		ErrorRate:      1.0,
		MaxConsecutive: 2,
		Seed:           1,
	}, &VirtualClock{})
	ctx := context.Background()
	var got strings.Builder
	for i := 0; i < 6; i++ {
		if _, err := f.Fetch(ctx, "/p"); err != nil {
			got.WriteByte('E')
		} else {
			got.WriteByte('.')
		}
	}
	// With rate 1.0 and a streak cap of 2, every third call must pass.
	if got.String() != "EE.EE." {
		t.Errorf("pattern = %q, want \"EE.EE.\"", got.String())
	}
}

func TestFaultTruncateIsTransient(t *testing.T) {
	f := NewFaultFetcher(okFetcher(), FaultConfig{TruncateRate: 1.0, MaxConsecutive: 1, Seed: 3}, &VirtualClock{})
	_, err := f.Fetch(context.Background(), "/p")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !retryable(nil, err) {
		t.Error("truncation faults must be retryable")
	}
	if _, err := f.Fetch(context.Background(), "/p"); err != nil {
		t.Errorf("second call after streak cap: %v", err)
	}
}
