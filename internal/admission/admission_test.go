package admission

import (
	"context"
	"testing"
	"time"

	"ajaxcrawl/internal/obs"
)

func TestDefaults(t *testing.T) {
	l := New(Config{})
	for i := 0; i < 64; i++ {
		if _, err := l.Acquire(context.Background()); err != nil {
			t.Fatalf("acquire %d under the default limit: %v", i+1, err)
		}
	}
	if _, err := l.Acquire(context.Background()); err != ErrSaturated {
		t.Fatalf("acquire 65 got %v, want ErrSaturated (default limit 64)", err)
	}
}

// TestQueueFullShedsImmediately: a request that finds every slot taken
// is refused at once, even with a context that would let it wait, and
// the refusal is counted as a shed and not as an admission.
func TestQueueFullShedsImmediately(t *testing.T) {
	reg := obs.NewRegistry()
	l := New(Config{Max: 1, Tel: obs.New(reg, nil)})
	hold, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer hold.Release()
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	start := time.Now()
	if _, err := l.Acquire(ctx); err != ErrSaturated {
		t.Fatalf("acquire at the limit got %v, want ErrSaturated", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("acquire at the limit took %v, want an immediate refusal", waited)
	}
	if got := reg.Counter("admission.shed").Value(); got != 1 {
		t.Fatalf("admission.shed = %d, want 1", got)
	}
	if got := reg.Counter("admission.admitted").Value(); got != 1 {
		t.Fatalf("admission.admitted = %d, want 1 (the held slot only)", got)
	}
	if got := inflight(l); got != 1 {
		t.Fatalf("inflight = %d after a shed, want 1", got)
	}
}

// TestZeroQueueIsLegacySemaphore: at the limit a request is shed at
// once and counted, and a released slot admits the next one.
func TestZeroQueueIsLegacySemaphore(t *testing.T) {
	reg := obs.NewRegistry()
	l := New(Config{Min: 1, Initial: 1, Max: 2, Tel: obs.New(reg, nil)})
	a, _ := l.Acquire(context.Background())
	b, _ := l.Acquire(context.Background())
	if _, err := l.Acquire(context.Background()); err != ErrSaturated {
		t.Fatalf("acquire at the limit got %v, want immediate ErrSaturated", err)
	}
	if got := reg.Counter("admission.shed").Value(); got != 1 {
		t.Fatalf("admission.shed = %d, want 1", got)
	}
	a.Release()
	a.Release() // a second Release frees nothing
	if got := inflight(l); got != 1 {
		t.Fatalf("inflight = %d after one token released twice, want 1", got)
	}
	c, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire after a release: %v", err)
	}
	b.Release()
	c.Release()
	if got := reg.Gauge("admission.inflight").Value(); got != 0 {
		t.Fatalf("admission.inflight = %d after every release, want 0", got)
	}
}

// TestAcquireReleaseAllocs pins the admitted path with telemetry on to
// the token alone: every admission.* name is a literal, so publishing
// the counters and the occupancy gauge allocates nothing.
func TestAcquireReleaseAllocs(t *testing.T) {
	l := New(Config{Max: 4, Tel: obs.New(obs.NewRegistry(), nil)})
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		tok, err := l.Acquire(ctx)
		if err != nil {
			t.Fatal(err)
		}
		tok.Release()
	})
	if allocs > 1 {
		t.Fatalf("Acquire+Release with telemetry = %.1f allocs, want <= 1 (the Token)", allocs)
	}
}

// inflight reads the limiter's admitted-request count.
func inflight(l *Limiter) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}
