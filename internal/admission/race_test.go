package admission

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ajaxcrawl/internal/obs"
)

// TestLimiterRaceHammer drives concurrent acquire/release/cancel,
// queued waiters with racing cancellations, and concurrent resizes
// through one limiter — the interleavings the serving daemons see under
// real load plus an operator flipping SetLimit. The -race build must
// stay silent and the accounting must balance to zero afterward: a
// leaked slot here is a permanently lost unit of serving capacity.
func TestLimiterRaceHammer(t *testing.T) {
	l := New(Config{Min: 1, Initial: 8, Max: 32, Queue: 16,
		QueueTarget: 5 * time.Millisecond, UpdateEvery: 4,
		Tel: obs.New(obs.NewRegistry(), nil)})

	const workers = 16
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(4) {
				case 0:
					if tok, ok := tryAcquire(l); ok {
						tok.Release()
					}
				case 1:
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(200))*time.Microsecond)
					if tok, err := l.Acquire(ctx); err == nil {
						time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
						tok.Release()
					}
					cancel()
				case 2:
					if tok, err := l.Acquire(context.Background()); err == nil {
						tok.Cancel()
					}
				case 3:
					// Double-release must be idempotent.
					if tok, ok := tryAcquire(l); ok {
						tok.Release()
						tok.Release()
						tok.Cancel()
					}
				}
			}
		}(int64(w + 1))
	}
	// Resizer: stomp the limit up and down under load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			l.SetLimit(1 + rng.Intn(32))
			time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		}
	}()
	// Reader: stats must be consistent while everything churns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if lim := l.Limit(); lim < 1 || lim > 32 {
				t.Errorf("limit %d escaped [1, 32]", lim)
				return
			}
			_ = l.Inflight()
			_ = l.QueueDepth()
			_ = l.RetryAfterSeconds()
		}
	}()

	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Every slot must come back: poll briefly (stragglers may still be
	// releasing), then require exact balance.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if l.Inflight() == 0 && l.QueueDepth() == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := l.Inflight(); got != 0 {
		t.Fatalf("leaked %d in-flight slots", got)
	}
	if got := l.QueueDepth(); got != 0 {
		t.Fatalf("leaked %d queued waiters", got)
	}
}
