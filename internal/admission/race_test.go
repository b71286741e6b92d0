package admission

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ajaxcrawl/internal/obs"
)

// TestLimiterRaceHammer drives concurrent acquires, releases and double
// releases through one limiter, as the serving daemons do under load.
// The -race build must stay silent, the limit must hold throughout, and
// the accounting must balance to zero afterward: a leaked slot here is
// a permanently lost unit of serving capacity.
func TestLimiterRaceHammer(t *testing.T) {
	const limit, workers = 8, 16
	l := New(Config{Max: limit, Tel: obs.New(obs.NewRegistry(), nil)})
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
				tok, err := l.Acquire(context.Background())
				if err != nil {
					continue
				}
				if n := inflight(l); n > limit {
					t.Errorf("%d in flight past the limit %d", n, limit)
				}
				time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
				tok.Release()
				if rng.Intn(4) == 0 {
					tok.Release() // must be idempotent
				}
			}
		}(int64(w + 1))
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if got := inflight(l); got != 0 {
		t.Fatalf("leaked %d in-flight slots", got)
	}
}
