package router

import (
	"context"
	"sync"
	"testing"
	"time"

	"ajaxcrawl/internal/query"
)

func newPickRouter(t *testing.T, replicas int) *Router {
	t.Helper()
	b := make([]Backend, replicas)
	for i := range b {
		b[i] = &staticBackend{}
	}
	r, err := New(Config{Shards: [][]Backend{b}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPickAvoidsLoadedReplica: with two replicas, power of two choices
// samples both, so the overloaded one is NEVER picked.
func TestPickAvoidsLoadedReplica(t *testing.T) {
	r := newPickRouter(t, 2)
	g := r.groups[0]
	g.replicas[0].outstanding.Store(100)
	for i := 0; i < 200; i++ {
		if got := r.pick(g, make([]bool, 2), nil); got != 1 {
			t.Fatalf("pick %d chose the loaded replica", i)
		}
	}
}

// TestPickTieBreaksLowerIndex: equal load picks the lower index, so the
// choice is deterministic given the outstanding counters.
func TestPickTieBreaksLowerIndex(t *testing.T) {
	r := newPickRouter(t, 2)
	g := r.groups[0]
	for i := 0; i < 200; i++ {
		if got := r.pick(g, make([]bool, 2), nil); got != 0 {
			t.Fatalf("pick %d broke a tie toward the higher index (%d)", i, got)
		}
	}
}

// TestPickSkewedFleetSheds: in a 4-replica group with one hot replica,
// P2C sends it nothing (any sample pairing it with a sibling loses) and
// spreads the rest across the idle replicas.
func TestPickSkewedFleetSheds(t *testing.T) {
	r := newPickRouter(t, 4)
	g := r.groups[0]
	g.replicas[0].outstanding.Store(50)
	counts := make([]int, 4)
	const trials = 3000
	for i := 0; i < trials; i++ {
		ri := r.pick(g, make([]bool, 4), nil)
		counts[ri]++
	}
	if counts[0] != 0 {
		t.Fatalf("hot replica picked %d times, want 0", counts[0])
	}
	for i := 1; i < 4; i++ {
		// Idle replicas share the traffic; a loose floor catches a
		// degenerate (non-uniform-sampling) picker.
		if counts[i] < trials/10 {
			t.Fatalf("replica %d picked only %d/%d times: %v", i, counts[i], trials, counts)
		}
	}
}

func TestPickRespectsUsedAndExhaustion(t *testing.T) {
	r := newPickRouter(t, 3)
	g := r.groups[0]
	used := []bool{true, false, true}
	for i := 0; i < 50; i++ {
		if got := r.pick(g, used, nil); got != 1 {
			t.Fatalf("pick chose used replica %d", got)
		}
	}
	if got := r.pick(g, []bool{true, true, true}, nil); got != -1 {
		t.Fatalf("pick on exhausted group = %d, want -1", got)
	}
}

// slowBackend answers after a real-time delay, to build up outstanding
// load the balancer can observe.
type slowBackend struct {
	res   *query.ShardResult
	delay time.Duration

	mu    sync.Mutex
	calls int
}

func (b *slowBackend) ShardSearch(ctx context.Context, q string, hint query.Hint) (*query.ShardResult, error) {
	b.mu.Lock()
	b.calls++
	b.mu.Unlock()
	if b.delay > 0 {
		select {
		case <-time.After(b.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	cp := *b.res
	return &cp, nil
}

func (b *slowBackend) callCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls
}

// TestBalanceUnderSkewedLatency drives live concurrent traffic at a
// 3-replica shard where one replica is much slower. Its outstanding
// count stays high, so power of two choices must route it LESS than a
// fair share — the bound is loose (under 1/3) to stay robust across
// schedulers, but a random or round-robin picker would fail it.
func TestBalanceUnderSkewedLatency(t *testing.T) {
	terms := []string{"video"}
	res := canned(terms, 5, cand("http://a", 0, 1, 1))
	slow := &slowBackend{res: res, delay: 4 * time.Millisecond}
	fast1 := &slowBackend{res: res}
	fast2 := &slowBackend{res: res}
	r, err := New(Config{Shards: [][]Backend{{slow, fast1, fast2}}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := r.Search(context.Background(), "video", 5); err != nil {
					t.Errorf("Search: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	total := slow.callCount() + fast1.callCount() + fast2.callCount()
	if total != workers*perWorker {
		t.Fatalf("total calls = %d, want %d", total, workers*perWorker)
	}
	if got := slow.callCount(); got >= total/3 {
		t.Fatalf("slow replica took %d/%d calls — at or above fair share, balancer not shedding", got, total)
	}
}
