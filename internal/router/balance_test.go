package router

import (
	"context"
	"sync"
	"testing"
	"time"

	"ajaxcrawl/internal/query"
)

func TestLatencyRingQuantile(t *testing.T) {
	l := newLatencyRing(latencyWindow)
	if _, ok := l.Quantile(0.5); ok {
		t.Fatal("empty ring answered a quantile")
	}
	for i := 1; i < minHedgeSamples; i++ {
		l.Observe(time.Duration(i) * time.Millisecond)
	}
	if _, ok := l.Quantile(0.5); ok {
		t.Fatalf("ring answered below minHedgeSamples (%d samples)", l.n)
	}
	l.Observe(time.Duration(minHedgeSamples) * time.Millisecond)
	// Samples are 1..8ms. The estimate is the ceil(q·n)-th smallest
	// observed value, never an interpolation.
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 4 * time.Millisecond},
		{0.75, 6 * time.Millisecond},
		{0.95, 8 * time.Millisecond},
		{1.0, 8 * time.Millisecond},
	}
	for _, tc := range cases {
		got, ok := l.Quantile(tc.q)
		if !ok || got != tc.want {
			t.Fatalf("Quantile(%v) = %v, %v; want %v", tc.q, got, ok, tc.want)
		}
	}
}

func TestLatencyRingEvictsOldest(t *testing.T) {
	l := newLatencyRing(minHedgeSamples)
	for i := 1; i <= minHedgeSamples; i++ {
		l.Observe(time.Duration(i) * time.Millisecond)
	}
	// Overwrite the two oldest (1ms, 2ms) with 100ms entries.
	l.Observe(100 * time.Millisecond)
	l.Observe(100 * time.Millisecond)
	if got := l.n; got != minHedgeSamples {
		t.Fatalf("Samples = %d, want %d (window capacity)", got, minHedgeSamples)
	}
	got, ok := l.Quantile(1.0)
	if !ok || got != 100*time.Millisecond {
		t.Fatalf("max after eviction = %v, want 100ms", got)
	}
	min, _ := l.Quantile(0.125)
	if min != 3*time.Millisecond {
		t.Fatalf("min after eviction = %v, want 3ms (1ms and 2ms evicted)", min)
	}
}

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
