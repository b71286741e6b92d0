package admission

import (
	"context"
	"testing"
	"time"

	"ajaxcrawl/internal/obs"
)

// manualClock is a settable clock: the limiter only reads Now, so tests
// advance time explicitly between acquire and release to script exact
// latencies.
type manualClock struct {
	mu  chan struct{}
	now time.Time
}

func newManualClock() *manualClock {
	c := &manualClock{mu: make(chan struct{}, 1), now: time.Unix(0, 0)}
	c.mu <- struct{}{}
	return c
}

func (c *manualClock) Now() time.Time {
	<-c.mu
	t := c.now
	c.mu <- struct{}{}
	return t
}

func (c *manualClock) Advance(d time.Duration) {
	<-c.mu
	c.now = c.now.Add(d)
	c.mu <- struct{}{}
}

func (c *manualClock) Sleep(ctx context.Context, d time.Duration) error {
	c.Advance(d)
	return ctx.Err()
}

func TestDefaults(t *testing.T) {
	l := New(Config{})
	if got := l.Limit(); got != 64 {
		t.Fatalf("default limit = %d, want 64 (Initial defaults to Max)", got)
	}
	if l.QueueLimit() != 0 {
		t.Fatalf("default queue = %d, want 0", l.QueueLimit())
	}
	if l.RetryAfterSeconds() != 1 {
		t.Fatalf("cold RetryAfterSeconds = %d, want 1", l.RetryAfterSeconds())
	}
}

// saturate runs one full-utilization round: acquire every slot, observe
// a failed tryAcquire (marking saturation), then release all slots
// after lat of virtual time.
func saturate(t *testing.T, l *Limiter, clock *manualClock, lat time.Duration) {
	t.Helper()
	var toks []*Token
	for {
		tok, ok := tryAcquire(l)
		if !ok {
			break
		}
		toks = append(toks, tok)
	}
	clock.Advance(lat)
	for _, tok := range toks {
		tok.Release()
	}
}

func TestAdditiveIncreaseWhenSaturatedAndFlat(t *testing.T) {
	clock := newManualClock()
	l := New(Config{Min: 1, Initial: 2, Max: 10, UpdateEvery: 4, Clock: clock})
	// Two rounds of 2 saturated samples each at a flat 10ms: the fourth
	// sample triggers a decision with a saturated window and latency at
	// baseline, so the limit steps up by exactly one.
	saturate(t, l, clock, 10*time.Millisecond)
	saturate(t, l, clock, 10*time.Millisecond)
	if got := l.Limit(); got != 3 {
		t.Fatalf("limit after flat saturated batch = %d, want 3", got)
	}
}

func TestMultiplicativeDecreaseOnLatencyGradient(t *testing.T) {
	clock := newManualClock()
	reg := obs.NewRegistry()
	l := New(Config{Min: 2, Initial: 8, Max: 8, UpdateEvery: 4,
		Tolerance: 2, DecreaseFactor: 0.75, Clock: clock, Tel: obs.New(reg, nil)})
	// Baseline batch: 4 samples at 10ms (unsaturated — limit 8, 1 in
	// flight), so the moving minimum learns 10ms.
	for i := 0; i < 4; i++ {
		tok, ok := tryAcquire(l)
		if !ok {
			t.Fatal("unsaturated acquire failed")
		}
		clock.Advance(10 * time.Millisecond)
		tok.Release()
	}
	if got := l.Limit(); got != 8 {
		t.Fatalf("limit moved without congestion or saturation: %d", got)
	}
	// Congested batch: 50ms > 2×10ms ⇒ multiplicative cut 8 → 6.
	for i := 0; i < 4; i++ {
		tok, _ := tryAcquire(l)
		clock.Advance(50 * time.Millisecond)
		tok.Release()
	}
	if got := l.Limit(); got != 6 {
		t.Fatalf("limit after congested batch = %d, want 6", got)
	}
	// Keep the pressure on: 6 → 4 → 3 → 2, clamped at Min=2.
	for round := 0; round < 8; round++ {
		for i := 0; i < 4; i++ {
			tok, _ := tryAcquire(l)
			clock.Advance(50 * time.Millisecond)
			tok.Release()
		}
	}
	if got := l.Limit(); got != 2 {
		t.Fatalf("limit not clamped at Min: %d", got)
	}
	if got := reg.Gauge("admission.limit").Value(); got != 2 {
		t.Fatalf("admission.limit gauge = %d, want 2", got)
	}
	if reg.Counter("admission.decrease").Value() == 0 {
		t.Fatal("admission.decrease never incremented")
	}
}

func TestBaselineWindowForgetsStaleMinimum(t *testing.T) {
	clock := newManualClock()
	l := New(Config{Min: 1, Initial: 8, Max: 8, UpdateEvery: 2,
		Tolerance: 2, Window: time.Second, Clock: clock})
	// Fast past: two 10ms samples at t≈0.
	for i := 0; i < 2; i++ {
		tok, _ := tryAcquire(l)
		clock.Advance(10 * time.Millisecond)
		tok.Release()
	}
	// A uniformly slow present: after the 1s window rotates the 10ms
	// minimum out, 50ms IS the baseline and decreases must stop.
	clock.Advance(2 * time.Second)
	for round := 0; round < 10; round++ {
		for i := 0; i < 2; i++ {
			tok, _ := tryAcquire(l)
			clock.Advance(50 * time.Millisecond)
			tok.Release()
		}
	}
	// The first post-rotation batches may still decrease against the
	// remembered 10ms, but once both half-window buckets hold only 50ms
	// samples the limit must stabilize — run two more rounds and check
	// it no longer moves.
	stable := l.Limit()
	for round := 0; round < 2; round++ {
		for i := 0; i < 2; i++ {
			tok, _ := tryAcquire(l)
			clock.Advance(50 * time.Millisecond)
			tok.Release()
		}
	}
	if got := l.Limit(); got != stable {
		t.Fatalf("limit still falling after baseline rotated (%d → %d): the moving min never forgot", stable, got)
	}
	if got := l.Limit(); got < 1 {
		t.Fatalf("limit = %d", got)
	}
}

// acquireAsync runs Acquire in a goroutine and reports its outcome.
func acquireAsync(l *Limiter, ctx context.Context) chan error {
	out := make(chan error, 1)
	go func() {
		tok, err := l.Acquire(ctx)
		if err == nil {
			// Hold until told otherwise; tests release via the token map
			// — here the token is released instantly to keep FIFO tests
			// focused on grant order.
			tok.Release()
		}
		out <- err
	}()
	return out
}

func waitDepth(t *testing.T, l *Limiter, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if l.QueueDepth() == n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("queue depth never reached %d (have %d)", n, l.QueueDepth())
}

func TestQueueGrantsFIFOWithinTarget(t *testing.T) {
	clock := newManualClock()
	l := New(Config{Min: 1, Initial: 1, Max: 1, Queue: 2,
		QueueTarget: 20 * time.Millisecond, Clock: clock})
	hold, ok := tryAcquire(l)
	if !ok {
		t.Fatal("first acquire failed")
	}
	w1 := acquireAsync(l, context.Background())
	waitDepth(t, l, 1)
	w2 := acquireAsync(l, context.Background())
	waitDepth(t, l, 2)
	// Within the sojourn target: releasing the holder admits w1, whose
	// own release then admits w2.
	clock.Advance(10 * time.Millisecond)
	hold.Release()
	if err := <-w1; err != nil {
		t.Fatalf("first waiter rejected: %v", err)
	}
	if err := <-w2; err != nil {
		t.Fatalf("second waiter rejected: %v", err)
	}
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight = %d after full drain", got)
	}
}

func TestCoDelDropsOverstayedWaiters(t *testing.T) {
	clock := newManualClock()
	reg := obs.NewRegistry()
	l := New(Config{Min: 1, Initial: 1, Max: 1, Queue: 2,
		QueueTarget: 20 * time.Millisecond, Clock: clock, Tel: obs.New(reg, nil)})
	hold, _ := tryAcquire(l)
	w1 := acquireAsync(l, context.Background())
	waitDepth(t, l, 1)
	// The waiter sits 30ms > 20ms target: when its turn comes it is
	// dropped, not served.
	clock.Advance(30 * time.Millisecond)
	hold.Release()
	if err := <-w1; err != ErrSaturated {
		t.Fatalf("overstayed waiter got %v, want ErrSaturated", err)
	}
	if got := reg.Counter("admission.queue_dropped").Value(); got != 1 {
		t.Fatalf("queue_dropped = %d, want 1", got)
	}
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight = %d, want 0 (slot retired, not leaked)", got)
	}
}

func TestQueueFullShedsImmediately(t *testing.T) {
	clock := newManualClock()
	reg := obs.NewRegistry()
	l := New(Config{Min: 1, Initial: 1, Max: 1, Queue: 1, Clock: clock, Tel: obs.New(reg, nil)})
	hold, _ := tryAcquire(l)
	defer hold.Release()
	go acquireAsync(l, context.Background())
	waitDepth(t, l, 1)
	if _, err := l.Acquire(context.Background()); err != ErrSaturated {
		t.Fatalf("over-queue acquire got %v, want ErrSaturated", err)
	}
	if got := reg.Counter("admission.shed").Value(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
}

func TestZeroQueueIsLegacySemaphore(t *testing.T) {
	l := New(Config{Min: 1, Initial: 2, Max: 2})
	a, _ := tryAcquire(l)
	b, _ := tryAcquire(l)
	if _, err := l.Acquire(context.Background()); err != ErrSaturated {
		t.Fatalf("acquire at limit with no queue got %v, want immediate ErrSaturated", err)
	}
	a.Release()
	b.Release()
}

func TestCanceledWaiterLeavesQueue(t *testing.T) {
	l := New(Config{Min: 1, Initial: 1, Max: 1, Queue: 4})
	hold, _ := tryAcquire(l)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := l.Acquire(ctx)
		errc <- err
	}()
	waitDepth(t, l, 1)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("canceled waiter got %v", err)
	}
	if got := l.QueueDepth(); got != 0 {
		t.Fatalf("queue depth = %d after cancel", got)
	}
	hold.Release()
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight = %d", got)
	}
}

func TestCancelRecordsNoSample(t *testing.T) {
	clock := newManualClock()
	l := New(Config{Min: 1, Initial: 4, Max: 4, UpdateEvery: 1, Clock: clock})
	tok, _ := tryAcquire(l)
	clock.Advance(time.Microsecond)
	tok.Cancel()
	if got := l.RetryAfterSeconds(); got != 1 {
		t.Fatalf("Cancel fed the controller: RetryAfterSeconds = %d", got)
	}
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight = %d after Cancel", got)
	}
}

func TestRetryAfterScalesWithQueueAndLatency(t *testing.T) {
	clock := newManualClock()
	l := New(Config{Min: 1, Initial: 1, Max: 1, Queue: 8, Clock: clock})
	// One 2s sample seeds the EWMA.
	tok, _ := tryAcquire(l)
	clock.Advance(2 * time.Second)
	tok.Release()
	if got := l.RetryAfterSeconds(); got != 2 {
		t.Fatalf("RetryAfterSeconds = %d, want 2 (ceil of one 2s service time)", got)
	}
	// Three queued waiters ahead: the hint grows to cover their drain.
	hold, _ := tryAcquire(l)
	for i := 0; i < 3; i++ {
		go acquireAsync(l, context.Background())
	}
	waitDepth(t, l, 3)
	if got := l.RetryAfterSeconds(); got < 8 {
		t.Fatalf("RetryAfterSeconds = %d with 3 queued 2s requests, want >= 8", got)
	}
	clock.Advance(time.Millisecond)
	hold.Release()
}

func TestSetLimitShrinkRetiresSlots(t *testing.T) {
	l := New(Config{Min: 1, Initial: 4, Max: 8})
	var toks []*Token
	for i := 0; i < 4; i++ {
		tok, ok := tryAcquire(l)
		if !ok {
			t.Fatal("acquire under limit failed")
		}
		toks = append(toks, tok)
	}
	l.SetLimit(2)
	toks[0].Release()
	toks[1].Release()
	if got := l.Inflight(); got != 2 {
		t.Fatalf("inflight = %d after shrink drain, want 2", got)
	}
	if _, ok := tryAcquire(l); ok {
		t.Fatal("acquire admitted above the shrunken limit")
	}
	toks[2].Release()
	toks[3].Release()
	if _, ok := tryAcquire(l); !ok {
		t.Fatal("acquire below the shrunken limit failed")
	}
}

func TestSetLimitGrowthAdmitsWaiters(t *testing.T) {
	l := New(Config{Min: 1, Initial: 1, Max: 8, Queue: 4, QueueTarget: time.Hour})
	hold, _ := tryAcquire(l)
	granted := make(chan *Token, 1)
	go func() {
		tok, err := l.Acquire(context.Background())
		if err != nil {
			t.Errorf("waiter rejected: %v", err)
		}
		granted <- tok
	}()
	waitDepth(t, l, 1)
	l.SetLimit(2)
	tok := <-granted
	tok.Release()
	hold.Release()
}

// TestConvergenceUnderSustainedOverload is the limiter half of the
// fleet soak story, run as a deterministic discrete-event simulation:
// a service with true capacity C is offered 3C arrivals per round, and
// per-round latency grows linearly once concurrency exceeds C. The
// adaptive limit must walk down from Max to the service's knee and
// oscillate in a tight band there — no collapse to Min, no sticking at
// Max, and nothing ever queues unboundedly.
func TestConvergenceUnderSustainedOverload(t *testing.T) {
	const (
		capacity = 8
		offered  = 3 * capacity
		baseLat  = 10 * time.Millisecond
	)
	clock := newManualClock()
	reg := obs.NewRegistry()
	l := New(Config{Min: 1, Initial: 32, Max: 32, UpdateEvery: 8,
		Tolerance: 2, DecreaseFactor: 0.75, Window: time.Hour,
		Clock: clock, Tel: obs.New(reg, nil)})

	// Warmup: light load teaches the moving minimum the uncongested
	// baseline (in production this is any quiet moment).
	for round := 0; round < 4; round++ {
		var toks []*Token
		for i := 0; i < capacity/2; i++ {
			tok, ok := tryAcquire(l)
			if !ok {
				t.Fatalf("warmup shed at round %d", round)
			}
			toks = append(toks, tok)
		}
		clock.Advance(baseLat)
		for _, tok := range toks {
			tok.Release()
		}
	}

	// Sustained 3× overload. The limit settles into an AIMD sawtooth
	// around the knee; record its band over the tail rounds.
	sheds := 0
	loLim, hiLim, sumLim, tail := 1<<30, 0, 0, 0
	for round := 0; round < 120; round++ {
		var toks []*Token
		for i := 0; i < offered; i++ {
			tok, ok := tryAcquire(l)
			if !ok {
				sheds++
				continue
			}
			toks = append(toks, tok)
		}
		lat := baseLat
		if n := len(toks); n > capacity {
			lat = baseLat * time.Duration(n) / capacity
		}
		clock.Advance(lat)
		for _, tok := range toks {
			tok.Release()
		}
		if got := l.QueueDepth(); got != 0 {
			t.Fatalf("round %d: queue depth %d in a tryAcquire-only sim", round, got)
		}
		if round >= 90 {
			lim := l.Limit()
			if lim < loLim {
				loLim = lim
			}
			if lim > hiLim {
				hiLim = lim
			}
			sumLim += lim
			tail++
		}
	}

	// Converged: with Tolerance 2 the sawtooth tops out where latency
	// first exceeds 2× baseline (just above 2×capacity) and the
	// multiplicative cuts bottom out well above Min — the limit neither
	// sticks at Max nor collapses, and its average rides the knee.
	if hiLim > 2*capacity+2 {
		t.Fatalf("sawtooth peak %d, want <= %d (limit stuck high)", hiLim, 2*capacity+2)
	}
	if loLim < capacity/2 {
		t.Fatalf("sawtooth trough %d, want >= %d (limit collapsed)", loLim, capacity/2)
	}
	if avg := sumLim / tail; avg < capacity/2 || avg > 2*capacity {
		t.Fatalf("mean limit %d over the tail, want around capacity %d", avg, capacity)
	}
	if sheds == 0 {
		t.Fatal("3x overload produced zero sheds")
	}
	if reg.Counter("admission.decrease").Value() == 0 {
		t.Fatal("overload never cut the limit")
	}
	if hint := l.RetryAfterSeconds(); hint < 1 {
		t.Fatalf("RetryAfterSeconds = %d", hint)
	}
}

// TestAcquireReleaseAllocs pins the admitted path with telemetry on to
// the token alone: every admission.* name is a literal, so publishing
// the counters and occupancy gauges allocates nothing.
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

// tryAcquire takes a free slot or fails at once: Acquire under a context
// that has already ended, which admits into a free slot and otherwise
// sheds (no queue) or leaves the queue it just joined.
func tryAcquire(l *Limiter) (*Token, bool) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tok, err := l.Acquire(ctx)
	return tok, err == nil
}

// SetLimit pins the limit to n (clamped to [Min, Max]) — an operator
// override or a test hook. Growth admits queued waiters immediately;
// shrink drains as in-flight requests complete.
func (l *Limiter) SetLimit(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < l.cfg.Min {
		n = l.cfg.Min
	}
	if n > l.cfg.Max {
		n = l.cfg.Max
	}
	l.limit = n
	l.tel.Gauge("admission.limit").Set(int64(n))
	l.grantUpToLimitLocked()
}
