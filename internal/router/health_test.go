package router

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/query"
)

// flipBackend is a replica whose behavior flips between healthy,
// erroring, and hanging — the chaos tests' flapping replica. It also
// implements Prober, failing probes while unhealthy.
type flipBackend struct {
	res *query.ShardResult

	mu     sync.Mutex
	mode   string // "ok", "err", "hang"
	calls  int
	probes int
}

func (b *flipBackend) set(mode string) {
	b.mu.Lock()
	b.mode = mode
	b.mu.Unlock()
}

func (b *flipBackend) ShardSearch(ctx context.Context, q string, hint query.Hint) (*query.ShardResult, error) {
	b.mu.Lock()
	b.calls++
	mode := b.mode
	b.mu.Unlock()
	switch mode {
	case "err":
		return nil, errReplicaDown
	case "hang":
		<-ctx.Done()
		return nil, ctx.Err()
	}
	cp := *b.res
	return &cp, nil
}

func (b *flipBackend) Probe(ctx context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probes++
	if b.mode != "ok" {
		return errReplicaDown
	}
	return nil
}

func (b *flipBackend) callCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls
}

func (b *flipBackend) probeCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.probes
}

// TestBudgetExhaustedFastReject: a shard call whose propagated budget
// is already at the floor is rejected before any replica is contacted.
func TestBudgetExhaustedFastReject(t *testing.T) {
	clock := newTestClock()
	b := &staticBackend{res: canned([]string{"video"}, 5, cand("http://a", 0, 1, 1))}
	r, err := New(Config{Shards: [][]Backend{{b}}, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, nil))
	ctx = WithBudget(ctx, clock.Now().Add(time.Millisecond), clock) // below the 2ms floor

	_, err = r.Search(ctx, "video", 10)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if b.callCount() != 0 {
		t.Fatalf("budget-rejected query still reached a replica (%d calls)", b.callCount())
	}
	if got := reg.Counter("router.fanout.budget_rejected").Value(); got != 1 {
		t.Fatalf("budget_rejected = %d, want 1", got)
	}
}

// TestBudgetClampsShardDeadline is the short-budget regression test on
// the virtual clock: ShardTimeout is one second, but the caller's
// budget has only 100ms left — the shard deadline must be the clamped
// minimum, so advancing exactly 100ms times the stalled shard out. An
// unclamped router would still be waiting at +100ms.
func TestBudgetClampsShardDeadline(t *testing.T) {
	clock := newTestClock()
	sg := &scriptedGroup{clock: clock}
	sg.script = []func(ctx context.Context) (*query.ShardResult, error){blockUntilCanceled}
	r, err := New(Config{
		Shards:       [][]Backend{sg.backends(1)},
		ShardTimeout: time.Second,
		Clock:        clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.With(context.Background(), obs.New(nil, nil))
	ctx = WithBudget(ctx, clock.Now().Add(100*time.Millisecond), clock)

	done := make(chan error, 1)
	go func() {
		_, err := r.Search(ctx, "video", 10)
		done <- err
	}()
	clock.awaitWaiters(t, 1) // the (clamped) shard deadline timer
	clock.Advance(100 * time.Millisecond)
	select {
	case err := <-done:
		if !errors.Is(err, ErrShardTimeout) {
			t.Fatalf("err = %v, want ErrShardTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shard deadline not clamped to the 100ms budget: still waiting at +100ms")
	}
}

// TestReplicaEjectionStopsFirstHitFailures: a dead replica is ejected
// into quarantine after crossing the health threshold, after which
// queries go straight to the healthy sibling — no more first-attempt
// failures — and probation probes readmit it once it recovers.
func TestReplicaEjectionStopsFirstHitFailures(t *testing.T) {
	terms := []string{"video"}
	res := canned(terms, 5, cand("http://a", 0, 1, 1))
	clock := newTestClock()
	flaky := &flipBackend{res: res, mode: "err"}
	healthy := &staticBackend{res: res}
	r, err := New(Config{
		Shards:          [][]Backend{{flaky, healthy}},
		Clock:           clock,
		EjectThreshold:  0.25, // one hard failure (EWMA 0.3) ejects
		QuarantineBase:  time.Second,
		ProbationProbes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, nil))

	// Query 1: the tie-break picks replica 0 (the dead one), it fails,
	// ejection triggers, and failover answers from the sibling.
	m := mustSearch(t, r, ctx, "video", 10)
	if m.ShardsOK != 1 {
		t.Fatalf("shards ok = %d", m.ShardsOK)
	}
	if got := reg.Counter("router.replica.ejected").Value(); got != 1 {
		t.Fatalf("ejected = %d, want 1", got)
	}
	if got := r.HealthyReplicas(0); got != 1 {
		t.Fatalf("healthy replicas = %d, want 1", got)
	}
	if got := reg.Gauge("router.replica.quarantined").Value(); got != 1 {
		t.Fatalf("quarantined gauge = %d, want 1", got)
	}
	calls := flaky.callCount()

	// Quarantine prevents repeated first-hit failures: later queries
	// never touch the dead replica.
	for i := 0; i < 5; i++ {
		mustSearch(t, r, ctx, "video", 10)
	}
	if got := flaky.callCount(); got != calls {
		t.Fatalf("quarantined replica still attempted: %d calls, want %d", got, calls)
	}

	// Recovery: before the backoff elapses, no probe fires.
	flaky.set("ok")
	r.ProbeSweep(ctx)
	if flaky.probeCount() != 0 {
		t.Fatalf("probe fired before the quarantine elapsed (%d probes)", flaky.probeCount())
	}
	// Probation needs two consecutive successes.
	clock.Advance(time.Second)
	r.ProbeSweep(ctx)
	if got := r.HealthyReplicas(0); got != 1 {
		t.Fatalf("readmitted after one probe, want probation of two (healthy=%d)", got)
	}
	r.ProbeSweep(ctx)
	if got := r.HealthyReplicas(0); got != 2 {
		t.Fatalf("healthy replicas after probation = %d, want 2", got)
	}
	if got := reg.Counter("router.replica.readmitted").Value(); got != 1 {
		t.Fatalf("readmitted = %d, want 1", got)
	}
	if got := reg.Gauge("router.replica.quarantined").Value(); got != 0 {
		t.Fatalf("quarantined gauge = %d, want 0", got)
	}

	// The readmitted replica serves again (clean health, tie-break
	// brings it back into rotation).
	mustSearch(t, r, ctx, "video", 10)
	if got := flaky.callCount(); got != calls+1 {
		t.Fatalf("readmitted replica not used: %d calls, want %d", got, calls+1)
	}
}

// TestProbeFailureDoublesBackoff: a failed probation probe restarts the
// quarantine with doubled backoff — a flapping replica is probed less
// and less often, not hammered.
func TestProbeFailureDoublesBackoff(t *testing.T) {
	terms := []string{"video"}
	res := canned(terms, 5, cand("http://a", 0, 1, 1))
	clock := newTestClock()
	flaky := &flipBackend{res: res, mode: "err"}
	healthy := &staticBackend{res: res}
	r, err := New(Config{
		Shards:          [][]Backend{{flaky, healthy}},
		Clock:           clock,
		EjectThreshold:  0.25,
		QuarantineBase:  time.Second,
		ProbationProbes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, nil))
	mustSearch(t, r, ctx, "video", 10) // ejects the dead replica

	clock.Advance(time.Second)
	r.ProbeSweep(ctx) // fails: backoff doubles to 2s
	if got := reg.Counter("router.replica.probe_failures").Value(); got != 1 {
		t.Fatalf("probe_failures = %d, want 1", got)
	}
	clock.Advance(time.Second)
	r.ProbeSweep(ctx) // only 1s into the 2s sentence: not due
	if got := flaky.probeCount(); got != 1 {
		t.Fatalf("probes = %d, want 1 (backoff not doubled)", got)
	}
	clock.Advance(time.Second)
	flaky.set("ok")
	r.ProbeSweep(ctx) // due again, succeeds, readmits
	if got := r.HealthyReplicas(0); got != 2 {
		t.Fatalf("healthy = %d, want 2", got)
	}
}

// TestFlappingReplicaBoundedHedges is the flapping chaos test: a
// replica hangs (every hit costs a hedge), recovers, then hangs again.
// Quarantine bounds the hedge storm — exactly the strikes needed to
// eject, twice — instead of one hedge per query forever.
func TestFlappingReplicaBoundedHedges(t *testing.T) {
	terms := []string{"video"}
	res := canned(terms, 5, cand("http://a", 0, 1, 1))
	clock := newTestClock()
	flaky := &flipBackend{res: res, mode: "hang"}
	healthy := &staticBackend{res: res}
	r, err := New(Config{
		Shards:          [][]Backend{{flaky, healthy}},
		Clock:           clock,
		HedgeAfter:      10 * time.Millisecond,
		ShardTimeout:    time.Second,
		EjectThreshold:  0.3, // three hedge strikes (0.5-weight EWMA) eject
		QuarantineBase:  time.Second,
		ProbationProbes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, nil))

	// Pin standing load on the healthy sibling: at low load the health
	// penalty alone steers every pick away from a suspect replica (no
	// strikes, no ejection — avoidance is enough). Ejection matters
	// under pressure, when the sibling's outstanding queue outweighs
	// the penalty and the sick replica keeps drawing traffic.
	r.groups[0].replicas[1].outstanding.Store(10)

	// run drives one query, advancing virtual time until it completes
	// (a hanging primary needs the hedge timer to fire).
	run := func() {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := r.Search(ctx, "video", 10)
			done <- err
		}()
		for {
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("query failed: %v", err)
				}
				return
			case <-time.After(time.Millisecond):
				clock.Advance(10 * time.Millisecond)
			}
		}
	}

	// Phase 1: hanging. Hedge strikes accumulate 0.15 → 0.255 → 0.329:
	// the third query ejects the replica.
	for i := 0; i < 3; i++ {
		run()
	}
	if got := reg.Counter("router.replica.ejected").Value(); got != 1 {
		t.Fatalf("ejected = %d, want 1 after three hedged queries", got)
	}
	hedgesAfterEject := reg.Counter("router.fanout.hedges").Value()
	if hedgesAfterEject != 3 {
		t.Fatalf("hedges = %d, want 3 (one per pre-ejection query)", hedgesAfterEject)
	}
	flakyCalls := flaky.callCount()

	// Quarantined: queries go straight to the healthy replica — no new
	// hedges, no new hits on the hanging backend.
	for i := 0; i < 5; i++ {
		run()
	}
	if got := reg.Counter("router.fanout.hedges").Value(); got != hedgesAfterEject {
		t.Fatalf("hedge storm not bounded: %d hedges, want %d", got, hedgesAfterEject)
	}
	if got := flaky.callCount(); got != flakyCalls {
		t.Fatalf("quarantined replica still hit: %d calls, want %d", got, flakyCalls)
	}

	// Phase 2: recovery and readmission.
	flaky.set("ok")
	clock.Advance(time.Second)
	r.ProbeSweep(ctx)
	if got := r.HealthyReplicas(0); got != 2 {
		t.Fatalf("healthy after probe = %d, want 2", got)
	}
	run() // serves from the recovered replica without hedging
	if got := reg.Counter("router.fanout.hedges").Value(); got != hedgesAfterEject {
		t.Fatalf("recovered replica still hedged: %d", got)
	}

	// Phase 3: it dies again — same bounded ejection, one more cycle.
	flaky.set("hang")
	for i := 0; i < 3; i++ {
		run()
	}
	if got := reg.Counter("router.replica.ejected").Value(); got != 2 {
		t.Fatalf("second ejection missing: ejected = %d, want 2", got)
	}
	if got := reg.Counter("router.fanout.hedges").Value(); got > hedgesAfterEject+3 {
		t.Fatalf("flapping hedge storm unbounded: %d hedges total", got)
	}
}

// TestRouterHealthzDegraded: /healthz reports live per-shard healthy
// replica counts and degrades to 503 when any shard has none.
func TestRouterHealthzDegraded(t *testing.T) {
	terms := []string{"video"}
	res := canned(terms, 5, cand("http://a", 0, 1, 1))
	rt, err := New(Config{Shards: [][]Backend{
		{&staticBackend{res: res}, &staticBackend{res: res}},
		{&staticBackend{res: res}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rs := NewServer(rt, ServerConfig{}, obs.New(obs.NewRegistry(), nil))

	get := func() (int, string) {
		rec := httptest.NewRecorder()
		rs.handleHealth(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code, rec.Body.String()
	}
	code, body := get()
	if code != 200 || !strings.Contains(body, `"healthy":[2,1]`) || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthy fleet: %d %s", code, body)
	}

	// Quarantine shard 1's only replica: the router must say degraded.
	rt.mu.Lock()
	rt.groups[1].replicas[0].quarantined = true
	rt.mu.Unlock()
	code, body = get()
	if code != 503 || !strings.Contains(body, `"healthy":[2,0]`) || !strings.Contains(body, `"status":"degraded"`) {
		t.Fatalf("degraded fleet: %d %s", code, body)
	}
}
