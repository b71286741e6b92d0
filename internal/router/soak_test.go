package router

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/serve"
	"ajaxcrawl/internal/webapp"
)

// soakBackend wraps a shard backend with a kill switch, a budget audit
// — every execution that begins with an already-expired deadline budget
// is counted, so the soak can assert there were exactly zero — and an
// optional hold: while the test write-locks hold, every call waits.
type soakBackend struct {
	inner   Backend
	hold    *sync.RWMutex
	down    atomic.Bool
	calls   atomic.Int64
	expired atomic.Int64
}

func (b *soakBackend) ShardSearch(ctx context.Context, q string, hint query.Hint) (*query.ShardResult, error) {
	b.calls.Add(1)
	if rem, ok := BudgetRemaining(ctx); ok && rem <= 0 {
		b.expired.Add(1)
	}
	if b.hold != nil {
		b.hold.RLock()
		b.hold.RUnlock()
	}
	if b.down.Load() {
		return nil, errReplicaDown
	}
	return b.inner.ShardSearch(ctx, q, hint)
}

func (b *soakBackend) Probe(ctx context.Context) error {
	if b.down.Load() {
		return errReplicaDown
	}
	return ctx.Err()
}

// TestFleetSoakOverloadWithFlappingReplica is the fleet's acceptance
// soak: a two-shard, two-replica fleet on the virtual clock, driven at
// twice the admission capacity while one replica flaps. It must hold
// four properties at once:
//
//  1. the limiter bounds the overload — exactly its capacity is
//     answered, the rest is shed with 429, and every slot comes back
//     between waves;
//  2. zero expired-budget executions;
//  3. the flapping replica is ejected (queries stop rediscovering it)
//     and later re-admitted through probation probes, all visible in
//     the router.replica.* metrics family;
//  4. every non-degraded (200) response is byte-identical to the
//     healthy, unloaded baseline.
func TestFleetSoakOverloadWithFlappingReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet soak: skipped in -short mode")
	}
	const (
		shards   = 2
		capacity = 4            // admission limit
		wave     = 2 * capacity // 2x capacity per wave
		k        = 10
	)
	clock := newTestClock()
	graphs, pr := crawlCorpus(t, 12, 31)
	dirs := publishPartitioned(t, graphs, pr, shards)

	// Two replicas per shard serving the same snapshot; every backend is
	// wrapped for the budget audit, and shard 0's first replica is the
	// one that will flap.
	var wrapped []*soakBackend
	var hold sync.RWMutex
	topo := make([][]Backend, shards)
	for i, dir := range dirs {
		snap, _, err := serve.LoadSnapshot(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		qs := query.NewServer(snap, query.CacheOptions{})
		reps := make([]Backend, 2)
		for j := range reps {
			sb := &soakBackend{inner: LocalBackend{QS: qs}, hold: &hold}
			wrapped = append(wrapped, sb)
			reps[j] = sb
		}
		topo[i] = reps
	}
	flaky := wrapped[0]

	rt, err := New(Config{
		Shards:         topo,
		Clock:          clock,
		ShardTimeout:   500 * time.Millisecond,
		EjectThreshold: 0.5, // two consecutive failures eject
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tel := obs.New(reg, nil)
	rs := NewServer(rt, ServerConfig{MaxInflight: capacity, QueryTimeout: 2 * time.Second}, tel)
	rts := httptest.NewServer(rs.Handler())
	defer rts.Close()

	queries := webapp.Queries()[:8]

	// Healthy, unloaded baseline: the byte-identity reference.
	baseline := make(map[string][]byte, len(queries))
	for _, q := range queries {
		resp, body := httpGet(t, rts.URL+searchPath(q, k))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("baseline q=%q: status %d: %s", q, resp.StatusCode, body)
		}
		baseline[q] = body
	}

	// drained polls (briefly, in real time) for the limiter to settle
	// back to empty once a wave's responses have all been received —
	// the handlers' deferred Releases may still be running.
	drained := func() {
		t.Helper()
		waitFor(t, func() bool { return reg.Gauge("admission.inflight").Value() == 0 })
	}

	// runWave fires wave concurrent budget-carrying requests cycling
	// the workload, verifies byte-identity of every 200, and checks
	// every slot comes back. Returns how many were served. The shards
	// hold every admitted query until the rest of the wave has been
	// shed, so the limiter, not the scheduler, decides the count.
	runWave := func() int {
		t.Helper()
		type res struct {
			code int
			body []byte
			q    string
		}
		out := make(chan res, wave)
		hold.Lock()
		shedBefore := reg.Counter("router.shed").Value()
		var wg sync.WaitGroup
		for i := 0; i < wave; i++ {
			q := queries[i%len(queries)]
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				req, err := http.NewRequest(http.MethodGet, rts.URL+searchPath(q, k), nil)
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set(serve.HeaderBudget, "1500")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				body := new(bytes.Buffer)
				body.ReadFrom(resp.Body)
				resp.Body.Close()
				out <- res{resp.StatusCode, body.Bytes(), q}
			}(q)
		}
		waitFor(t, func() bool { return reg.Counter("router.shed").Value()-shedBefore == wave-capacity })
		hold.Unlock()
		wg.Wait()
		close(out)
		ok := 0
		for r := range out {
			switch r.code {
			case http.StatusOK:
				ok++
				if !bytes.Equal(r.body, baseline[r.q]) {
					t.Errorf("q=%q diverged from healthy baseline:\n%s\nvs\n%s", r.q, r.body, baseline[r.q])
				}
			case http.StatusTooManyRequests:
				// Shed up front: allowed under overload, but never a
				// wrong answer.
			default:
				t.Errorf("q=%q: unexpected status %d: %s", r.q, r.code, r.body)
			}
		}
		drained()
		return ok
	}

	// Phase 1 — healthy fleet under 2x capacity: the limiter answers
	// exactly its capacity, byte for byte, and sheds the rest.
	for round := 0; round < 5; round++ {
		if got := runWave(); got != capacity {
			t.Fatalf("healthy round %d: served %d/%d, want %d", round, got, wave, capacity)
		}
	}
	if got := reg.Counter("router.shed").Value(); got != 5*(wave-capacity) {
		t.Fatalf("router.shed = %d, want %d", got, 5*(wave-capacity))
	}

	// Phase 2 — the replica goes dark. Failover keeps answers complete
	// and byte-identical while the health EWMA accumulates; within a few
	// waves the replica must be ejected.
	flaky.down.Store(true)
	ejected := false
	for round := 0; round < 20 && !ejected; round++ {
		if got := runWave(); got != capacity {
			t.Fatalf("flapping round %d: served %d/%d, want %d", round, got, wave, capacity)
		}
		ejected = reg.Counter("router.replica.ejected").Value() >= 1
	}
	if !ejected {
		t.Fatal("flapping replica was never ejected")
	}
	if got := reg.Gauge("router.replica.quarantined").Value(); got != 1 {
		t.Fatalf("router.replica.quarantined = %d, want 1", got)
	}
	if got := rt.HealthyReplicas(0); got != 1 {
		t.Fatalf("shard 0 healthy replicas = %d, want 1", got)
	}

	// Quarantine means queries stop paying the first-hit tax: three more
	// waves must not touch the dead replica at all.
	before := flaky.calls.Load()
	for round := 0; round < 3; round++ {
		if got := runWave(); got != capacity {
			t.Fatalf("post-ejection round %d: served %d/%d, want %d", round, got, wave, capacity)
		}
	}
	if got := flaky.calls.Load(); got != before {
		t.Fatalf("quarantined replica still took %d calls", got-before)
	}

	// Phase 3 — recovery: the replica comes back, its backoff elapses,
	// and two probation probes readmit it.
	flaky.down.Store(false)
	clock.Advance(5 * time.Second) // default QuarantineBase
	pctx := obs.With(context.Background(), tel)
	rt.ProbeSweep(pctx)
	rt.ProbeSweep(pctx)
	if got := reg.Counter("router.replica.readmitted").Value(); got != 1 {
		t.Fatalf("router.replica.readmitted = %d, want 1", got)
	}
	if got := reg.Counter("router.replica.probes").Value(); got != 2 {
		t.Fatalf("router.replica.probes = %d, want 2", got)
	}
	if got := reg.Gauge("router.replica.quarantined").Value(); got != 0 {
		t.Fatalf("router.replica.quarantined = %d after readmission", got)
	}
	if got := rt.HealthyReplicas(0); got != 2 {
		t.Fatalf("shard 0 healthy replicas = %d after readmission, want 2", got)
	}

	// The readmitted replica serves again, still byte-identical.
	before = flaky.calls.Load()
	for round := 0; round < 3; round++ {
		if got := runWave(); got != capacity {
			t.Fatalf("recovered round %d: served %d/%d, want %d", round, got, wave, capacity)
		}
	}
	if flaky.calls.Load() == before {
		t.Fatal("readmitted replica never served a query")
	}

	// Global invariant: no execution ever began with an expired budget.
	for i, sb := range wrapped {
		if got := sb.expired.Load(); got != 0 {
			t.Fatalf("backend %d ran %d queries with an expired budget", i, got)
		}
	}
}

// waitFor polls cond briefly in real time (the condition is crossing a
// goroutine boundary, not virtual time).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
