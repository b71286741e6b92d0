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

	"ajaxcrawl/internal/admission"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/serve"
	"ajaxcrawl/internal/webapp"
)

// soakBackend wraps a shard backend with a kill switch and a budget
// audit: every execution that begins with an already-expired deadline
// budget is counted, so the soak can assert there were exactly zero.
type soakBackend struct {
	inner   Backend
	down    atomic.Bool
	calls   atomic.Int64
	expired atomic.Int64
}

func (b *soakBackend) ShardSearch(ctx context.Context, q string, hint query.Hint) (*query.ShardResult, error) {
	b.calls.Add(1)
	if rem, ok := BudgetRemaining(ctx); ok && rem <= 0 {
		b.expired.Add(1)
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

// TestFleetSoakOverloadWithFlappingReplica is the PR's acceptance soak:
// a two-shard, two-replica fleet on the virtual clock, driven at twice
// the admission capacity while one replica flaps. It must hold four
// properties at once:
//
//  1. the adaptive limiter absorbs the overload — the wait queue fills
//     but always drains back to zero between waves (no sustained growth);
//  2. zero expired-budget executions — a query whose propagated budget
//     dies in the queue is rejected up front, never run;
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
	topo := make([][]Backend, shards)
	for i, dir := range dirs {
		snap, _, err := serve.LoadSnapshot(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		qs := query.NewServer(snap, query.CacheOptions{})
		reps := make([]Backend, 2)
		for j := range reps {
			sb := &soakBackend{inner: LocalBackend{QS: qs}}
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
	rs := NewServer(rt, ServerConfig{
		MaxInflight:    capacity,
		AdmissionMin:   1,
		AdmissionQueue: 16,
		// Keep CoDel out of the budget-starvation scenario below: the
		// sojourn bound would otherwise drop the starved waiter before
		// the budget check gets to reject it.
		AdmissionTarget: 10 * time.Second,
		QueryTimeout:    2 * time.Second,
	}, tel)
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
		deadline := time.Now().Add(2 * time.Second)
		for rs.Limiter().Inflight() != 0 || rs.Limiter().QueueDepth() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("limiter did not drain: inflight=%d queue=%d",
					rs.Limiter().Inflight(), rs.Limiter().QueueDepth())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// runWave fires `wave` concurrent budget-carrying requests cycling
	// the workload, verifies byte-identity of every 200, and checks the
	// queue drains afterwards. Returns how many were served.
	runWave := func() int {
		t.Helper()
		type res struct {
			code int
			body []byte
			q    string
		}
		out := make(chan res, wave)
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
			case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusBadGateway:
				// Shed or rejected up front: allowed under overload, but
				// never a wrong answer.
			default:
				t.Errorf("q=%q: unexpected status %d: %s", r.q, r.code, r.body)
			}
		}
		drained()
		return ok
	}

	// Phase 1 — healthy fleet under 2x capacity: everything is served
	// (the queue absorbs the excess) and every byte matches.
	for round := 0; round < 5; round++ {
		if got := runWave(); got != wave {
			t.Fatalf("healthy round %d: served %d/%d", round, got, wave)
		}
	}
	if reg.Counter("admission.queued").Value() == 0 {
		t.Fatal("2x capacity load never queued — the overload was not real")
	}

	// Phase 2 — the replica goes dark. Failover keeps answers complete
	// and byte-identical while the health EWMA accumulates; within a few
	// waves the replica must be ejected.
	flaky.down.Store(true)
	ejected := false
	for round := 0; round < 20 && !ejected; round++ {
		runWave()
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
		if got := runWave(); got != wave {
			t.Fatalf("post-ejection round %d: served %d/%d", round, got, wave)
		}
	}
	if got := flaky.calls.Load(); got != before {
		t.Fatalf("quarantined replica still took %d calls", got-before)
	}

	// Phase 3 — budget starvation under queue pressure: saturate the
	// limiter, queue a request whose 50ms budget then dies on the virtual
	// clock, release — the grant must be followed by the front's
	// up-front 503, not a fan-out that every shard refuses.
	backendCalls := func() (n int64) {
		for _, sb := range wrapped {
			n += sb.calls.Load()
		}
		return n
	}
	callsBefore := backendCalls()
	rejectedBefore := reg.Counter("router.budget_rejected").Value()
	var toks []*admission.Token
	for i := 0; i < capacity; i++ {
		tok, err := rs.Limiter().Acquire(context.Background())
		if err != nil {
			t.Fatal("could not saturate the limiter")
		}
		toks = append(toks, tok)
	}
	starved := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodGet, rts.URL+searchPath(queries[0], k), nil)
		req.Header.Set(serve.HeaderBudget, "50")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			starved <- 0
			return
		}
		resp.Body.Close()
		starved <- resp.StatusCode
	}()
	waitFor(t, func() bool { return rs.Limiter().QueueDepth() == 1 })
	clock.Advance(100 * time.Millisecond) // the queued request's budget dies here
	for _, tok := range toks {
		tok.Cancel()
	}
	if code := <-starved; code != http.StatusServiceUnavailable {
		t.Fatalf("starved request: status %d, want 503 (budget rejected after the queue wait)", code)
	}
	if got := reg.Counter("router.budget_rejected").Value() - rejectedBefore; got != 1 {
		t.Fatalf("router.budget_rejected rose by %d, want 1", got)
	}
	if got := backendCalls() - callsBefore; got != 0 {
		t.Fatalf("the starved request made %d backend calls, want 0", got)
	}
	drained()

	// Phase 4 — recovery: the replica comes back, its backoff elapses,
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
		if got := runWave(); got != wave {
			t.Fatalf("recovered round %d: served %d/%d", round, got, wave)
		}
	}
	if flaky.calls.Load() == before {
		t.Fatal("readmitted replica never served a query")
	}

	// Global invariants: no execution ever began with an expired budget,
	// and the adaptive limit stayed inside its configured band.
	for i, sb := range wrapped {
		if got := sb.expired.Load(); got != 0 {
			t.Fatalf("backend %d ran %d queries with an expired budget", i, got)
		}
	}
	if lim := rs.Limiter().Limit(); lim < 1 || lim > capacity {
		t.Fatalf("limit drifted out of band: %d", lim)
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
