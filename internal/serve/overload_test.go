package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"ajaxcrawl/internal/admission"
	"ajaxcrawl/internal/obs"
)

// stepClock is a manually advanced fetch.Clock for budget-accounting
// tests: time moves only when the test says so.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func newStepClock() *stepClock { return &stepClock{t: time.Unix(1000, 0)} }

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stepClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.Advance(d)
	return nil
}

func (c *stepClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestBudgetFastReject pins the propagated-budget floor on both query
// endpoints: a request whose X-Ajaxserve-Budget-Ms is already at or
// below the floor is rejected with 503 before any evaluation, a
// generous budget passes through, and a malformed header from an
// unknown client is ignored rather than fatal.
func TestBudgetFastReject(t *testing.T) {
	s, reg := newTestServer(t, Config{})

	send := func(path, budget string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", path, nil)
		if budget != "" {
			req.Header.Set(HeaderBudget, budget)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}

	// 1ms and 2ms are at or below the 2ms default floor.
	if rec := send("/search?q=morcheeba", "1"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("budget 1ms: status %d, want 503", rec.Code)
	}
	if rec := send("/shard/search?q=morcheeba", "2"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("shard budget 2ms: status %d, want 503", rec.Code)
	}
	if got := reg.Counter("query.serve.budget_rejected").Value(); got != 2 {
		t.Fatalf("budget_rejected = %d, want 2", got)
	}
	if reg.Counter("query.count").Value() != 0 {
		t.Fatal("budget-rejected request still evaluated the query")
	}

	// A generous budget and a malformed header both serve normally.
	if rec := send("/search?q=morcheeba", "5000"); rec.Code != http.StatusOK {
		t.Fatalf("budget 5000ms: status %d, want 200", rec.Code)
	}
	if rec := send("/search?q=morcheeba", "abc"); rec.Code != http.StatusOK {
		t.Fatalf("malformed budget: status %d, want 200", rec.Code)
	}
	if got := reg.Counter("query.serve.budget_rejected").Value(); got != 2 {
		t.Fatalf("budget_rejected after good requests = %d, want 2", got)
	}
}

// TestQueueWaitEatsBudget pins the post-queue recheck: a request
// admitted after its propagated budget drained away in the wait queue
// must be rejected, not evaluated — the acceptance criterion's "zero
// expired-budget executions" at the serve tier. Time is a stepClock, so
// the schedule is exact.
func TestQueueWaitEatsBudget(t *testing.T) {
	clk := newStepClock()
	s, reg := newTestServer(t, Config{
		MaxInflight:     1,
		AdmissionQueue:  2,
		AdmissionTarget: time.Minute, // keep CoDel out of this test's way
		Clock:           clk,
	})

	tok, err := s.Limiter().Acquire(context.Background())
	if err != nil {
		t.Fatal("could not saturate the limiter")
	}
	req := httptest.NewRequest("GET", "/search?q=morcheeba", nil)
	req.Header.Set(HeaderBudget, "100")
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		done <- rec
	}()
	waitForQueueDepth(t, s, 1)

	// The queue wait outlives the 100ms budget; the release then admits
	// the waiter, whose budget recheck must fail.
	clk.Advance(200 * time.Millisecond)
	tok.Release()
	rec := <-done
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 after budget drained in queue", rec.Code)
	}
	if got := reg.Counter("query.serve.budget_rejected").Value(); got != 1 {
		t.Fatalf("budget_rejected = %d, want 1", got)
	}
	if reg.Counter("query.count").Value() != 0 {
		t.Fatal("expired-budget request still evaluated the query")
	}
	if got := s.Limiter().Inflight(); got != 0 {
		t.Fatalf("leaked %d slots through the budget recheck", got)
	}
}

func waitForQueueDepth(t *testing.T, s *Server, depth int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Limiter().QueueDepth() < depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached depth %d", depth)
		}
		runtime.Gosched()
	}
}

// TestBrownoutLadder drives the degradation ladder directly: a
// pressured request prefers a full-quality cached answer, then drops
// snippets, then halves k at half-full queue — and an unpressured
// request never degrades.
func TestBrownoutLadder(t *testing.T) {
	s, reg := newTestServer(t, Config{MaxInflight: 2, AdmissionQueue: 4})
	ctx := obs.With(context.Background(), s.tel)

	// Unpressured baseline: full quality, fills the cache.
	res, _, _, k, degraded := s.search(ctx, "morcheeba singer", 10, nil)
	if degraded != "" || k != 10 || len(res) == 0 || res[0].Snippet == "" {
		t.Fatalf("baseline degraded=%q k=%d res=%+v", degraded, k, res)
	}

	// Pressure + cache hit: the lossless rung — full quality, no
	// degradation advertised.
	pressured := &admission.Token{Waited: true}
	res, _, cached, k, degraded := s.search(ctx, "morcheeba singer", 10, pressured)
	if degraded != "" || !cached || k != 10 || res[0].Snippet == "" {
		t.Fatalf("cached rung: degraded=%q cached=%v snippet=%q", degraded, cached, res[0].Snippet)
	}
	if reg.Counter("query.serve.brownout").Value() != 0 {
		t.Fatal("cached answer counted as brownout")
	}

	// Pressure + cold query: snippets are dropped.
	res, _, _, k, degraded = s.search(ctx, "concert", 10, pressured)
	if degraded != "snippets" || k != 10 {
		t.Fatalf("snippet rung: degraded=%q k=%d", degraded, k)
	}
	if len(res) == 0 || res[0].Snippet != "" {
		t.Fatalf("snippet rung still extracted snippets: %+v", res)
	}
	if reg.Counter("query.serve.brownout").Value() != 1 {
		t.Fatalf("brownout counter = %d", reg.Counter("query.serve.brownout").Value())
	}

	// Half-full queue: k is halved too.
	deep := &admission.Token{Waited: true, QueueDepth: 2}
	_, _, _, k, degraded = s.search(ctx, "footage", 10, deep)
	if degraded != "snippets,k" || k != 5 {
		t.Fatalf("k rung: degraded=%q k=%d", degraded, k)
	}

	// The degraded fill must not shadow the full-quality cache: the
	// same cold query unpressured evaluates fresh with snippets.
	res, _, cached, _, degraded = s.search(ctx, "concert", 10, nil)
	if degraded != "" || cached || len(res) == 0 || res[0].Snippet == "" {
		t.Fatalf("degraded fill shadowed full quality: degraded=%q cached=%v res=%+v", degraded, cached, res)
	}
}

// TestBrownoutDisabled pins the opt-outs: NoBrownout, and a zero-queue
// limiter (where waiting is impossible), both serve full quality even
// for tokens that report pressure.
func TestBrownoutDisabled(t *testing.T) {
	pressured := &admission.Token{Waited: true, QueueDepth: 2}
	for name, cfg := range map[string]Config{
		"NoBrownout": {MaxInflight: 2, AdmissionQueue: 4, NoBrownout: true},
		"ZeroQueue":  {MaxInflight: 2},
	} {
		s, _ := newTestServer(t, cfg)
		ctx := obs.With(context.Background(), s.tel)
		res, _, _, k, degraded := s.search(ctx, "morcheeba", 10, pressured)
		if degraded != "" || k != 10 || len(res) == 0 || res[0].Snippet == "" {
			t.Fatalf("%s: degraded=%q k=%d res=%+v", name, degraded, k, res)
		}
	}
}

// TestBrownoutOverHTTP exercises the whole path through the handler: a
// request that queued behind a saturated limiter is answered degraded
// with the X-Ajaxserve-Degraded header set.
func TestBrownoutOverHTTP(t *testing.T) {
	s, _ := newTestServer(t, Config{
		MaxInflight:     1,
		AdmissionQueue:  2,
		AdmissionTarget: time.Minute,
	})
	tok, err := s.Limiter().Acquire(context.Background())
	if err != nil {
		t.Fatal("could not saturate the limiter")
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/search?q=morcheeba", nil))
		done <- rec
	}()
	waitForQueueDepth(t, s, 1)
	tok.Release()
	rec := <-done
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(HeaderDegraded); got != "snippets" {
		t.Fatalf("degraded header = %q, want \"snippets\"", got)
	}
}
