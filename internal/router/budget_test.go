package router

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/serve"
)

// TestHTTPBackendForwardsBudget: a shard call carrying a clock budget
// forwards the remaining milliseconds in X-Ajaxserve-Budget-Ms, and a
// call whose budget is under a millisecond fails fast without touching
// the network.
func TestHTTPBackendForwardsBudget(t *testing.T) {
	clock := newTestClock()
	var gotBudget string
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		gotBudget = r.Header.Get(serve.HeaderBudget)
		w.Write([]byte(`{"terms":["video"],"df":[0],"total_states":0,"gen":1,"docs":0,"states":0,"candidates":[]}`))
	}))
	defer ts.Close()
	b := &HTTPBackend{BaseURL: ts.URL}

	ctx := WithBudget(context.Background(), clock.Now().Add(500*time.Millisecond), clock)
	if _, err := b.ShardSearch(ctx, "video", query.Hint{}); err != nil {
		t.Fatal(err)
	}
	if gotBudget != "500" {
		t.Fatalf("forwarded budget = %q, want \"500\"", gotBudget)
	}

	// Sub-millisecond remainder: reject before the request is built.
	ctx = WithBudget(context.Background(), clock.Now().Add(500*time.Microsecond), clock)
	if _, err := b.ShardSearch(ctx, "video", query.Hint{}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if hits != 1 {
		t.Fatalf("exhausted-budget call still hit the network (%d hits)", hits)
	}

	// No budget on the context: no header.
	if _, err := b.ShardSearch(context.Background(), "video", query.Hint{}); err != nil {
		t.Fatal(err)
	}
	if gotBudget != "" {
		t.Fatalf("budget header without a budget = %q", gotBudget)
	}
}

// TestRouterHTTPPropagatesBudget: the router's HTTP layer seeds the
// fan-out budget from min(QueryTimeout, incoming budget header) and the
// serve tier receives the remainder. An incoming budget at the floor is
// rejected at the router's front door.
func TestRouterHTTPPropagatesBudget(t *testing.T) {
	var gotBudget string
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotBudget = r.Header.Get(serve.HeaderBudget)
		w.Write([]byte(`{"terms":["video"],"df":[1],"total_states":5,"gen":1,"docs":1,"states":5,` +
			`"candidates":[{"url":"http://a","state":0,"base":1,"tfs":[1],"snippet":"[a]"}]}`))
	}))
	defer shard.Close()

	rt, err := New(Config{Shards: [][]Backend{{&HTTPBackend{BaseURL: shard.URL}}}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rs := NewServer(rt, ServerConfig{QueryTimeout: 2 * time.Second}, obs.New(reg, nil))
	rts := httptest.NewServer(rs.Handler())
	defer rts.Close()

	// The caller's 800ms budget is tighter than QueryTimeout and wins.
	req, _ := http.NewRequest("GET", rts.URL+"/search?q=video", nil)
	req.Header.Set(serve.HeaderBudget, "800")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if gotBudget == "" {
		t.Fatal("shard call carried no budget header")
	}
	if fwd, err := strconv.Atoi(gotBudget); err != nil || fwd <= 0 || fwd > 800 {
		t.Fatalf("forwarded budget = %q, want in (0, 800]", gotBudget)
	}

	// An incoming budget at the floor is shed at the front door.
	req, _ = http.NewRequest("GET", rts.URL+"/search?q=video", nil)
	req.Header.Set(serve.HeaderBudget, "2")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("floor budget: status %d, want 503", resp.StatusCode)
	}
	if got := reg.Counter("router.budget_rejected").Value(); got != 1 {
		t.Fatalf("router.budget_rejected = %d, want 1", got)
	}
}
