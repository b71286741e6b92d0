package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

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
