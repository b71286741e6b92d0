package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/webapp"
)

func testHash(b byte) dom.Hash {
	var h dom.Hash
	h[0] = b
	return h
}

// writeSnapshot publishes a small two-doc snapshot (with models, so
// snippets work) into dir and returns its manifest.
func writeSnapshot(t testing.TB, dir string) *index.Manifest {
	t.Helper()
	g1 := model.NewGraph("site/watch?v=a")
	g1.AddState(testHash(1), "morcheeba enjoy the ride official video", 0)
	g1.AddState(testHash(2), "the new singer is great morcheeba fans rejoice", 1)
	g2 := model.NewGraph("site/watch?v=b")
	g2.AddState(testHash(3), "morcheeba concert footage", 0)
	graphs := []*model.Graph{g1, g2}
	ix := index.Build(graphs, map[string]float64{"site/watch?v=a": 0.6, "site/watch?v=b": 0.4}, 0)
	man, err := index.SaveSnapshot(dir, []*index.Index{ix}, graphs)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

func newTestServer(t testing.TB, cfg Config) (*Server, *obs.Registry) {
	t.Helper()
	if cfg.SnapshotDir == "" {
		cfg.SnapshotDir = t.TempDir()
		writeSnapshot(t, cfg.SnapshotDir)
	}
	reg := obs.NewRegistry()
	s, err := New(cfg, obs.New(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	return s, reg
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestSearchEndpoint(t *testing.T) {
	s, reg := newTestServer(t, Config{MaxK: 5})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Missing q and malformed k are client errors.
	for _, bad := range []string{"/search", "/search?q=", "/search?q=x&k=abc", "/search?q=x&k=0", "/search?q=x&k=-3"} {
		resp, _ := get(t, ts.URL+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}

	resp, body := get(t, ts.URL+"/search?q=morcheeba+singer")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderCache); got != "miss" {
		t.Fatalf("first query cache header = %q", got)
	}
	if got := resp.Header.Get(HeaderGeneration); got != "1" {
		t.Fatalf("generation header = %q", got)
	}
	if got := resp.Header.Get(HeaderDocs); got != "2" {
		t.Fatalf("docs header = %q", got)
	}
	var sr struct {
		Query   string `json:"query"`
		K       int    `json:"k"`
		Count   int    `json:"count"`
		Results []struct {
			URL     string  `json:"url"`
			State   int     `json:"state"`
			Score   float64 `json:"score"`
			Snippet string  `json:"snippet"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if sr.Query != "morcheeba singer" {
		t.Fatalf("normalized query = %q", sr.Query)
	}
	if sr.Count != 1 || len(sr.Results) != 1 {
		t.Fatalf("count = %d, results = %d; body %s", sr.Count, len(sr.Results), body)
	}
	if r := sr.Results[0]; r.URL != "site/watch?v=a" || r.State != 1 || r.Snippet == "" {
		t.Fatalf("top result %+v", r)
	}

	// The repeat is a cache hit with a byte-identical body.
	resp2, body2 := get(t, ts.URL+"/search?q=morcheeba+singer")
	if got := resp2.Header.Get(HeaderCache); got != "hit" {
		t.Fatalf("repeat cache header = %q", got)
	}
	if string(body2) != string(body) {
		t.Fatalf("cached body differs:\n%s\nvs\n%s", body2, body)
	}
	if reg.Counter("query.cache.hits").Value() != 1 {
		t.Fatalf("cache hits = %d", reg.Counter("query.cache.hits").Value())
	}

	// k above MaxK is clamped, not rejected.
	_, bodyK := get(t, ts.URL+"/search?q=morcheeba&k=9999")
	if err := json.Unmarshal(bodyK, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.K != 5 {
		t.Fatalf("k clamped to %d, want 5", sr.K)
	}

	// The obs middleware saw every request.
	if reg.Counter("http.requests").Value() == 0 {
		t.Fatal("http.requests never incremented")
	}
}

// TestHealthz: /healthz reports the serving manifest and its shard-file
// count, here two files that the server holds as one index.
func TestHealthz(t *testing.T) {
	dir := t.TempDir()
	writeSnapshot(t, dir)
	_, shards, err := index.LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	g3 := model.NewGraph("site/watch?v=c")
	g3.AddState(testHash(4), "morcheeba live", 0)
	man, err := index.SaveSnapshot(dir, []*index.Index{shards[0], index.Build([]*model.Graph{g3}, nil, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{SnapshotDir: dir})
	if n := len(s.QueryServer().Live().Broker.Shards); n != 1 {
		t.Fatalf("the server holds %d indexes, want 1", n)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h struct {
		Status     string `json:"status"`
		ManifestID string `json:"manifest_id"`
		Generation int64  `json:"generation"`
		Docs       int    `json:"docs"`
		Shards     int    `json:"shards"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.ManifestID != man.ID || h.Generation != 1 || h.Docs != 3 || h.Shards != 2 {
		t.Fatalf("health = %+v (manifest %s)", h, man.ID)
	}
}

func TestLoadShedding(t *testing.T) {
	s, reg := newTestServer(t, Config{MaxInflight: 2})
	// Saturate the admission gate, then request: the server must shed
	// with 429 + Retry-After before touching the query engine.
	tok1, err1 := s.Limiter().Acquire(context.Background())
	tok2, err2 := s.Limiter().Acquire(context.Background())
	if err1 != nil || err2 != nil {
		t.Fatal("could not saturate the limiter")
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/search?q=morcheeba", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	// The hint must be a positive integer (a limiter-derived drain
	// estimate), not an empty or decorative header.
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", rec.Header().Get("Retry-After"))
	}
	if reg.Counter("query.serve.shed").Value() != 1 {
		t.Fatalf("shed counter = %d", reg.Counter("query.serve.shed").Value())
	}
	if reg.Counter("query.count").Value() != 0 {
		t.Fatal("shed request still evaluated the query")
	}

	// Draining one slot un-sheds.
	tok1.Cancel()
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/search?q=morcheeba", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status after drain = %d", rec.Code)
	}
	tok2.Cancel()
}

func TestDeadlineBeforeEvaluation(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client hung up before the query ran
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/search?q=morcheeba", nil).WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if reg.Counter("query.serve.deadline").Value() != 1 {
		t.Fatalf("deadline counter = %d", reg.Counter("query.serve.deadline").Value())
	}
}

func TestReloadAndWatch(t *testing.T) {
	dir := t.TempDir()
	writeSnapshot(t, dir)
	s, reg := newTestServer(t, Config{SnapshotDir: dir})
	ctx := context.Background()

	// Unchanged manifest: no swap.
	if swapped, err := s.Reload(ctx, false); err != nil || swapped {
		t.Fatalf("Reload on same manifest = %v, %v", swapped, err)
	}

	// Forced reload swaps generations but answers identically: the
	// snapshot content did not change.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, before := get(t, ts.URL+"/search?q=morcheeba")
	if swapped, err := s.Reload(ctx, true); err != nil || !swapped {
		t.Fatalf("forced Reload = %v, %v", swapped, err)
	}
	resp, after := get(t, ts.URL+"/search?q=morcheeba")
	if resp.Header.Get(HeaderGeneration) != "2" {
		t.Fatalf("post-swap generation header = %q", resp.Header.Get(HeaderGeneration))
	}
	if resp.Header.Get(HeaderCache) != "miss" {
		t.Fatal("swap did not invalidate the cache")
	}
	if string(after) != string(before) {
		t.Fatalf("same snapshot answered differently after swap:\n%s\nvs\n%s", after, before)
	}

	// A re-published snapshot (new manifest ID) is picked up without
	// force — the -watch path.
	oldID := s.Manifest().ID
	man := writeSnapshot(t, dir)
	if man.ID == oldID {
		t.Fatal("re-save kept the manifest ID")
	}
	if swapped, err := s.Reload(ctx, false); err != nil || !swapped {
		t.Fatalf("Reload after republish = %v, %v", swapped, err)
	}
	if s.Manifest().ID != man.ID {
		t.Fatalf("serving manifest %s, want %s", s.Manifest().ID, man.ID)
	}
	if reg.Gauge("query.serve.snapshot.gen").Value() != 3 {
		t.Fatalf("gen gauge = %d", reg.Gauge("query.serve.snapshot.gen").Value())
	}
}

func TestReloadErrorKeepsServing(t *testing.T) {
	dir := t.TempDir()
	writeSnapshot(t, dir)
	s, reg := newTestServer(t, Config{SnapshotDir: dir})

	// Corrupt the manifest; Reload must fail, count the error, and keep
	// the old snapshot serving.
	if err := os.WriteFile(filepath.Join(dir, index.ManifestFileName), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if swapped, err := s.Reload(context.Background(), true); err == nil || swapped {
		t.Fatalf("Reload on corrupt manifest = %v, %v", swapped, err)
	}
	if reg.Counter("query.serve.reload.errors").Value() != 1 {
		t.Fatalf("reload errors = %d", reg.Counter("query.serve.reload.errors").Value())
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/search?q=morcheeba", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("serving broke after failed reload: %d", rec.Code)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Fatal("New without SnapshotDir must error")
	}
	if _, err := New(Config{SnapshotDir: t.TempDir()}, nil); err == nil {
		t.Fatal("New on an empty directory must error")
	}
}

// TestServeWithoutModelsFile: the serving tier never opens the models.
// The same crawl published three ways — with ajaxmodels.gob, with it
// deleted after publishing, and index-only — loads in each, and every
// /search and /shard/search body, snippets included, is byte-equal.
func TestServeWithoutModelsFile(t *testing.T) {
	site := webapp.New(webapp.DefaultConfig(30, 2008))
	urls := make([]string, 30)
	for i := range urls {
		urls[i] = webapp.WatchURL(site.VideoID(i))
	}
	c := core.New(&fetch.HandlerFetcher{Handler: site.Handler()}, core.Options{UseHotNode: true})
	graphs, _, err := c.CrawlAll(context.Background(), urls)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(graphs, nil, 0)
	withModels, deleted, indexOnly := t.TempDir(), t.TempDir(), t.TempDir()
	for dir, gs := range map[string][]*model.Graph{withModels: graphs, deleted: graphs, indexOnly: nil} {
		if _, err := index.SaveSnapshot(dir, []*index.Index{ix}, gs); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(deleted, model.ModelFileName)); err != nil {
		t.Fatal(err)
	}
	var handlers []http.Handler
	for _, dir := range []string{withModels, deleted, indexOnly} {
		s, _ := newTestServer(t, Config{SnapshotDir: dir})
		handlers = append(handlers, s.Handler())
	}
	snippets := 0
	for _, q := range webapp.Queries() {
		esc := url.QueryEscape(q)
		for _, path := range []string{"/search?q=" + esc + "&k=10", "/shard/search?q=" + esc} {
			var want []byte
			for i, h := range handlers {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("server %d %s: status %d: %s", i, path, rec.Code, rec.Body)
				}
				if i == 0 {
					want = rec.Body.Bytes()
				} else if !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("server %d %s:\n got %s\nwant %s", i, path, rec.Body, want)
				}
			}
			snippets += bytes.Count(want, []byte(`"snippet":"`))
		}
	}
	if snippets == 0 {
		t.Fatal("no body carries a snippet")
	}
}
