package ajaxcrawl

// Integration tests: the full pipeline across package boundaries,
// including every persistence format — the flows the CLI tools drive.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/serve"
	"ajaxcrawl/internal/webapp"
)

// TestPipelinePersistenceRoundTrip drives the one pipeline the CLIs
// run: Precrawl → Save → LoadPrecrawl → BuildEngineFrom → SaveSnapshot
// into the same root (`ajaxcrawl -out`) → LoadEngineSnapshot
// (`ajaxserve`), plus an index rebuilt from the published models and the
// precrawl's PageRank (`ajaxsearch -models`): identical query results
// everywhere, scores included.
func TestPipelinePersistenceRoundTrip(t *testing.T) {
	site := webapp.New(webapp.DefaultConfig(25, 31))
	root := t.TempDir()
	ctx := context.Background()
	cfg := Config{
		Fetcher:   NewHandlerFetcher(site.Handler()),
		StartURL:  webapp.WatchURL(site.VideoID(0)),
		MaxPages:  25,
		ProcLines: 3,
		Crawl:     CrawlOptions{UseHotNode: true, MaxStates: 4},
		KeepURL:   IsWatchURL,
		WorkDir:   root,
	}
	pre, err := Precrawl(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.Save(root); err != nil {
		t.Fatal(err)
	}
	reloadedPre, err := core.LoadPrecrawl(root)
	if err != nil {
		t.Fatal(err)
	}
	live, err := BuildEngineFrom(ctx, cfg, reloadedPre)
	if err != nil {
		t.Fatal(err)
	}
	man, err := live.SaveSnapshot(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) < 2 {
		t.Fatalf("published %d shard files, want the merged load of at least 2", len(man.Shards))
	}
	loaded, err := LoadEngineSnapshot(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := model.LoadAll(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != live.Metrics.Pages {
		t.Fatalf("reloaded %d graphs, crawled %d", len(graphs), live.Metrics.Pages)
	}

	// All three engines must answer the workload identically, down to
	// the last bit of every score.
	engines := map[string]*Engine{
		"loaded":  loaded,
		"rebuilt": NewEngine(nil, graphs, reloadedPre.PageRank, 0),
	}
	for _, q := range webapp.Queries()[:20] {
		want := live.Search(context.Background(), q, 0)
		for name, eng := range engines {
			got := eng.Search(context.Background(), q, 0)
			if len(got) != len(want) {
				t.Fatalf("q=%q: %s returned %d results, live %d", q, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("q=%q: %s result %d = %v, want %v", q, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReconstructAllResults replays the event path of every search hit
// on a small corpus and checks each reconstructed state contains the
// query terms — the §5.4 contract, exhaustively.
func TestReconstructAllResults(t *testing.T) {
	_, eng := buildTestEngine(t, 30, 12)
	checked := 0
	for _, q := range []string{"wow", "funny", "kiss"} {
		for _, r := range eng.Search(context.Background(), q, 3) {
			html, err := eng.Reconstruct(context.Background(), r)
			if err != nil {
				t.Fatalf("reconstruct %v: %v", r, err)
			}
			lower := strings.ToLower(html)
			for _, term := range strings.Fields(q) {
				if !strings.Contains(lower, term) {
					t.Fatalf("reconstructed %v missing term %q", r, term)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no results to reconstruct in this sample")
	}
	t.Logf("reconstructed and verified %d result states", checked)
}

// TestEngineDeterminism pins the determinism guarantee: two engines
// built with identical configuration return identical rankings.
func TestEngineDeterminism(t *testing.T) {
	build := func() *Engine {
		site := NewSimSite(20, 55)
		eng, err := BuildEngine(context.Background(), Config{
			Fetcher:   NewHandlerFetcher(site.Handler()),
			StartURL:  site.VideoURL(0),
			MaxPages:  10,
			ProcLines: 3,
			Crawl:     CrawlOptions{UseHotNode: true, MaxStates: 4},
			KeepURL:   IsWatchURL,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	a, b := build(), build()
	if a.NumStates() != b.NumStates() {
		t.Fatalf("state counts differ: %d vs %d", a.NumStates(), b.NumStates())
	}
	for _, q := range []string{"wow", "dance", "music love"} {
		ra, rb := a.Search(context.Background(), q, 0), b.Search(context.Background(), q, 0)
		if len(ra) != len(rb) {
			t.Fatalf("q=%q: result counts differ", q)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("q=%q: result %d differs: %v vs %v", q, i, ra[i], rb[i])
			}
		}
	}
}

// TestServeGoldenEndToEnd drives the complete serving story: crawl the
// synthetic webapp, publish a snapshot, boot the HTTP serving layer
// in-process, and pin down the end-to-end guarantees — the second
// request is a cache hit with a byte-identical body and no re-evaluation,
// a hot swap of the same snapshot changes the generation but not one
// response byte, and an entire re-run (fresh crawl, fresh snapshot,
// fresh server) reproduces every body byte-for-byte.
func TestServeGoldenEndToEnd(t *testing.T) {
	queries := []string{"funny dance", "wow", "music love", "kiss"}

	run := func(t *testing.T) map[string]string {
		// Deterministic crawl: fixed site seed and crawl options.
		site := NewSimSite(18, 909)
		eng, err := BuildEngine(context.Background(), Config{
			Fetcher:   NewHandlerFetcher(site.Handler()),
			StartURL:  site.VideoURL(0),
			MaxPages:  10,
			ProcLines: 3,
			Crawl:     CrawlOptions{UseHotNode: true, MaxStates: 4},
			KeepURL:   IsWatchURL,
		})
		if err != nil {
			t.Fatal(err)
		}
		snapDir := t.TempDir()
		man, err := eng.SaveSnapshot(snapDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(man.Shards) == 0 || man.Models == "" {
			t.Fatalf("snapshot incomplete: %+v", man)
		}

		// A snapshot-loaded engine answers like the live one — the same
		// shards went to disk and came back.
		reloaded, err := LoadEngineSnapshot(snapDir, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			live, fromSnap := eng.Search(context.Background(), q, 10), reloaded.Search(context.Background(), q, 10)
			if len(live) != len(fromSnap) {
				t.Fatalf("q=%q: snapshot engine %d results, live %d", q, len(fromSnap), len(live))
			}
			for i := range live {
				if live[i] != fromSnap[i] {
					t.Fatalf("q=%q result %d: %v vs %v", q, i, fromSnap[i], live[i])
				}
			}
		}

		reg := obs.NewRegistry()
		srv, err := serve.New(serve.Config{SnapshotDir: snapDir}, obs.New(reg, nil))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		fetch := func(q string) (*http.Response, string) {
			resp, err := http.Get(ts.URL + "/search?q=" + strings.ReplaceAll(q, " ", "+") + "&k=10")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("q=%q: status %d: %s", q, resp.StatusCode, body)
			}
			return resp, string(body)
		}

		bodies := make(map[string]string, len(queries))
		for _, q := range queries {
			resp1, body1 := fetch(q)
			if resp1.Header.Get(serve.HeaderCache) != "miss" {
				t.Fatalf("q=%q: first request was %q", q, resp1.Header.Get(serve.HeaderCache))
			}
			evals := reg.Counter("query.count").Value()
			resp2, body2 := fetch(q)
			if resp2.Header.Get(serve.HeaderCache) != "hit" {
				t.Fatalf("q=%q: repeat was %q", q, resp2.Header.Get(serve.HeaderCache))
			}
			if reg.Counter("query.count").Value() != evals {
				t.Fatalf("q=%q: cache hit re-ran the posting-list merge", q)
			}
			if body2 != body1 {
				t.Fatalf("q=%q: cached body differs:\n%s\nvs\n%s", q, body2, body1)
			}
			bodies[q] = body1
		}

		// Hot-swap the same snapshot: generation moves 1 → 2, the cache
		// restarts cold, and not one response byte changes.
		if swapped, err := srv.Reload(context.Background(), true); err != nil || !swapped {
			t.Fatalf("forced reload = %v, %v", swapped, err)
		}
		for _, q := range queries {
			resp, body := fetch(q)
			if resp.Header.Get(serve.HeaderGeneration) != "2" {
				t.Fatalf("q=%q: post-swap generation %q", q, resp.Header.Get(serve.HeaderGeneration))
			}
			if resp.Header.Get(serve.HeaderCache) != "miss" {
				t.Fatalf("q=%q: post-swap request hit the invalidated cache", q)
			}
			if body != bodies[q] {
				t.Fatalf("q=%q: body changed across hot swap of identical snapshot:\n%s\nvs\n%s", q, body, bodies[q])
			}
		}
		return bodies
	}

	first := run(t)
	second := run(t)
	for q, body := range first {
		if second[q] != body {
			t.Fatalf("q=%q: end-to-end responses differ across identical runs:\n%s\nvs\n%s", q, second[q], body)
		}
	}
}

// TestLoadedEngineResavesAsOneFile: an engine loaded from a snapshot of
// several shard files holds one index, so it re-saves as one file, and
// that snapshot serves every /search and /shard/search body of the
// 100-query workload byte-identical to the crawl's.
func TestLoadedEngineResavesAsOneFile(t *testing.T) {
	site := NewSimSite(60, 909)
	eng, err := BuildEngine(context.Background(), Config{
		Fetcher:  NewHandlerFetcher(site.Handler()),
		StartURL: site.VideoURL(0),
		MaxPages: 45,
		Crawl:    CrawlOptions{UseHotNode: true},
		KeepURL:  IsWatchURL,
	})
	if err != nil {
		t.Fatal(err)
	}
	crawled, resaved := t.TempDir(), t.TempDir()
	man, err := eng.SaveSnapshot(crawled)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngineSnapshot(crawled, nil)
	if err != nil {
		t.Fatal(err)
	}
	man2, err := loaded.SaveSnapshot(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) < 2 || len(man2.Shards) != 1 || man2.TotalDocs != man.TotalDocs || man2.TotalStates != man.TotalStates {
		t.Fatalf("crawl saved %d files (%d docs, %d states), the loaded engine %d (%d, %d)",
			len(man.Shards), man.TotalDocs, man.TotalStates, len(man2.Shards), man2.TotalDocs, man2.TotalStates)
	}
	var handlers []http.Handler
	for _, dir := range []string{crawled, resaved} {
		srv, err := serve.New(serve.Config{SnapshotDir: dir}, nil)
		if err != nil {
			t.Fatal(err)
		}
		handlers = append(handlers, srv.Handler())
	}
	for _, q := range webapp.Queries() {
		for _, path := range []string{"/search?k=10&q=", "/shard/search?q="} {
			var bodies []string
			for _, h := range handlers {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path+url.QueryEscape(q), nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s%q: status %d", path, q, rec.Code)
				}
				bodies = append(bodies, rec.Body.String())
			}
			if bodies[0] != bodies[1] {
				t.Fatalf("%s%q: the re-saved snapshot answers\n%s\nthe crawl's\n%s", path, q, bodies[1], bodies[0])
			}
		}
	}
}
