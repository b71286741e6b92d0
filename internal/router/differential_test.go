package router

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/serve"
	"ajaxcrawl/internal/webapp"
)

// crawlCorpus crawls the synthetic webapp once and returns the state
// graphs plus a deterministic PageRank vector. The same corpus feeds
// both the single-snapshot reference and every sharded fleet, so any
// response difference is the router's fault.
func crawlCorpus(t *testing.T, videos int, seed int64) ([]*model.Graph, map[string]float64) {
	t.Helper()
	site := webapp.New(webapp.DefaultConfig(videos, seed))
	f := &fetch.HandlerFetcher{Handler: site.Handler()}
	urls := make([]string, videos)
	for i := range urls {
		urls[i] = webapp.WatchURL(site.VideoID(i))
	}
	c := core.New(f, core.Options{UseHotNode: true, MaxStates: 4})
	res := (&core.MPCrawler{NewCrawler: func() *core.Crawler { return c }, ProcLines: 1, URLs: urls}).Run(context.Background())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	graphs := res.Graphs
	if len(graphs) < 4 {
		t.Fatalf("corpus too small: %d graphs", len(graphs))
	}
	pr := make(map[string]float64, len(graphs))
	for i, g := range graphs {
		pr[g.URL] = 1.0 / float64(i+2)
	}
	return graphs, pr
}

// publishPartitioned splits graphs round-robin into n partitions and
// publishes each as its own snapshot directory (one index shard per
// partition), returning the directories.
func publishPartitioned(t *testing.T, graphs []*model.Graph, pr map[string]float64, n int) []string {
	t.Helper()
	parts := make([][]*model.Graph, n)
	for i, g := range graphs {
		parts[i%n] = append(parts[i%n], g)
	}
	dirs := make([]string, n)
	for i, part := range parts {
		if len(part) == 0 {
			t.Fatalf("partition %d/%d is empty (corpus of %d)", i, n, len(graphs))
		}
		dir := t.TempDir()
		ix := index.Build(part, pr, 0)
		if _, err := index.SaveSnapshot(dir, []*index.Index{ix}, part); err != nil {
			t.Fatal(err)
		}
		dirs[i] = dir
	}
	return dirs
}

func newServeServer(t *testing.T, dir string) *httptest.Server {
	t.Helper()
	s, err := serve.New(serve.Config{SnapshotDir: dir}, obs.New(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func httpGet(t *testing.T, url string) (*http.Response, []byte) {
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

func searchPath(q string, k int) string {
	return "/search?q=" + strings.ReplaceAll(q, " ", "+") + fmt.Sprintf("&k=%d", k)
}

// TestShardedMatchesSingleSnapshot is the differential golden test the
// whole tier stands on: the same crawled corpus is published once as a
// single snapshot and again partitioned across 1, 2 and 4 shard
// servers, and for the full 100-query workload the routed fleet must
// answer with the BYTE-identical /search body — same documents, same
// scores (the global-idf correction reproduces the single-index math
// bit-for-bit), same snippets, same order.
func TestShardedMatchesSingleSnapshot(t *testing.T) {
	const k = 10
	graphs, pr := crawlCorpus(t, 24, 101)
	queries := webapp.Queries()

	// Reference: every graph in one snapshot behind one ajaxserve.
	singleDir := publishPartitioned(t, graphs, pr, 1)[0]
	single := newServeServer(t, singleDir)
	want := make(map[string][]byte, len(queries))
	for _, q := range queries {
		resp, body := httpGet(t, single.URL+searchPath(q, k))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference q=%q: status %d: %s", q, resp.StatusCode, body)
		}
		want[q] = body
	}

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dirs := publishPartitioned(t, graphs, pr, shards)
			topo := make([][]Backend, shards)
			for i, dir := range dirs {
				ts := newServeServer(t, dir)
				topo[i] = []Backend{&HTTPBackend{BaseURL: ts.URL}}
			}
			rt, err := New(Config{Shards: topo})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			rs := NewServer(rt, ServerConfig{}, obs.New(reg, nil))
			rts := httptest.NewServer(rs.Handler())
			defer rts.Close()

			// Every query twice: the first fan-out is cold (shards ship
			// every match), the second carries the global df/N the first
			// one taught the router (shards ship their k best). Same bytes.
			for _, q := range slices.Concat(queries, queries) {
				resp, body := httpGet(t, rts.URL+searchPath(q, k))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("q=%q: status %d: %s", q, resp.StatusCode, body)
				}
				if string(body) != string(want[q]) {
					t.Fatalf("q=%q over %d shards diverged from the single snapshot:\n%s\nvs\n%s",
						q, shards, body, want[q])
				}
				if got := resp.Header.Get(HeaderShards); got != fmt.Sprintf("%d/%d", shards, shards) {
					t.Fatalf("q=%q: %s = %q, want %d/%d", q, HeaderShards, got, shards, shards)
				}
			}
			if got := reg.Counter("router.fanout.partial").Value(); got != 0 {
				t.Fatalf("healthy fleet recorded %d partial answers", got)
			}
			if hit, stale := reg.Counter("router.stats.hit").Value(), reg.Counter("router.stats.stale").Value(); hit < int64(len(queries)) || stale != 0 {
				t.Fatalf("router.stats.hit = %d, .stale = %d: want every repeated query hinted and none refuted", hit, stale)
			}
		})
	}
}

// TestShardedMatchesSingleInProcess repeats the differential check with
// in-process LocalBackends (no HTTP, no JSON round-trip), comparing the
// merged results structurally against query.Server.Search — scores must
// be bit-equal float64s, not approximately equal.
func TestShardedMatchesSingleInProcess(t *testing.T) {
	const k = 10
	graphs, pr := crawlCorpus(t, 16, 77)
	queries := webapp.Queries()[:40]

	loadQS := func(dir string) *query.Server {
		snap, _, err := serve.LoadSnapshot(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		return query.NewServer(snap, query.CacheOptions{})
	}
	singleQS := loadQS(publishPartitioned(t, graphs, pr, 1)[0])

	for _, shards := range []int{2, 4} {
		dirs := publishPartitioned(t, graphs, pr, shards)
		topo := make([][]Backend, shards)
		for i, dir := range dirs {
			topo[i] = []Backend{LocalBackend{QS: loadQS(dir)}}
		}
		rt, err := New(Config{Shards: topo})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		ctx := obs.With(context.Background(), obs.New(reg, nil))
		for _, q := range slices.Concat(queries, queries) { // cold, then hinted
			wantRes, _, _ := singleQS.Search(context.Background(), q, k)
			m := mustSearch(t, rt, ctx, q, k)
			if len(m.Results) != len(wantRes) {
				t.Fatalf("q=%q shards=%d: %d results, want %d", q, shards, len(m.Results), len(wantRes))
			}
			for i := range wantRes {
				g, w := m.Results[i], wantRes[i]
				if g.URL != w.URL || g.State != w.State || g.Score != w.Score || g.Snippet != w.Snippet {
					t.Fatalf("q=%q shards=%d rank %d:\n got %+v\nwant %+v", q, shards, i, g, w)
				}
			}
		}
		if hit := reg.Counter("router.stats.hit").Value(); hit < int64(len(queries)) {
			t.Fatalf("shards=%d: router.stats.hit = %d, want every repeated query hinted", shards, hit)
		}
	}
}

// TestPartialResultOneShardDown is the degraded-fleet acceptance test:
// a 4-shard fleet with one shard entirely down still answers 200, says
// so in X-Ajaxserve-Shards, and counts the partial answer.
func TestPartialResultOneShardDown(t *testing.T) {
	graphs, pr := crawlCorpus(t, 16, 55)
	dirs := publishPartitioned(t, graphs, pr, 4)
	topo := make([][]Backend, 4)
	var downTS *httptest.Server
	for i, dir := range dirs {
		ts := newServeServer(t, dir)
		if i == 2 {
			downTS = ts
		}
		topo[i] = []Backend{&HTTPBackend{BaseURL: ts.URL}}
	}
	downTS.Close() // shard 2's only replica is gone before any query

	rt, err := New(Config{Shards: topo, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rs := NewServer(rt, ServerConfig{}, obs.New(reg, nil))
	rts := httptest.NewServer(rs.Handler())
	defer rts.Close()

	resp, body := httpGet(t, rts.URL+searchPath("music", 10))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded fleet: status %d, want 200: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderShards); got != "3/4" {
		t.Fatalf("%s = %q, want 3/4", HeaderShards, got)
	}
	if !strings.Contains(string(body), `"results"`) {
		t.Fatalf("degraded body lost the result payload: %s", body)
	}
	if got := reg.Counter("router.fanout.partial").Value(); got != 1 {
		t.Fatalf("router.fanout.partial = %d, want 1", got)
	}
	if got := reg.Counter("router.fanout.shard_errors").Value(); got == 0 {
		t.Fatal("router.fanout.shard_errors never incremented")
	}

	// The same fleet with partial results disabled refuses instead.
	rtStrict, err := New(Config{Shards: topo, Partial: false})
	if err != nil {
		t.Fatal(err)
	}
	rsStrict := NewServer(rtStrict, ServerConfig{}, obs.New(nil, nil))
	rtsStrict := httptest.NewServer(rsStrict.Handler())
	defer rtsStrict.Close()
	resp, _ = httpGet(t, rtsStrict.URL+searchPath("music", 10))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("strict fleet: status %d, want 502", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderShards); got != "3/4" {
		t.Fatalf("strict %s = %q, want 3/4", HeaderShards, got)
	}
}
