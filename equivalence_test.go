package ajaxcrawl

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/router"
	"ajaxcrawl/internal/serve"
	"ajaxcrawl/internal/webapp"
)

// The equivalence matrix's columns. Every combination of the crawl
// columns is one crawl cell; every cell's snapshot is then served by
// every fleet, each asked every query twice — cold, then with the global
// df/N the first pass taught the router. A new axis is one more column
// here.
var (
	eqLines  = []int{1, 4}
	eqFaults = []float64{0, 0.3}
	eqResume = []bool{false, true}
	eqDedup  = []float64{0, 0.9}
	// eqFleets serve every shard count in process and one over loopback
	// HTTP, where the /search bodies and the X-Ajaxserve-Shards header are
	// compared too.
	eqFleets = []struct {
		shards    int
		transport string
	}{{1, "local"}, {2, "local"}, {4, "local"}, {2, "http"}}
)

const (
	eqVideos    = 12
	eqMaxStates = 5
	// eqKillAfter is how many pages a resumed cell's first run completes
	// before it is killed.
	eqKillAfter = 4
	eqK         = 10
)

// eqCell is one crawl cell. seed is the cell's fault seed, distinct per
// cell.
type eqCell struct {
	lines  int
	faults float64
	resume bool
	dedup  float64
	seed   int64
}

func (c eqCell) String() string {
	s := fmt.Sprintf("lines=%d faults=%.1f", c.lines, c.faults)
	if c.resume {
		s += fmt.Sprintf(" killed@%d,resumed:lines=%d", eqKillAfter, eqResumeLines(c.lines))
	} else {
		s += " uninterrupted"
	}
	if c.dedup > 0 {
		return s + fmt.Sprintf(" lsh@%.1f", c.dedup)
	}
	return s + " exact"
}

// eqResumeLines is the line count a resumed cell finishes on: the other
// one.
func eqResumeLines(lines int) int { return eqLines[0] + eqLines[1] - lines }

// TestEquivalenceMatrix is the crawl→serve contract of the thesis's
// chapter 6 in one place: however the work is split — process lines,
// injected faults, a kill and a resume, shards, router hints — one site
// yields one application model per dedup policy and one ranked answer
// (URL, state, score bits, snippet) per query, equal to the single
// snapshot's. Each cell's further conditions are checked where it runs;
// every failure names its cell, and -v prints one line per cell with its
// hash.
func TestEquivalenceMatrix(t *testing.T) {
	cfg := webapp.DefaultConfig(eqVideos, 2008)
	cfg.NoisyDecor = true
	site := webapp.New(cfg)
	models := map[float64]string{}
	answers := map[float64]string{}
	var seed int64
	for _, dedup := range eqDedup {
		for _, lines := range eqLines {
			for _, faults := range eqFaults {
				for _, resume := range eqResume {
					seed++
					c := eqCell{lines: lines, faults: faults, resume: resume, dedup: dedup, seed: seed}
					pre, res := eqCrawl(t, site, c)
					key := eqModelKey(t, res)
					t.Logf("%-50s model %s", c, key)
					if want, ok := models[dedup]; !ok {
						models[dedup] = key
					} else if key != want {
						t.Errorf("%s: model %s, want %s (the column's first cell)", c, key, want)
					}
					ref := eqServe(t, c, pre, res.Graphs)
					if want, ok := answers[dedup]; !ok {
						answers[dedup] = ref
					} else if ref != want {
						t.Errorf("%s: single-snapshot answers %s, want %s (the column's first cell)", c, ref, want)
					}
				}
			}
		}
	}
	if models[eqDedup[0]] == models[eqDedup[1]] {
		t.Errorf("exact and lsh@%.1f crawls built the same model: near-dup merging never fired", eqDedup[1])
	}
}

// eqCrawl runs one crawl cell the way cmd/ajaxcrawl does — precrawl
// (through the cell's faults and retry policy), precrawl handoff,
// MPCrawler, the checkpoint journal when resumed — and
// checks the cell's crawl conditions: every page crawled, PerPage rows
// in URL order; under faults, retries fired and no page failed; when
// resumed, every journaled page replayed and none fetched again.
func eqCrawl(t *testing.T, site *webapp.Site, c eqCell) (*core.PrecrawlResult, *core.MPResult) {
	t.Helper()
	ctx := context.Background()
	var net fetch.Fetcher = &fetch.HandlerFetcher{Handler: site.Handler()}
	clock := &fetch.VirtualClock{}
	opts := core.Options{UseHotNode: true, MaxStates: eqMaxStates, NearDupThreshold: c.dedup, Clock: clock}
	if c.faults > 0 {
		// One fault in six truncates the body, the rest reset the
		// connection; at most three in a row per URL, so the five-attempt
		// budget recovers every fetch, the precrawl's included.
		net = fetch.NewFaultFetcher(net, fetch.FaultConfig{
			ErrorRate: c.faults * 5 / 6, TruncateRate: c.faults / 6, MaxConsecutive: 3, Seed: c.seed,
		}, clock)
		opts.RetryPolicy = &fetch.RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond}
	}
	pre, err := (&core.Precrawler{
		Fetcher: opts.Retrying(net), StartURL: webapp.WatchURL(site.VideoID(0)),
		MaxPages: eqVideos, KeepURL: IsWatchURL, Lines: c.lines,
	}).Run(ctx)
	if err != nil {
		t.Fatalf("%s: precrawl: %v", c, err)
	}
	if len(pre.URLs) <= eqKillAfter {
		t.Fatalf("%s: precrawl found %d pages, too few to kill a crawl after %d", c, len(pre.URLs), eqKillAfter)
	}
	var mu sync.Mutex
	fetches := map[string]int{}
	crawl := func(ctx context.Context, lines int, cp *core.Checkpoint, onPage func(core.PageMetrics)) *core.MPResult {
		handoff := pre.Handoff(net)
		counting := fetch.Func(func(ctx context.Context, u string) (*fetch.Response, error) {
			mu.Lock()
			fetches[u]++
			mu.Unlock()
			return handoff.Fetch(ctx, u)
		})
		o := opts
		o.OnPage, o.Checkpoint = onPage, cp
		return (&core.MPCrawler{
			NewCrawler: func() *core.Crawler { return core.New(counting, o) },
			ProcLines:  lines,
			URLs:       pre.URLs,
		}).Run(ctx)
	}

	var res *core.MPResult
	if !c.resume {
		res = crawl(ctx, c.lines, nil, nil)
	} else {
		dir := t.TempDir()
		cp, err := core.OpenCheckpoint(ctx, dir, false)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		killCtx, kill := context.WithCancel(ctx)
		defer kill()
		var done atomic.Int32
		first := crawl(killCtx, c.lines, cp, func(core.PageMetrics) {
			if done.Add(1) == eqKillAfter {
				kill()
			}
		})
		if err := cp.Close(); err != nil {
			t.Fatalf("%s: close journal: %v", c, err)
		}
		if !errors.Is(first.Err, context.Canceled) || len(first.Graphs) >= len(pre.URLs) {
			t.Fatalf("%s: killed run crawled %d of %d pages (err %v): the kill never bit", c, len(first.Graphs), len(pre.URLs), first.Err)
		}
		if cp, err = core.OpenCheckpoint(ctx, dir, true); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		journaled := cp.CompletedPages()
		if journaled != len(first.Graphs) {
			t.Errorf("%s: journal holds %d pages, want %d", c, journaled, len(first.Graphs))
		}
		mu.Lock()
		clear(fetches)
		mu.Unlock()
		res = crawl(ctx, eqResumeLines(c.lines), cp, nil)
		if err := cp.Close(); err != nil {
			t.Fatalf("%s: close journal: %v", c, err)
		}
		if res.Metrics.PagesResumed != journaled {
			t.Errorf("%s: PagesResumed = %d, want every journaled page (%d)", c, res.Metrics.PagesResumed, journaled)
		}
		for _, g := range first.Graphs {
			if n := fetches[g.URL]; n > 0 {
				t.Errorf("%s: journaled page %s fetched %d times on resume", c, g.URL, n)
			}
		}
	}

	m := res.Metrics
	if res.Err != nil || len(res.Graphs) != len(pre.URLs) || m.Pages != len(pre.URLs) || len(m.PerPage) != len(pre.URLs) {
		t.Fatalf("%s: crawled %d graphs, %d pages, %d PerPage rows of %d URLs: %v",
			c, len(res.Graphs), m.Pages, len(m.PerPage), len(pre.URLs), res.Err)
	}
	for i, pm := range m.PerPage {
		if pm.URL != pre.URLs[i] {
			t.Errorf("%s: PerPage[%d] = %s, want %s (URL order)", c, i, pm.URL, pre.URLs[i])
			break
		}
	}
	if c.faults > 0 && (m.Retries == 0 || m.PagesRecovered == 0 || m.PagesFailed != 0) {
		t.Errorf("%s: %d retries recovered %d pages, %d failed: want faults fired, every page recovered",
			c, m.Retries, m.PagesRecovered, m.PagesFailed)
	}
	return pre, res
}

// eqModelKey is the cell's model hash — every graph's encoding, in URL
// order — plus the aggregate counts a resumed run folds in from its
// journal.
func eqModelKey(t *testing.T, res *core.MPResult) string {
	h := sha256.New()
	for _, g := range res.Graphs {
		b, err := model.EncodeGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	m := res.Metrics
	return fmt.Sprintf("%x states=%d transitions=%d events=%d", h.Sum(nil)[:8], m.States, m.Transitions, m.EventsTriggered)
}

// eqServe publishes the cell's crawl in the shard layout BuildEngineFrom
// publishes (`ajaxcrawl -out`) and serves it on one query.Server, the reference. It then serves the
// crawl again over every shard count and transport and checks every
// serve cell: each pass's answer hash equals the reference's, every
// shard answered every query, and the hinted pass was served from
// verified hints. Over HTTP the /search bodies must equal the reference
// server's byte for byte. It returns the reference answer hash.
func eqServe(t *testing.T, c eqCell, pre *core.PrecrawlResult, graphs []*model.Graph) string {
	t.Helper()
	ctx := context.Background()
	queries := webapp.Queries()
	dir := t.TempDir()
	sharder := index.NewSharder(pre.URLs, pre.PageRank, dir)
	for _, g := range graphs {
		sharder.Add(ctx, g.URL, g)
	}
	if err := sharder.Finish(ctx); err != nil {
		t.Fatalf("%s: index: %v", c, err)
	}
	if _, err := sharder.Publish(dir, graphs); err != nil {
		t.Fatalf("%s: publish: %v", c, err)
	}
	refSrv, err := serve.New(serve.Config{SnapshotDir: dir}, nil)
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	ref, _ := eqAnswers(queries, func(q string) ([]query.ResultWithSnippet, error) {
		rs, _, _ := refSrv.QueryServer().Search(ctx, q, eqK)
		return rs, nil
	})
	refBodies := make(map[string]string, len(queries))
	for _, q := range queries {
		rec := httptest.NewRecorder()
		refSrv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, eqSearchPath(q), nil))
		refBodies[q] = rec.Body.String()
	}

	parts := map[int][]string{}
	for _, f := range eqFleets {
		n := f.shards
		if parts[n] == nil {
			parts[n] = eqPartition(t, c, graphs, pre.PageRank, n)
		}
		reg := obs.NewRegistry()
		ask := eqFleet(t, parts[n], f.transport, reg, refBodies)
		fleet := fmt.Sprintf("%s | shards=%d %s", c, n, f.transport)
		for _, pass := range []string{"cold", "hinted"} {
			got, err := eqAnswers(queries, ask)
			t.Logf("%-76s answers %s", fleet+" "+pass, got)
			if err != nil {
				t.Errorf("%s %s: %v", fleet, pass, err)
			} else if got != ref {
				t.Errorf("%s %s: answers %s, want the single snapshot's %s", fleet, pass, got, ref)
			}
		}
		if partial := reg.Counter("router.fanout.partial").Value(); partial != 0 {
			t.Errorf("%s: %d partial answers from a healthy fleet", fleet, partial)
		}
		if hit, stale := reg.Counter("router.stats.hit").Value(), reg.Counter("router.stats.stale").Value(); hit < int64(len(queries)) || stale != 0 {
			t.Errorf("%s hinted: router.stats.hit = %d, .stale = %d: want every repeated query hinted, none refuted",
				fleet, hit, stale)
		}
	}
	return ref
}

// eqFleet starts a router over one shard server per snapshot in dirs —
// in process or on loopback HTTP — and returns its query function. An
// answer from fewer than every shard is an error; over HTTP so is a
// body that differs from refBodies.
func eqFleet(t *testing.T, dirs []string, transport string, reg *obs.Registry, refBodies map[string]string) func(q string) ([]query.ResultWithSnippet, error) {
	t.Helper()
	topo := make([][]router.Backend, len(dirs))
	for i, dir := range dirs {
		s, err := serve.New(serve.Config{SnapshotDir: dir}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if transport == "local" {
			topo[i] = []router.Backend{router.LocalBackend{QS: s.QueryServer()}}
			continue
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		topo[i] = []router.Backend{&router.HTTPBackend{BaseURL: ts.URL}}
	}
	rt, err := router.New(router.Config{Shards: topo})
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.New(reg, nil)
	if transport == "local" {
		ctx := obs.With(context.Background(), tel)
		return func(q string) ([]query.ResultWithSnippet, error) {
			m, err := rt.Search(ctx, q, eqK)
			if err != nil {
				return nil, err
			}
			if m.ShardsOK != len(dirs) || m.ShardsTotal != len(dirs) {
				return nil, fmt.Errorf("%d/%d shards answered", m.ShardsOK, m.ShardsTotal)
			}
			return m.Results, nil
		}
	}
	front := httptest.NewServer(router.NewServer(rt, router.ServerConfig{}, tel).Handler())
	t.Cleanup(front.Close)
	return func(q string) ([]query.ResultWithSnippet, error) {
		resp, err := http.Get(front.URL + eqSearchPath(q))
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if want := fmt.Sprintf("%d/%d", len(dirs), len(dirs)); resp.StatusCode != http.StatusOK || resp.Header.Get(router.HeaderShards) != want {
			return nil, fmt.Errorf("status %d, %s %q, want 200 and %s", resp.StatusCode, router.HeaderShards, resp.Header.Get(router.HeaderShards), want)
		}
		if string(body) != refBodies[q] {
			return nil, fmt.Errorf("body %s, want the single snapshot's %s", body, refBodies[q])
		}
		var out struct{ Results []query.ResultWithSnippet }
		return out.Results, json.Unmarshal(body, &out)
	}
}

// eqAnswers hashes one pass of ask over queries: each result's URL,
// state, score bits and snippet in rank order. It also returns the first
// query ask failed; that query is hashed as its error.
func eqAnswers(queries []string, ask func(q string) ([]query.ResultWithSnippet, error)) (string, error) {
	h := sha256.New()
	var first error
	for _, q := range queries {
		rs, err := ask(q)
		if err != nil {
			fmt.Fprintf(h, "%q error %v\n", q, err)
			if first == nil {
				first = fmt.Errorf("q=%q: %w", q, err)
			}
			continue
		}
		fmt.Fprintf(h, "%q %d\n", q, len(rs))
		for _, r := range rs {
			fmt.Fprintf(h, "%s %d %x %q\n", r.URL, r.State, math.Float64bits(r.Score), r.Snippet)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8]), first
}

// eqPartition publishes graphs round-robin as n one-shard snapshots.
func eqPartition(t *testing.T, c eqCell, graphs []*model.Graph, pageRank map[string]float64, n int) []string {
	t.Helper()
	parts := make([][]*model.Graph, n)
	for i, g := range graphs {
		parts[i%n] = append(parts[i%n], g)
	}
	dirs := make([]string, n)
	for i, part := range parts {
		dirs[i] = t.TempDir()
		if _, err := index.SaveSnapshot(dirs[i], []*index.Index{index.Build(part, pageRank, 0)}, part); err != nil {
			t.Fatalf("%s: publish shard %d/%d: %v", c, i, n, err)
		}
	}
	return dirs
}

func eqSearchPath(q string) string {
	return fmt.Sprintf("/search?q=%s&k=%d", url.QueryEscape(q), eqK)
}
