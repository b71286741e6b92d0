package core

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ajaxcrawl/internal/browser"
	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/webapp"
)

func TestPrecrawlerBuildsLinkGraph(t *testing.T) {
	site, f := newSiteFetcher(40, 7)
	p := &Precrawler{
		Fetcher:  f,
		StartURL: webapp.WatchURL(site.Video(0).ID),
		MaxPages: 20,
		KeepURL:  func(u string) bool { return strings.Contains(u, "/watch?v=") },
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.URLs) != 20 {
		t.Fatalf("precrawled %d pages, want 20", len(res.URLs))
	}
	if res.URLs[0] != p.StartURL {
		t.Fatalf("first URL should be the start: %s", res.URLs[0])
	}
	// Every crawled page has recorded outlinks (related videos).
	if len(res.Links[p.StartURL]) == 0 {
		t.Fatalf("start page has no outlinks")
	}
	// PageRank covers all crawled pages and sums to ~1.
	sum := 0.0
	for _, u := range res.URLs {
		pr, ok := res.PageRank[u]
		if !ok {
			t.Fatalf("no PageRank for %s", u)
		}
		sum += pr
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("PageRank sums to %v", sum)
	}
	// No duplicates in URL list.
	seen := map[string]bool{}
	for _, u := range res.URLs {
		if seen[u] {
			t.Fatalf("duplicate URL %s", u)
		}
		seen[u] = true
	}
}

func TestPrecrawlerMaxPagesOne(t *testing.T) {
	site, f := newSiteFetcher(5, 7)
	p := &Precrawler{Fetcher: f, StartURL: webapp.WatchURL(site.Video(0).ID), MaxPages: 1}
	res, err := p.Run(context.Background())
	if err != nil || len(res.URLs) != 1 {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if _, err := (&Precrawler{Fetcher: f, StartURL: "/", MaxPages: 0}).Run(context.Background()); err == nil {
		t.Fatalf("MaxPages 0 should error")
	}
}

func TestPrecrawlSkipsBrokenPages(t *testing.T) {
	_, f := newSiteFetcher(5, 7)
	p := &Precrawler{Fetcher: f, StartURL: "/watch?v=missing", MaxPages: 5}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.URLs) != 0 {
		t.Fatalf("broken start page should yield empty crawl, got %v", res.URLs)
	}
}

func TestPrecrawlSaveLoad(t *testing.T) {
	site, f := newSiteFetcher(20, 7)
	p := &Precrawler{Fetcher: f, StartURL: webapp.WatchURL(site.Video(0).ID), MaxPages: 10}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPrecrawl(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.URLs) != len(res.URLs) || len(loaded.PageRank) != len(res.PageRank) {
		t.Fatalf("round trip lost data")
	}
	if _, err := LoadPrecrawl(t.TempDir()); err == nil {
		t.Fatalf("loading missing precrawl should fail")
	}
}

// TestLoadPrecrawlRejectsInvalid: a saved precrawl whose URL list has an
// empty or repeated entry, or whose PageRank is not finite, is refused at
// load, one row per violation.
func TestLoadPrecrawlRejectsInvalid(t *testing.T) {
	for name, res := range map[string]*PrecrawlResult{
		"empty URL":     {URLs: []string{"/a", ""}, PageRank: map[string]float64{"/a": 1}},
		"duplicate URL": {URLs: []string{"/a", "/b", "/a"}, PageRank: map[string]float64{"/a": 0.5, "/b": 0.5}},
		"NaN PageRank":  {URLs: []string{"/a", "/b"}, PageRank: map[string]float64{"/a": math.NaN(), "/b": 0.5}},
		"Inf PageRank":  {URLs: []string{"/a"}, PageRank: map[string]float64{"/a": math.Inf(1)}},
		"-Inf PageRank": {URLs: []string{"/a"}, PageRank: map[string]float64{"/a": math.Inf(-1)}},
	} {
		dir := t.TempDir()
		if err := res.Save(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPrecrawl(dir); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
}

// FuzzLoadPrecrawl feeds the precrawl reader arbitrary bytes, seeded with
// a real Save's file, its truncations and the gob-era file it must
// refuse. It may never panic, and a result it accepts has unique
// non-empty URLs and finite ranks.
func FuzzLoadPrecrawl(f *testing.F) {
	site, fetcher := newSiteFetcher(12, 7)
	res, err := (&Precrawler{Fetcher: fetcher, StartURL: webapp.WatchURL(site.Video(0).ID), MaxPages: 6}).Run(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	if err := res.Save(dir); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(dir, precrawlFileName))
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(seed), len(seed) - 1, len(seed) / 2, 16, 0} {
		f.Add(seed[:n])
	}
	gobEra, err := os.ReadFile(filepath.Join("testdata", "gob-era.precrawl"))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := decodePrecrawl(bytes.NewReader(gobEra)); err == nil {
		f.Fatal("the gob-era precrawl was accepted")
	}
	f.Add(gobEra)
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodePrecrawl(bytes.NewReader(data))
		if err != nil {
			return
		}
		seen := make(map[string]bool, len(res.URLs))
		for _, u := range res.URLs {
			if u == "" || seen[u] {
				t.Fatalf("accepted empty or duplicate URL %q", u)
			}
			seen[u] = true
		}
		for u, pr := range res.PageRank {
			if math.IsNaN(pr) || math.IsInf(pr, 0) {
				t.Fatalf("accepted PageRank %v for %q", pr, u)
			}
		}
	})
}

// recordingFetcher logs the order of the URLs fetched through it.
type recordingFetcher struct {
	inner fetch.Fetcher
	urls  []string
}

func (f *recordingFetcher) Fetch(ctx context.Context, u string) (*fetch.Response, error) {
	f.urls = append(f.urls, u)
	return f.inner.Fetch(ctx, u)
}

// batchGate holds every fetch until the test releases it, and reports
// arrivals and completions, so a test can complete a precrawl batch in
// any order it likes without sleeping.
type batchGate struct {
	inner   fetch.Fetcher
	arrived chan string
	done    chan string

	mu       sync.Mutex
	held     map[string]chan struct{}
	inflight int
	peak     int
}

func (g *batchGate) Fetch(ctx context.Context, u string) (*fetch.Response, error) {
	release := make(chan struct{})
	g.mu.Lock()
	g.held[u] = release
	g.inflight++
	g.peak = max(g.peak, g.inflight)
	g.mu.Unlock()
	g.arrived <- u
	<-release
	resp, err := g.inner.Fetch(ctx, u)
	g.mu.Lock()
	g.inflight--
	g.mu.Unlock()
	g.done <- u
	return resp, err
}

// precrawlBatches replays a one-at-a-time precrawl's fetch order and
// splits it into the batches a width-w precrawl fetches together: the
// next min(w, MaxPages−accepted, queued−fetched) queue entries.
func precrawlBatches(ref *PrecrawlResult, fetched []string, maxPages, w int) [][]string {
	accepted := make(map[string]bool, len(ref.URLs))
	for _, u := range ref.URLs {
		accepted[u] = true
	}
	seen := map[string]bool{fetched[0]: true}
	queued, n := 1, 0
	var batches [][]string
	for head := 0; head < len(fetched); {
		b := fetched[head : head+min(w, maxPages-n, queued-head)]
		for _, u := range b {
			if !accepted[u] {
				continue
			}
			n++
			for _, l := range ref.Links[u] {
				if !seen[l] {
					seen[l] = true
					queued++
				}
			}
		}
		batches = append(batches, b)
		head += len(b)
	}
	return batches
}

// TestPrecrawlWidthInvariant: fetching Lines queue entries at once and
// completing each batch in reverse order yields exactly the
// one-at-a-time precrawl — URLs, Links, PageRank and the kept
// responses — through scripted failures and a MaxPages cut mid-level,
// with never more than Lines fetches in flight.
func TestPrecrawlWidthInvariant(t *testing.T) {
	site := webapp.New(webapp.DefaultConfig(40, 7))
	start := webapp.WatchURL(site.Video(0).ID)
	keep := func(u string) bool { return strings.Contains(u, "/watch?v=") }
	const maxPages = 13
	precrawler := func(f fetch.Fetcher, lines int) *Precrawler {
		return &Precrawler{Fetcher: f, StartURL: start, MaxPages: maxPages, KeepURL: keep, Lines: lines}
	}
	plain := &fetch.HandlerFetcher{Handler: site.Handler()}
	first, err := precrawler(plain, 1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Two of the start page's links fail, so they are queued in every
	// run; a script is per URL, so the failures do not depend on order.
	links := first.Links[start]
	scripts := map[string][]fetch.FaultOp{links[1]: {fetch.FaultError}, links[3]: {fetch.FaultError}}
	faulty := func() fetch.Fetcher {
		return fetch.NewFaultFetcher(plain, fetch.FaultConfig{Scripts: scripts}, nil)
	}

	rec := &recordingFetcher{inner: faulty()}
	ref, err := precrawler(rec, 1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	queued := map[string]bool{start: true}
	for _, links := range ref.Links {
		for _, l := range links {
			queued[l] = true
		}
	}
	if len(ref.URLs) != maxPages || len(rec.urls) != maxPages+2 || len(queued) <= len(rec.urls) {
		t.Fatalf("want a %d-page cut with 2 failures and queued entries left, got %d pages of %d fetches, %d queued",
			maxPages, len(ref.URLs), len(rec.urls), len(queued))
	}

	for _, lines := range []int{1, 2, 3, 8} {
		g := &batchGate{inner: faulty(), arrived: make(chan string), done: make(chan string), held: map[string]chan struct{}{}}
		type out struct {
			res *PrecrawlResult
			err error
		}
		outc := make(chan out, 1)
		go func() {
			res, err := precrawler(g, lines).Run(context.Background())
			outc <- out{res, err}
		}()
		for _, batch := range precrawlBatches(ref, rec.urls, maxPages, lines) {
			want := make(map[string]bool, len(batch))
			for _, u := range batch {
				want[u] = true
			}
			for range batch {
				if u := <-g.arrived; !want[u] {
					t.Fatalf("lines=%d: fetched %s outside the batch %v", lines, u, batch)
				}
			}
			for i := len(batch) - 1; i >= 0; i-- {
				g.mu.Lock()
				release := g.held[batch[i]]
				g.mu.Unlock()
				close(release)
				<-g.done
			}
		}
		o := <-outc
		if o.err != nil {
			t.Fatalf("lines=%d: %v", lines, o.err)
		}
		if g.peak > lines {
			t.Fatalf("lines=%d: %d fetches in flight", lines, g.peak)
		}
		if !reflect.DeepEqual(o.res, ref) {
			t.Fatalf("lines=%d: precrawl differs from the one-at-a-time run:\n got %v\nwant %v", lines, o.res.URLs, ref.URLs)
		}
	}
}

// TestPrecrawlRetriesLikeTheCrawl: a precrawl through the crawl's own
// retry policy (Options.Retrying, as cmd/ajaxcrawl and BuildEngine wire
// it) over a fault injector that fails at most three calls in a row per
// URL finds exactly the clean precrawl's pages, links and ranks. A bare
// faulted fetcher loses pages here.
func TestPrecrawlRetriesLikeTheCrawl(t *testing.T) {
	site := webapp.New(webapp.DefaultConfig(60, 7))
	precrawl := func(f fetch.Fetcher) *PrecrawlResult {
		t.Helper()
		res, err := (&Precrawler{
			Fetcher: f, StartURL: webapp.WatchURL(site.Video(0).ID), MaxPages: 60,
			KeepURL: func(u string) bool { return strings.Contains(u, "/watch?v=") }, Lines: 2,
		}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := &fetch.HandlerFetcher{Handler: site.Handler()}
	clean := precrawl(plain)

	clock := &fetch.VirtualClock{}
	faulty := fetch.NewFaultFetcher(plain, fetch.FaultConfig{ErrorRate: 0.3, MaxConsecutive: 3, Seed: 2008}, clock)
	var faults atomic.Int32
	counted := fetch.Func(func(ctx context.Context, u string) (*fetch.Response, error) {
		resp, err := faulty.Fetch(ctx, u)
		if err != nil {
			faults.Add(1)
		}
		return resp, err
	})
	opts := Options{Clock: clock, RetryPolicy: &fetch.RetryPolicy{MaxAttempts: 5}}
	got := precrawl(opts.Retrying(counted))
	if !slices.Equal(got.URLs, clean.URLs) || !reflect.DeepEqual(got.Links, clean.Links) ||
		!reflect.DeepEqual(got.PageRank, clean.PageRank) {
		t.Fatalf("faulted precrawl found %d pages, clean %d: the precrawl must retry like the crawl",
			len(got.URLs), len(clean.URLs))
	}
	if faults.Load() == 0 {
		t.Fatal("the faults never fired")
	}
}

func TestMPCrawlerProcessesAllPartitions(t *testing.T) {
	site, _ := newSiteFetcher(12, 9)
	var urls []string
	for i := 0; i < 12; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	mp := &MPCrawler{
		NewCrawler: func() *Crawler {
			return New(&fetch.HandlerFetcher{Handler: site.Handler()}, Options{UseHotNode: true, MaxStates: 3})
		},
		ProcLines: 4,
		URLs:      urls,
	}
	res := mp.Run(context.Background())
	if err := res.Err; err != nil {
		t.Fatal(err)
	}
	graphs := res.Graphs
	if len(graphs) != 12 {
		t.Fatalf("crawled %d pages, want 12", len(graphs))
	}
	if res.Metrics.Pages != 12 {
		t.Fatalf("metrics pages = %d", res.Metrics.Pages)
	}
	// Graph order is URL order: graph i is for urls[i].
	for i, g := range graphs {
		if g.URL != urls[i] {
			t.Fatalf("graph %d url = %s, want %s", i, g.URL, urls[i])
		}
	}
}

func TestMPCrawlerSerialEqualsParallelModels(t *testing.T) {
	site, _ := newSiteFetcher(8, 10)
	var urls []string
	for i := 0; i < 8; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	mk := func(lines int) []string {
		mp := &MPCrawler{
			NewCrawler: func() *Crawler {
				return New(&fetch.HandlerFetcher{Handler: site.Handler()}, Options{UseHotNode: true, MaxStates: 4})
			},
			ProcLines: lines,
			URLs:      urls,
		}
		res := mp.Run(context.Background())
		if err := res.Err; err != nil {
			t.Fatal(err)
		}
		var sigs []string
		for _, g := range res.Graphs {
			sigs = append(sigs, g.URL+":"+itoa(g.NumStates()))
		}
		return sigs
	}
	serial := mk(1)
	parallel := mk(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("parallel crawl diverged at %d: %s vs %s", i, serial[i], parallel[i])
		}
	}
}

func TestMPCrawlerPerPageOrderDeterministic(t *testing.T) {
	// Metrics.PerPage must follow URL order, not goroutine completion
	// order.
	site, _ := newSiteFetcher(12, 13)
	var urls []string
	for i := 0; i < 12; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	run := func() []string {
		mp := &MPCrawler{
			NewCrawler: func() *Crawler {
				return New(&fetch.HandlerFetcher{Handler: site.Handler()}, Options{MaxStates: 3})
			},
			ProcLines: 4,
			URLs:      urls,
		}
		res := mp.Run(context.Background())
		if err := res.Err; err != nil {
			t.Fatal(err)
		}
		order := make([]string, 0, len(res.Metrics.PerPage))
		for _, pm := range res.Metrics.PerPage {
			order = append(order, pm.URL)
		}
		return order
	}
	first := run()
	if len(first) != len(urls) {
		t.Fatalf("PerPage has %d rows, want %d", len(first), len(urls))
	}
	for i, u := range first {
		if u != urls[i] {
			t.Fatalf("PerPage[%d] = %s, want %s (URL order)", i, u, urls[i])
		}
	}
	for trial := 0; trial < 3; trial++ {
		got := run()
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("trial %d diverged at %d: %s vs %s", trial, i, got[i], first[i])
			}
		}
	}
}

func TestMPCrawlerPartitionErrorReported(t *testing.T) {
	urls := []string{"/watch?v=broken"}
	_, f := newSiteFetcher(3, 11)
	// Under the default SkipAndCount policy the crawl completes with the
	// bad page counted, not failed.
	mp := &MPCrawler{
		NewCrawler: func() *Crawler { return New(f, Options{}) },
		ProcLines:  2,
		URLs:       urls,
	}
	res := mp.Run(context.Background())
	if err := res.Err; err != nil {
		t.Fatalf("SkipAndCount crawl errored: %v", err)
	}
	if res.Metrics.PagesFailed != 1 {
		t.Fatalf("want PagesFailed=1, got %d", res.Metrics.PagesFailed)
	}
	// FailFast surfaces it as the crawl's error.
	mp.NewCrawler = func() *Crawler { return New(f, Options{OnError: FailFast}) }
	if res := mp.Run(context.Background()); res.Err == nil {
		t.Fatalf("broken page should surface an error under FailFast")
	}
}

// TestPrecrawlReusesArena: each batch slot loads its pages into one Page
// whose Slab is an arena, so after a slot's first page every page's
// document is carved at the same place (no node chunk per page), and each
// tree is handed back, zeroed, once its links are read. The links are the
// ones a fresh page per URL finds.
func TestPrecrawlReusesArena(t *testing.T) {
	site, f := newSiteFetcher(40, 7)
	keep := func(u string) bool { return strings.Contains(u, "/watch?v=") }
	start := webapp.WatchURL(site.Video(0).ID)
	defer func(orig func(*browser.Page, context.Context, string) error) { loadStatic = orig }(loadStatic)
	for _, lines := range []int{1, 3} {
		var mu sync.Mutex
		docs := map[*browser.Page][]*dom.Node{}
		loadStatic = func(p *browser.Page, ctx context.Context, u string) error {
			err := p.LoadStatic(ctx, u)
			if err == nil {
				mu.Lock()
				docs[p] = append(docs[p], p.Doc)
				mu.Unlock()
			}
			return err
		}
		const maxPages = 30
		res, err := (&Precrawler{Fetcher: f, StartURL: start, MaxPages: maxPages, KeepURL: keep, Lines: lines}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(docs) != lines {
			t.Fatalf("lines=%d: pages loaded into %d Pages", lines, len(docs))
		}
		loads := 0
		for _, d := range docs {
			loads += len(d)
			for i, doc := range d {
				if doc != d[0] {
					t.Fatalf("lines=%d: load %d of a slot carved its document elsewhere than its first", lines, i)
				}
				if doc.Type != 0 || doc.FirstChild != nil {
					t.Fatalf("lines=%d: a precrawl tree outlived its links", lines)
				}
			}
		}
		if loads != maxPages || len(res.URLs) != maxPages {
			t.Fatalf("lines=%d: %d loads for %d pages, want %d", lines, loads, len(res.URLs), maxPages)
		}
		for _, u := range res.URLs {
			p := browser.NewPage(f)
			if err := p.LoadStatic(context.Background(), u); err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, l := range p.Links() {
				if keep(l) {
					want = append(want, l)
				}
			}
			if !slices.Equal(res.Links[u], want) {
				t.Fatalf("lines=%d: %s links %v, a fresh page finds %v", lines, u, res.Links[u], want)
			}
		}
	}
}
