package ajaxcrawl

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/fetch"
)

// buildTestEngine crawls a small synthetic site through the full
// pipeline.
func buildTestEngine(t *testing.T, videos, maxPages int) (*SimSite, *Engine) {
	t.Helper()
	site := NewSimSite(videos, 123)
	eng, err := BuildEngine(context.Background(), Config{
		Fetcher:   NewHandlerFetcher(site.Handler()),
		StartURL:  site.VideoURL(0),
		MaxPages:  maxPages,
		ProcLines: 3,
		Crawl:     CrawlOptions{UseHotNode: true, MaxStates: 5},
		KeepURL:   IsWatchURL,
	})
	if err != nil {
		t.Fatal(err)
	}
	return site, eng
}

func TestBuildEngineEndToEnd(t *testing.T) {
	_, eng := buildTestEngine(t, 40, 25)
	if eng.Metrics.Pages != 25 {
		t.Fatalf("crawled %d pages, want 25", eng.Metrics.Pages)
	}
	if eng.NumStates() < 25 {
		t.Fatalf("too few states: %d", eng.NumStates())
	}
	man, err := eng.SaveSnapshot(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) != 2 {
		t.Fatalf("want 2 shard files (25 pages / 20), got %d", len(man.Shards))
	}
	if len(eng.PageRank) == 0 {
		t.Fatalf("PageRank missing")
	}
}

// TestBuildEngineFetchesEachPageOnce: the crawl's page loads are the
// precrawl's responses, so the caller's fetcher sees each page once and
// otherwise only the XHRs the hot-node cache did not absorb.
func TestBuildEngineFetchesEachPageOnce(t *testing.T) {
	site := NewSimSite(40, 123)
	inner := NewHandlerFetcher(site.Handler())
	var mu sync.Mutex
	fetches := map[string]int{}
	total := 0
	counting := fetch.Func(func(c context.Context, rawurl string) (*fetch.Response, error) {
		mu.Lock()
		fetches[rawurl]++
		total++
		mu.Unlock()
		return inner.Fetch(c, rawurl)
	})
	eng, err := BuildEngine(context.Background(), Config{
		Fetcher:   counting,
		StartURL:  site.VideoURL(0),
		MaxPages:  25,
		ProcLines: 3,
		Crawl:     CrawlOptions{UseHotNode: true, MaxStates: 5},
		KeepURL:   IsWatchURL,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := len(eng.Metrics.PerPage)
	for _, pm := range eng.Metrics.PerPage {
		if fetches[pm.URL] != 1 {
			t.Errorf("%s fetched %d times, want once", pm.URL, fetches[pm.URL])
		}
		want += pm.NetworkCalls
	}
	if eng.Metrics.Pages != 25 || total != want {
		t.Fatalf("%d pages, %d fetches; want 25 pages and len(URLs) + Σ NetworkCalls = %d", eng.Metrics.Pages, total, want)
	}
}

// TestBuildEnginePrecrawlRetries: BuildEngine's precrawl retries under
// Config.Crawl's policy, so an engine built through a fault injector the
// policy can outlast crawls exactly the pages and states of a clean one.
func TestBuildEnginePrecrawlRetries(t *testing.T) {
	site := NewSimSite(60, 7)
	build := func(f Fetcher, crawl CrawlOptions) *Engine {
		t.Helper()
		eng, err := BuildEngine(context.Background(), Config{
			Fetcher: f, StartURL: site.VideoURL(0), MaxPages: 60, ProcLines: 2,
			Crawl: crawl, KeepURL: IsWatchURL,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	plain := NewHandlerFetcher(site.Handler())
	clean := build(plain, CrawlOptions{UseHotNode: true, MaxStates: 5})
	clock := &fetch.VirtualClock{}
	faulty := fetch.NewFaultFetcher(plain, fetch.FaultConfig{ErrorRate: 0.3, MaxConsecutive: 3, Seed: 2008}, clock)
	got := build(faulty, CrawlOptions{
		UseHotNode: true, MaxStates: 5, Clock: clock,
		RetryPolicy: &fetch.RetryPolicy{MaxAttempts: 5},
	})
	if got.Metrics.Retries == 0 {
		t.Fatal("no crawl fetch was retried: the faults never fired")
	}
	c, g := clean.Metrics, got.Metrics
	if g.Pages != c.Pages || g.PagesFailed != 0 || g.States != c.States || g.EventsTriggered != c.EventsTriggered {
		t.Fatalf("faulted build: %d pages (%d failed), %d states, %d events; clean: %d pages, %d states, %d events",
			g.Pages, g.PagesFailed, g.States, g.EventsTriggered, c.Pages, c.States, c.EventsTriggered)
	}
}

func TestEngineSearchFindsAJAXOnlyContent(t *testing.T) {
	_, eng := buildTestEngine(t, 40, 25)
	// "wow" is the most-planted query phrase; with 25 pages crawled it
	// should match somewhere, including states beyond the first.
	rs := eng.Search("wow")
	if len(rs) == 0 {
		t.Fatalf("no results for the most popular planted query")
	}
	deep := false
	for _, r := range rs {
		if r.State > 0 {
			deep = true
			break
		}
	}
	if !deep {
		t.Logf("warning: all hits on first pages (small sample); acceptable but unusual")
	}
	// Scores sorted.
	for i := 1; i < len(rs); i++ {
		if rs[i].Score > rs[i-1].Score {
			t.Fatalf("results unsorted")
		}
	}
}

func TestEngineReconstruct(t *testing.T) {
	_, eng := buildTestEngine(t, 40, 15)
	rs := eng.Search("wow")
	if len(rs) == 0 {
		t.Skip("no hits in this sample")
	}
	// Reconstruct the deepest result to exercise event replay.
	best := rs[0]
	for _, r := range rs {
		if r.State > best.State {
			best = r
		}
	}
	html, err := eng.Reconstruct(context.Background(), best)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html, "recent_comments") {
		t.Fatalf("reconstructed HTML missing comment box")
	}
	// The reconstructed state must actually contain the query term.
	if !strings.Contains(strings.ToLower(html), "wow") {
		t.Fatalf("reconstructed state does not contain the query")
	}
}

func TestReconstructErrors(t *testing.T) {
	_, eng := buildTestEngine(t, 10, 5)
	if _, err := eng.Reconstruct(context.Background(), Result{URL: "/watch?v=unknown", State: 0}); err == nil {
		t.Fatalf("reconstructing unknown URL should fail")
	}
}

func TestBuildEngineCancelReturnsPartialEngine(t *testing.T) {
	// Cancel mid-crawl: the precrawl completes (it fetches no XHRs), then
	// the crawl phase is cut short at its 30th /comments XHR of ~69.
	// BuildEngine must hand back the partial engine built from the pages
	// crawled so far, alongside the context error, so a graceful shutdown
	// can still serve results.
	site := NewSimSite(40, 123)
	inner := NewHandlerFetcher(site.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var xhrs atomic.Int64
	counting := fetch.Func(func(c context.Context, rawurl string) (*fetch.Response, error) {
		if strings.HasPrefix(rawurl, "/comments") && xhrs.Add(1) == 30 {
			cancel()
		}
		return inner.Fetch(c, rawurl)
	})
	eng, err := BuildEngine(ctx, Config{
		Fetcher:   counting,
		StartURL:  site.VideoURL(0),
		MaxPages:  20,
		ProcLines: 2,
		Crawl:     CrawlOptions{UseHotNode: true, MaxStates: 5},
		KeepURL:   IsWatchURL,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if eng == nil {
		t.Fatalf("canceled build should return the partial engine")
	}
	if eng.Metrics.Pages == 0 || eng.Metrics.Pages >= 20 {
		t.Fatalf("want a partial crawl, got %d pages", eng.Metrics.Pages)
	}
	if eng.NumStates() == 0 {
		t.Fatalf("partial engine has no indexed states")
	}
	if len(eng.Search("wow")) == 0 && len(eng.Search("video")) == 0 {
		t.Logf("partial engine returned no hits (small sample); index still intact")
	}
}

// A page that blows only its own PageTimeout is a page failure, not a
// cancellation: with the caller's context alive, FailFast must fail the
// build — no partial engine — and the error must name the page.
func TestBuildEngineFailFastPageTimeoutIsNotCancellation(t *testing.T) {
	site := NewSimSite(20, 123)
	inner := NewHandlerFetcher(site.Handler())
	// The start page, so it is crawled; with a second comment page, so it
	// sends an XHR.
	v := 0
	for site.CommentPages(v) < 2 {
		v++
	}
	hung := site.VideoURL(v)
	xhr := "/comments?v=" + strings.TrimPrefix(hung, "/watch?v=") + "&"
	var fetches atomic.Int64
	hanging := fetch.Func(func(c context.Context, rawurl string) (*fetch.Response, error) {
		// The page load is the precrawl's handed-off response; the page's
		// first XHR hangs until its page deadline.
		if strings.HasPrefix(rawurl, xhr) && fetches.Add(1) == 1 {
			<-c.Done()
			return nil, c.Err()
		}
		return inner.Fetch(c, rawurl)
	})
	eng, err := BuildEngine(context.Background(), Config{
		Fetcher:   hanging,
		StartURL:  hung,
		MaxPages:  10,
		ProcLines: 2,
		Crawl:     CrawlOptions{UseHotNode: true, MaxStates: 3, PageTimeout: 200 * time.Millisecond, OnError: FailFast},
		KeepURL:   IsWatchURL,
	})
	if err == nil || eng != nil {
		t.Fatalf("want nil engine and an error, got engine=%v err=%v", eng != nil, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want the page's deadline error, got %v", err)
	}
	if !strings.HasPrefix(err.Error(), "ajaxcrawl: crawl "+hung+":") {
		t.Fatalf("error should name the page %s, got %v", hung, err)
	}
}

// TestBuildEngineFailFastStopsThePipeline: under FailFast the first page
// error stops the crawl. One line, a precrawl loaded from disk (so page
// loads reach the fetcher), and the loads of positions 0 and 1 hang until
// their context ends: position 0 fails on its PageTimeout, and position
// 1, in flight or not yet taken, must be the last page fetched. No page
// after it is crawled, and no shard file is encoded.
func TestBuildEngineFailFastStopsThePipeline(t *testing.T) {
	site := NewSimSite(60, 123)
	inner := NewHandlerFetcher(site.Handler())
	cfg := Config{Fetcher: inner, StartURL: site.VideoURL(0), MaxPages: 50, ProcLines: 1, KeepURL: IsWatchURL}
	pre, err := Precrawl(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := pre.Save(dir); err != nil {
		t.Fatal(err)
	}
	if pre, err = core.LoadPrecrawl(dir); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var loaded []string
	cfg.Fetcher = fetch.Func(func(c context.Context, rawurl string) (*fetch.Response, error) {
		if IsWatchURL(rawurl) {
			mu.Lock()
			loaded = append(loaded, rawurl)
			mu.Unlock()
			if rawurl == pre.URLs[0] || rawurl == pre.URLs[1] {
				<-c.Done()
				return nil, c.Err()
			}
		}
		return inner.Fetch(c, rawurl)
	})
	cfg.Crawl = CrawlOptions{PageTimeout: 200 * time.Millisecond, OnError: FailFast}
	cfg.WorkDir = t.TempDir()
	eng, err := BuildEngineFrom(context.Background(), cfg, pre)
	if eng != nil || !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
		!strings.HasPrefix(err.Error(), "ajaxcrawl: crawl "+pre.URLs[0]+":") {
		t.Fatalf("want nil engine and position 0's deadline error, got engine=%v err=%v", eng != nil, err)
	}
	for _, u := range loaded {
		if u != pre.URLs[0] && u != pre.URLs[1] {
			t.Fatalf("%s was crawled after the failure (%d page loads)", u, len(loaded))
		}
	}
	if shards, _ := filepath.Glob(filepath.Join(cfg.WorkDir, "shard-*")); len(shards) != 0 {
		t.Fatalf("shard files encoded after the failure: %v", shards)
	}
}

// TestQuickstartConfigUsesHotNodeCache builds the engine as
// examples/quickstart and README's quickstart do. UseHotNode is off in
// the zero CrawlOptions, so the config sets it, and the cache must then
// answer some XHR sends.
func TestQuickstartConfigUsesHotNodeCache(t *testing.T) {
	site := NewSimSite(60, 7)
	eng, err := BuildEngine(context.Background(), Config{
		Fetcher:  NewHandlerFetcher(site.Handler()),
		StartURL: site.VideoURL(0),
		MaxPages: 30,
		KeepURL:  IsWatchURL,
		Crawl:    CrawlOptions{UseHotNode: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics; m.HotNodeHits == 0 || m.NetworkEvents >= m.EventsTriggered {
		t.Fatalf("hot-node cache idle: %d hits, %d of %d events hit the network",
			m.HotNodeHits, m.NetworkEvents, m.EventsTriggered)
	}
}

func TestBuildEngineValidation(t *testing.T) {
	site := NewSimSite(5, 1)
	if _, err := BuildEngine(context.Background(), Config{StartURL: "/", MaxPages: 5}); err == nil {
		t.Fatalf("missing fetcher should fail")
	}
	f := NewHandlerFetcher(site.Handler())
	if _, err := BuildEngine(context.Background(), Config{Fetcher: f, MaxPages: 5}); err == nil {
		t.Fatalf("missing start URL should fail")
	}
	if _, err := BuildEngine(context.Background(), Config{Fetcher: f, StartURL: "/x"}); err == nil {
		t.Fatalf("missing MaxPages should fail")
	}
	if _, err := BuildEngine(context.Background(), Config{Fetcher: f, StartURL: "/watch?v=none", MaxPages: 3}); err == nil {
		t.Fatalf("unreachable start should fail")
	}
}

func TestNewEngineFromGraphs(t *testing.T) {
	site := NewSimSite(10, 7)
	f := NewHandlerFetcher(site.Handler())
	c := NewCrawler(f, CrawlOptions{UseHotNode: true, MaxStates: 3})
	g, _, err := c.CrawlPage(context.Background(), site.VideoURL(0))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngineFromGraphs(f, []*Graph{g}, nil)
	if eng.NumStates() != g.NumStates() {
		t.Fatalf("states = %d, want %d", eng.NumStates(), g.NumStates())
	}
	if eng.Graph(site.VideoURL(0)) != g {
		t.Fatalf("Graph lookup failed")
	}
}

func TestSimSiteAccessors(t *testing.T) {
	site := NewSimSite(8, 2)
	if site.NumVideos() != 8 {
		t.Fatalf("NumVideos = %d", site.NumVideos())
	}
	if !IsWatchURL(site.VideoURL(0)) {
		t.Fatalf("VideoURL not a watch URL: %s", site.VideoURL(0))
	}
	if site.VideoTitle(0) == "" || site.CommentPages(0) < 1 {
		t.Fatalf("video metadata empty")
	}
	if len(site.Queries()) != 100 {
		t.Fatalf("queries = %d", len(site.Queries()))
	}
	if !IsWatchURL("/watch?v=abc") || IsWatchURL("/comments?v=abc") {
		t.Fatalf("IsWatchURL misclassifies")
	}
}

// TestTraditionalVsAJAXRecall is the headline result (§7.7) at miniature
// scale: the AJAX index returns strictly more results than the
// traditional (first-state-only) index for the planted query set.
func TestTraditionalVsAJAXRecall(t *testing.T) {
	site := NewSimSite(60, 99)
	f := NewHandlerFetcher(site.Handler())

	crawl := func(opts CrawlOptions) *Engine {
		c := NewCrawler(f, opts)
		var graphs []*Graph
		for i := 0; i < 30; i++ {
			g, _, err := c.CrawlPage(context.Background(), site.VideoURL(i))
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, g)
		}
		return NewEngineFromGraphs(f, graphs, nil)
	}
	trad := crawl(CrawlOptions{Traditional: true})
	ajax := crawl(CrawlOptions{UseHotNode: true})

	tradTotal, ajaxTotal := 0, 0
	for _, q := range site.Queries()[:10] {
		tradTotal += len(trad.Search(q))
		ajaxTotal += len(ajax.Search(q))
	}
	if ajaxTotal <= tradTotal {
		t.Fatalf("AJAX search must improve recall: trad=%d ajax=%d", tradTotal, ajaxTotal)
	}
	t.Logf("recall gain: traditional %d hits, AJAX %d hits", tradTotal, ajaxTotal)
}

func TestSearchWithSnippets(t *testing.T) {
	_, eng := buildTestEngine(t, 40, 20)
	out := eng.SearchWithSnippets("wow", 5)
	if len(out) == 0 {
		t.Skip("no hits in this sample")
	}
	for _, r := range out {
		if r.Snippet == "" {
			t.Fatalf("missing snippet for %v", r.Result)
		}
		if !strings.Contains(r.Snippet, "[wow]") {
			t.Fatalf("snippet not highlighted: %q", r.Snippet)
		}
	}
}

func TestFetcherConstructors(t *testing.T) {
	site := NewSimSite(3, 1)
	// Latency fetcher wraps and still serves.
	lf := NewLatencyFetcher(NewHandlerFetcher(site.Handler()), 0, 0)
	resp, err := lf.Fetch(context.Background(), site.VideoURL(0))
	if err != nil || resp.Status != 200 {
		t.Fatalf("latency fetcher: %v %v", resp, err)
	}
	// HTTP fetcher constructs (live fetch exercised in internal/fetch).
	if NewHTTPFetcher(nil) == nil {
		t.Fatalf("nil http fetcher")
	}
}

func TestTopKResultsHelper(t *testing.T) {
	rs := []Result{{Score: 3}, {Score: 2}, {Score: 1}}
	if got := TopKResults(rs, 2); len(got) != 2 || got[0].Score != 3 {
		t.Fatalf("TopKResults = %v", got)
	}
}
