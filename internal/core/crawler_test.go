package core

import (
	"context"
	"errors"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"ajaxcrawl/internal/browser"
	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/html"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/webapp"
)

// newSiteFetcher builds a synthetic site and an in-process fetcher on it.
func newSiteFetcher(videos int, seed int64) (*webapp.Site, fetch.Fetcher) {
	site := webapp.New(webapp.DefaultConfig(videos, seed))
	return site, &fetch.HandlerFetcher{Handler: site.Handler()}
}

// multiPageVideo returns a video with at least min comment pages.
func multiPageVideo(t *testing.T, site *webapp.Site, min int) *webapp.Video {
	t.Helper()
	for i := 0; i < site.NumVideos(); i++ {
		if v := site.Video(i); len(v.Pages) >= min {
			return v
		}
	}
	t.Fatalf("no video with >= %d pages", min)
	return nil
}

func TestTraditionalCrawlSingleState(t *testing.T) {
	site, f := newSiteFetcher(20, 1)
	v := multiPageVideo(t, site, 3)
	c := New(f, Options{Traditional: true})
	g, pm, err := c.CrawlPage(context.Background(), webapp.WatchURL(v.ID))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 1 {
		t.Fatalf("traditional crawl found %d states, want 1", g.NumStates())
	}
	if pm.EventsTriggered != 0 || pm.NetworkCalls != 0 {
		t.Fatalf("traditional crawl must not trigger events: %+v", pm)
	}
	// The single state carries the first comment page's text.
	if !strings.Contains(g.State(0).Text, "Comments (page 1") {
		t.Fatalf("initial state text missing comments: %.100q", g.State(0).Text)
	}
}

func TestAJAXCrawlFindsAllCommentPages(t *testing.T) {
	site, f := newSiteFetcher(30, 2)
	v := multiPageVideo(t, site, 4)
	c := New(f, Options{UseHotNode: true})
	g, pm, err := c.CrawlPage(context.Background(), webapp.WatchURL(v.ID))
	if err != nil {
		t.Fatal(err)
	}
	want := len(v.Pages)
	if want > 11 {
		want = 11
	}
	if g.NumStates() != want {
		t.Fatalf("found %d states, want %d (comment pages)", g.NumStates(), want)
	}
	// Every comment page's content must appear in some state.
	for p := 1; p <= want; p++ {
		found := false
		needle := "Comments (page " + itoa(p)
		for _, s := range g.States {
			if strings.Contains(s.Text, needle) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no state for comment page %d", p)
		}
	}
	if pm.EventsTriggered == 0 || pm.Transitions == 0 {
		t.Fatalf("metrics empty: %+v", pm)
	}
	// The graph must contain back transitions (prev) that point at
	// previously-seen states, i.e. dedup worked: #states < #transitions.
	if len(g.Transitions) <= g.NumStates()-1 {
		t.Fatalf("transitions (%d) should exceed tree edges (%d)", len(g.Transitions), g.NumStates()-1)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

func TestDuplicateStatesCollapse(t *testing.T) {
	site, f := newSiteFetcher(30, 2)
	v := multiPageVideo(t, site, 3)
	c := New(f, Options{UseHotNode: true})
	g, _, err := c.CrawlPage(context.Background(), webapp.WatchURL(v.ID))
	if err != nil {
		t.Fatal(err)
	}
	// "prev" from page 2 leads back to state 0 (page 1): there must be a
	// transition whose To is the initial state.
	foundBack := false
	for _, tr := range g.Transitions {
		if tr.To == g.Initial && tr.From != g.Initial {
			foundBack = true
			break
		}
	}
	if !foundBack {
		t.Fatalf("no transition back to the initial state; duplicate detection broken")
	}
	// All states distinct by hash (AddState guarantees, but assert).
	seen := map[string]bool{}
	for _, s := range g.States {
		k := s.Hash.String()
		if seen[k] {
			t.Fatalf("duplicate state hash %s", k)
		}
		seen[k] = true
	}
}

func TestMaxStatesLimit(t *testing.T) {
	site, f := newSiteFetcher(30, 2)
	v := multiPageVideo(t, site, 5)
	c := New(f, Options{UseHotNode: true, MaxStates: 3})
	g, _, err := c.CrawlPage(context.Background(), webapp.WatchURL(v.ID))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 3 {
		t.Fatalf("MaxStates not honored: %d states", g.NumStates())
	}
}

// TestCapStateIsNotCopied: BFS never expands the state admitted at
// MaxStates, so the crawl keeps no snapshot of it — one Snapshot per
// other state — and the model is the one the crawl made when it still
// copied that state (the shape below was recorded on that tree).
func TestCapStateIsNotCopied(t *testing.T) {
	site, f := newSiteFetcher(30, 2)
	v := multiPageVideo(t, site, 5)
	noisy, nf := noisySite(12)
	defer func(orig func(*browser.Page) *browser.Snapshot) { snapshot = orig }(snapshot)
	snapshots := 0
	snapshot = func(p *browser.Page) *browser.Snapshot {
		snapshots++
		return p.Snapshot()
	}
	var graphs []*model.Graph
	for _, c := range []struct {
		f    fetch.Fetcher
		opts Options
		url  string
	}{
		{f, Options{UseHotNode: true, MaxStates: 3}, webapp.WatchURL(v.ID)},
		{nf, Options{UseHotNode: true, MaxStates: 4, NearDupThreshold: 0.9}, webapp.WatchURL(noisy.Video(0).ID)},
	} {
		snapshots = 0
		g, _, err := New(c.f, c.opts).CrawlPage(context.Background(), c.url)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumStates() != c.opts.MaxStates || snapshots != c.opts.MaxStates-1 {
			t.Fatalf("%s: %d states and %d snapshots, want %d and %d", c.url, g.NumStates(), snapshots, c.opts.MaxStates, c.opts.MaxStates-1)
		}
		graphs = append(graphs, g)
	}
	const want = `page /watch?v=pFIpPzS7iI4 states=3 transitions=2
  s0 depth=0 text=1181:2bd0176aa7c0f7ca
  s1 depth=1 text=1073:60e9136803cd0770
  s2 depth=1 text=1091:8d0a0537437c3ae2
  t 0->1 html[0]/body[1]/div[3]/div[0]/div[11]/span[1] onclick targets=recent_comments
  t 0->2 html[0]/body[1]/div[3]/div[0]/div[11]/span[2] onclick targets=recent_comments
page /watch?v=3LF4yoWXYm5 states=4 transitions=3
  s0 depth=0 text=1194:ede43f1da1a5f7ea
  s1 depth=1 text=1227:027380467ab0f292
  s2 depth=1 text=1182:018e3308107d4075
  s3 depth=1 text=1169:60f09432f6013c82
  t 0->1 html[0]/body[1]/div[4]/div[0]/div[11]/span[1] onclick targets=decor,recent_comments
  t 0->2 html[0]/body[1]/div[4]/div[0]/div[11]/span[2] onclick targets=decor,recent_comments
  t 0->3 html[0]/body[1]/div[4]/div[0]/div[11]/span[3] onclick targets=decor,recent_comments
`
	if got := modelShape(graphs); got != want {
		t.Fatalf("model shape:\n%s\nwant\n%s", got, want)
	}
}

// TestFocusedCrawlPrunesIrrelevantStates: a StateFilter (§7.2.2) keeps
// the states it rejects in the model but does not expand them.
func TestFocusedCrawlPrunesIrrelevantStates(t *testing.T) {
	site, f := newSiteFetcher(40, 2)
	v := multiPageVideo(t, site, 5)
	url := webapp.WatchURL(v.ID)

	full := New(f, Options{UseHotNode: true})
	gFull, _, err := full.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	// Focus on nothing: every non-initial state is irrelevant, so only
	// states reachable from the initial state are found.
	focused := New(f, Options{UseHotNode: true, StateFilter: func(string) bool { return false }})
	gFoc, pmFoc, err := focused.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if gFoc.NumStates() >= gFull.NumStates() {
		t.Fatalf("focus did not reduce states: %d vs %d", gFoc.NumStates(), gFull.NumStates())
	}
	if pmFoc.StatesPruned == 0 {
		t.Fatalf("no states pruned")
	}
	// Accept-all filter behaves like no filter.
	all := New(f, Options{UseHotNode: true, StateFilter: func(string) bool { return true }})
	gAll, pmAll, err := all.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if gAll.NumStates() != gFull.NumStates() || pmAll.StatesPruned != 0 {
		t.Fatalf("accept-all filter changed the crawl")
	}
}

// TestHotNodeReducesNetworkCalls is the core chapter-4 result: with the
// cache on, repeated hot calls are served locally; without it, every
// event pays a network call.
func TestHotNodeReducesNetworkCalls(t *testing.T) {
	site, f := newSiteFetcher(30, 2)
	v := multiPageVideo(t, site, 5)
	url := webapp.WatchURL(v.ID)

	noCache := New(f, Options{UseHotNode: false})
	_, pmOff, err := noCache.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	withCache := New(f, Options{UseHotNode: true})
	_, pmOn, err := withCache.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	// Same states either way — the policy must not change the model.
	if pmOn.States != pmOff.States {
		t.Fatalf("hot node changed the model: %d vs %d states", pmOn.States, pmOff.States)
	}
	if pmOn.EventsTriggered != pmOff.EventsTriggered {
		t.Fatalf("hot node changed event count: %d vs %d", pmOn.EventsTriggered, pmOff.EventsTriggered)
	}
	// Without cache every send hits the network.
	if pmOff.NetworkCalls != pmOff.XHRSends {
		t.Fatalf("no-cache: network calls %d != sends %d", pmOff.NetworkCalls, pmOff.XHRSends)
	}
	// With cache, every distinct server content is fetched exactly once:
	// pages 2..N, page 1 once more via the prev event's XHR, and possibly
	// one page past the state cap — i.e. about States calls, never more
	// than States+1.
	if pmOn.NetworkCalls < pmOn.States-1 || pmOn.NetworkCalls > pmOn.States+1 {
		t.Fatalf("cache: network calls %d, want ~%d (one per distinct page)", pmOn.NetworkCalls, pmOn.States)
	}
	// The reduction factor must be substantial (the paper reports ~5x).
	if pmOn.NetworkCalls*3 > pmOff.NetworkCalls {
		t.Fatalf("cache reduction too weak: %d vs %d", pmOn.NetworkCalls, pmOff.NetworkCalls)
	}
	if pmOn.HotNodeHits != pmOn.XHRSends-pmOn.NetworkCalls {
		t.Fatalf("hits %d != sends %d - calls %d", pmOn.HotNodeHits, pmOn.XHRSends, pmOn.NetworkCalls)
	}
}

// TestHotNodeDetectsFunction drives a page directly with a cache hook
// installed and checks that the detected hot node is the function whose
// body opens the XMLHttpRequest — getUrl, exactly as in the thesis's
// Figure 4.3 stack example — keyed with its actual arguments.
func TestHotNodeDetectsFunction(t *testing.T) {
	site, f := newSiteFetcher(30, 2)
	v := multiPageVideo(t, site, 3)
	cache := NewHotNodeCache()
	page := browser.NewPage(f)
	page.XHR = cache.Hook()
	if err := page.Load(context.Background(), webapp.WatchURL(v.ID)); err != nil {
		t.Fatal(err)
	}
	if err := page.RunOnLoad(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Click "next": one miss, then repeat the identical call: one hit.
	var next browser.Event
	for _, e := range page.Events(nil) {
		if e.ID == "nextPage" {
			next = e
			break
		}
	}
	if next.Code == "" {
		t.Fatalf("no next event")
	}
	snap := page.Snapshot()
	if _, err := page.Trigger(context.Background(), next); err != nil {
		t.Fatal(err)
	}
	if cache.Misses != 1 || cache.Hits != 0 || cache.Len() != 1 {
		t.Fatalf("after first send: misses=%d hits=%d len=%d", cache.Misses, cache.Hits, cache.Len())
	}
	page.Restore(snap)
	if _, err := page.Trigger(context.Background(), next); err != nil {
		t.Fatal(err)
	}
	if cache.Hits != 1 {
		t.Fatalf("identical hot call not served from cache: hits=%d", cache.Hits)
	}
	hot := hotNodes(cache)
	if len(hot) != 1 || hot[0] != "getUrl" {
		t.Fatalf("hot nodes = %v, want [getUrl]", hot)
	}
}

// hotNodes returns the sorted names of the hot-node functions c detected.
func hotNodes(c *HotNodeCache) []string { return slices.Sorted(maps.Keys(c.hotNodes)) }

func TestTransitionAnnotations(t *testing.T) {
	site, f := newSiteFetcher(30, 2)
	v := multiPageVideo(t, site, 3)
	c := New(f, Options{UseHotNode: true})
	g, _, err := c.CrawlPage(context.Background(), webapp.WatchURL(v.ID))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range g.Transitions {
		if tr.Event != "onclick" {
			t.Fatalf("unexpected event type %q", tr.Event)
		}
		if tr.Code == "" || tr.SourcePath == "" {
			t.Fatalf("transition missing code/path: %+v", tr)
		}
		if tr.Action != "innerHTML" {
			t.Fatalf("action = %q", tr.Action)
		}
		// The comment box is the modified target.
		foundTarget := false
		for _, tg := range tr.Targets {
			if tg == "recent_comments" {
				foundTarget = true
			}
		}
		if !foundTarget {
			t.Fatalf("transition targets = %v, want recent_comments", tr.Targets)
		}
	}
}

func TestDiffTargets(t *testing.T) {
	for _, c := range []struct {
		name, before, after string
		want                []string
	}{
		{"no change", `<div id="a">x</div>`, `<div id="a">x</div>`, nil},
		{"canonically equal", `<div id="a">x  y</div>`, `<div id="a"> x y<!--c--></div> `, nil},
		{"text under an id", `<div id="a">x</div>`, `<div id="a">y</div>`, []string{"a"}},
		{"attribute of an id", `<div id="a">x</div>`, `<div id="a" class="k">x</div>`, []string{"a"}},
		{"nested ids report the shallowest",
			`<div id="outer"><p><span id="inner">x</span></p></div>`,
			`<div id="outer"><p><span id="inner">y</span></p></div>`, []string{"outer"}},
		{"unchanged siblings are pruned",
			`<div><div id="a">x</div><div id="b"><i id="c">s</i></div><div id="d">t</div></div>`,
			`<div><div id="a">y</div><div id="b"><i id="c">s</i></div><div id="d">t</div></div>`, []string{"a"}},
		{"two changes in document order",
			`<div id="a">x</div><p>-</p><div id="b">x</div>`,
			`<div id="a">y</div><p>-</p><div id="b">z</div>`, []string{"a", "b"}},
		{"change outside every id", `<p>x</p><div id="a">x</div>`, `<p>y</p><div id="a">x</div>`, nil},
		{"new id has no old self", `<div>x</div>`, `<div><b id="n">x</b></div>`, nil},
		{"new id inside an old one", `<div id="a">x</div>`, `<div id="a"><b id="n">x</b></div>`, []string{"a"}},
		{"matched by id, not position",
			`<div id="a">x</div><div id="b">y</div>`,
			`<p>new</p><div id="a">x</div><div id="b">z</div>`, []string{"b"}},
		{"old id gone", `<div id="a">x</div><div id="b">y</div>`, `<div id="b">y</div>`, nil},
	} {
		// The event that turns before into after: a snapshot's clone
		// (hashed, as Page.Snapshot leaves it) whose children are swapped.
		doc := html.Parse(c.before)
		dom.CanonicalHash(doc)
		doc = doc.Clone()
		doc.RemoveChildren()
		doc.AdoptChildren(html.Parse(c.after))
		if got := dom.Targets(doc, strings.Clone); !slices.Equal(got, c.want) {
			t.Errorf("%s: targets = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestReplayPathReconstructsState(t *testing.T) {
	site, f := newSiteFetcher(30, 2)
	v := multiPageVideo(t, site, 4)
	c := New(f, Options{UseHotNode: true})
	g, _, err := c.CrawlPage(context.Background(), webapp.WatchURL(v.ID))
	if err != nil {
		t.Fatal(err)
	}
	// Pick the deepest state and replay its event path on a fresh page.
	target := g.States[len(g.States)-1]
	path := g.PathTo(target.ID)
	if path == nil {
		t.Fatalf("no path to state %d", target.ID)
	}
	doc, err := ReplayPath(context.Background(), f, g.URL, path)
	if err != nil {
		t.Fatal(err)
	}
	if doc == nil {
		t.Fatal("nil reconstructed document")
	}
	if got := dom.CanonicalHash(doc); got != target.Hash {
		t.Fatalf("replayed state hash mismatch")
	}
}

func TestCrawlAllAggregates(t *testing.T) {
	site, f := newSiteFetcher(10, 3)
	urls := []string{
		webapp.WatchURL(site.Video(0).ID),
		webapp.WatchURL(site.Video(1).ID),
		webapp.WatchURL(site.Video(2).ID),
	}
	c := New(f, Options{UseHotNode: true})
	graphs, m, err := c.CrawlAll(context.Background(), urls)
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != 3 || m.Pages != 3 {
		t.Fatalf("graphs=%d pages=%d", len(graphs), m.Pages)
	}
	wantStates := 0
	for _, g := range graphs {
		wantStates += g.NumStates()
	}
	if m.States != wantStates {
		t.Fatalf("aggregate states %d != %d", m.States, wantStates)
	}
	if len(m.PerPage) != 3 {
		t.Fatalf("per-page metrics missing")
	}
}

func TestCrawlErrorPropagates(t *testing.T) {
	_, f := newSiteFetcher(5, 4)
	c := New(f, Options{})
	if _, _, err := c.CrawlPage(context.Background(), "/watch?v=unknown"); err == nil {
		t.Fatalf("crawl of missing page should fail")
	}
	// Default policy: the failed page is skipped and counted, not fatal.
	graphs, m, err := c.CrawlAll(context.Background(), []string{"/watch?v=unknown"})
	if err != nil {
		t.Fatalf("SkipAndCount CrawlAll returned error: %v", err)
	}
	if len(graphs) != 0 || m.PagesFailed != 1 {
		t.Fatalf("want 0 graphs and PagesFailed=1, got %d graphs, PagesFailed=%d", len(graphs), m.PagesFailed)
	}
	// FailFast: the first page error aborts the run.
	ff := New(f, Options{OnError: FailFast})
	if _, _, err := ff.CrawlAll(context.Background(), []string{"/watch?v=unknown"}); err == nil {
		t.Fatalf("FailFast CrawlAll should propagate failures")
	}
}

// TestCrawlAllSkipAndCount is the doc/behavior regression test: one URL
// out of three fails, the other two come back, and the failure is
// counted.
func TestCrawlAllSkipAndCount(t *testing.T) {
	site, f := newSiteFetcher(5, 4)
	boom := errors.New("connection reset")
	flaky := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		if rawurl == "/watch?v=dead" {
			return nil, boom
		}
		return f.Fetch(ctx, rawurl)
	})
	urls := []string{
		webapp.WatchURL(site.VideoID(0)),
		"/watch?v=dead",
		webapp.WatchURL(site.VideoID(1)),
	}
	c := New(flaky, Options{})
	graphs, m, err := c.CrawlAll(context.Background(), urls)
	if err != nil {
		t.Fatalf("CrawlAll: %v", err)
	}
	if len(graphs) != 2 {
		t.Fatalf("want 2 graphs, got %d", len(graphs))
	}
	if m.Pages != 2 || m.PagesFailed != 1 {
		t.Fatalf("want Pages=2 PagesFailed=1, got Pages=%d PagesFailed=%d", m.Pages, m.PagesFailed)
	}
	if graphs[0].URL != urls[0] || graphs[1].URL != urls[2] {
		t.Fatalf("surviving graphs out of order: %s, %s", graphs[0].URL, graphs[1].URL)
	}
}

func TestCrawlTimeMeasuredOnVirtualClock(t *testing.T) {
	site, _ := newSiteFetcher(30, 2)
	v := multiPageVideo(t, site, 3)
	clock := &fetch.VirtualClock{}
	inst := fetch.NewInstrumented(&fetch.HandlerFetcher{Handler: site.Handler()}, clock, 20*time.Millisecond, 0)
	c := New(inst, Options{UseHotNode: true, Clock: clock})
	_, pm, err := c.CrawlPage(context.Background(), webapp.WatchURL(v.ID))
	if err != nil {
		t.Fatal(err)
	}
	if pm.NetworkTime <= 0 || pm.CrawlTime < pm.NetworkTime {
		t.Fatalf("times wrong: crawl=%v network=%v", pm.CrawlTime, pm.NetworkTime)
	}
	// Network time = 20ms per real fetch: 1 page load + NetworkCalls XHR.
	wantNet := time.Duration(pm.NetworkCalls+1) * 20 * time.Millisecond
	if pm.NetworkTime != wantNet {
		t.Fatalf("network time %v, want %v", pm.NetworkTime, wantNet)
	}
}

func TestEventCountsScaleWithStates(t *testing.T) {
	// Sanity for the Table 7.1 shape: events ≫ states.
	site, f := newSiteFetcher(20, 5)
	c := New(f, Options{UseHotNode: true})
	var urls []string
	for i := 0; i < 10; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	_, m, err := c.CrawlAll(context.Background(), urls)
	if err != nil {
		t.Fatal(err)
	}
	if m.EventsTriggered <= m.States {
		t.Fatalf("events (%d) should exceed states (%d)", m.EventsTriggered, m.States)
	}
}

func TestCrawlAllCancelMidway(t *testing.T) {
	// Canceling the context mid-batch must stop the run promptly with
	// the already-crawled graphs intact.
	site, f := newSiteFetcher(30, 7)
	var urls []string
	for i := 0; i < 25; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var watchFetches int
	counting := fetch.Func(func(c context.Context, rawurl string) (*fetch.Response, error) {
		if strings.HasPrefix(rawurl, "/watch?v=") {
			watchFetches++
			if watchFetches == 6 {
				cancel()
			}
		}
		return f.Fetch(c, rawurl)
	})
	c := New(counting, Options{MaxStates: 3})
	graphs, _, err := c.CrawlAll(ctx, urls)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(graphs) == 0 || len(graphs) >= len(urls) {
		t.Fatalf("want partial graphs, got %d of %d", len(graphs), len(urls))
	}
	for i, g := range graphs {
		if g == nil || g.NumStates() == 0 {
			t.Fatalf("graph %d not intact", i)
		}
		if g.URL != urls[i] {
			t.Fatalf("graph %d url = %s, want %s", i, g.URL, urls[i])
		}
	}
}

func TestJSStepBudgetPreemptsInfiniteLoop(t *testing.T) {
	// A handler that never terminates is cut off by the per-dispatch JS
	// step budget, counted as a handler error, and the crawl still
	// completes — the page is at fault, not the crawl.
	page := `<html><body><div id="spin" onclick="while (true) { var i = 1; }">spin</div></body></html>`
	looping := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		return &fetch.Response{Status: 200, Body: []byte(page), ContentType: "text/html"}, nil
	})
	c := New(looping, Options{JSStepBudget: 5000, MaxStates: 3})
	done := make(chan struct{})
	var (
		g   *model.Graph
		m   PageMetrics
		err error
	)
	go func() {
		defer close(done)
		g, m, err = c.CrawlPage(context.Background(), "/loop")
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("step budget did not preempt the infinite loop")
	}
	if err != nil {
		t.Fatalf("preempted handler should not fail the page: %v", err)
	}
	if g == nil || g.NumStates() == 0 {
		t.Fatalf("page model missing")
	}
	if m.HandlerErrors == 0 {
		t.Fatalf("preempted handler should count as a handler error")
	}
}

// TestUnparsableHandlerCountsPerDispatch: a handler whose source does
// not parse is a handler error every time it is dispatched — once per
// expanded state — whether or not its source was seen before.
func TestUnparsableHandlerCountsPerDispatch(t *testing.T) {
	page := `<html><body>
<div id="broken" onclick="if (">broken</div>
<div id="more" onclick="var n = this.innerHTML.length; if (n < 7) { this.innerHTML += 'x'; }">more</div>
</body></html>`
	f := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		return &fetch.Response{Status: 200, Body: []byte(page), ContentType: "text/html"}, nil
	})
	g, m, err := New(f, Options{MaxStates: 10}).CrawlPage(context.Background(), "/broken")
	if err != nil {
		t.Fatal(err)
	}
	// "more", "morex", "morexx", "morexxx": four states, each expanded.
	if g.NumStates() != 4 {
		t.Fatalf("states = %d, want 4", g.NumStates())
	}
	if m.EventsTriggered != 8 || m.HandlerErrors != 4 {
		t.Fatalf("events %d, handler errors %d; want 8 and 4", m.EventsTriggered, m.HandlerErrors)
	}
}

// TestCallOutsideContractIsAHandlerError: a handler that calls a method
// outside the interpreter's library ([].push) fails with a TypeError. The
// crawl counts one handler error for it and keeps every state the page's
// other events reach: those of the page whose handler appends by index,
// as the contract allows, less the one state that handler adds.
func TestCallOutsideContractIsAHandlerError(t *testing.T) {
	crawl := func(appendCode string) (*model.Graph, PageMetrics) {
		page := `<html><body>
<div id="out"><span id="add" onclick="var a = [1]; ` + appendCode + ` document.getElementById('out').innerHTML = 'added ' + a;">add</span></div>
<div id="show" onclick="document.getElementById('out').innerHTML = 'shown';">show</div>
</body></html>`
		f := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
			return &fetch.Response{Status: 200, Body: []byte(page), ContentType: "text/html"}, nil
		})
		g, m, err := New(f, Options{MaxStates: 10}).CrawlPage(context.Background(), "/contract")
		if err != nil {
			t.Fatal(err)
		}
		return g, m
	}
	g, m := crawl(`a.push(2);`)
	ok, okm := crawl(`a[a.length] = 2;`)
	if m.HandlerErrors != okm.HandlerErrors+1 {
		t.Fatalf("handler errors %d, want %d + 1", m.HandlerErrors, okm.HandlerErrors)
	}
	var texts, okTexts []string
	for _, s := range g.States {
		texts = append(texts, s.Text)
	}
	for _, s := range ok.States {
		if s.Text != "added 1,2 show" {
			okTexts = append(okTexts, s.Text)
		}
	}
	if !slices.Equal(texts, okTexts) || len(texts) != 2 || len(ok.States) != 3 {
		t.Fatalf("states %q, want %q (2 states)", texts, okTexts)
	}
}

// TestKeptGraphReleasesFetchedBodies: a crawled graph keeps its own
// copies of the strings its transitions hold, not substrings of the
// bodies the crawl fetched. The page's second event is declared inside
// an XHR fragment that carries 4 MiB of padding; once the crawl is done
// and only the graph is kept, the padding must be collectable.
func TestKeptGraphReleasesFetchedBodies(t *testing.T) {
	const pad = 4 << 20
	page := `<html><head><script>
function load(p) {
	var req = new XMLHttpRequest();
	req.open("GET", "/frag?p=" + p, false);
	req.send(null);
	document.getElementById("box").innerHTML = req.responseText;
}
</script></head><body><div id="box"><span id="go1" onclick="load(1)">start</span></div></body></html>`
	f := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		body := page
		switch {
		case strings.HasSuffix(rawurl, "p=1"):
			body = `<span id="go2" onclick="load(2)">page one</span><!--` + strings.Repeat("x", pad) + `-->`
		case strings.HasSuffix(rawurl, "p=2"):
			body = `<span>page two</span>`
		}
		return &fetch.Response{Status: 200, Body: []byte(body), ContentType: "text/html"}, nil
	})
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	g, _, err := New(f, Options{}).CrawlPage(context.Background(), "/pad")
	if err != nil {
		t.Fatal(err)
	}
	after := heap()
	if g.NumStates() != 3 || len(g.Transitions) != 2 || g.Transitions[1].Code != "load(2)" {
		t.Fatalf("crawl found %d states, transitions %+v", g.NumStates(), g.Transitions)
	}
	if after > before && after-before >= 1<<20 {
		t.Fatalf("the kept graph holds %d KiB of heap, want < 1 MiB: it pins a fetched body", (after-before)>>10)
	}
	runtime.KeepAlive(g)
}
