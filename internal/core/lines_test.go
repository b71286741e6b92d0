package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/webapp"
)

// TestFrontierCrawlDeterministic is the determinism suite for the
// shared URL list: a 4-line crawl crawls exactly the state sets of a
// 1-line baseline, and repeating the run reproduces the assembled
// result (PerPage order included), even though the lines race for
// positions in real time.
func TestFrontierCrawlDeterministic(t *testing.T) {
	site, fetcher := newSiteFetcher(9, 42)
	var urls []string
	for i := 0; i < 9; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	run := func(lines int) *MPResult {
		mp := &MPCrawler{
			NewCrawler: func() *Crawler {
				return New(fetcher, Options{UseHotNode: true, MaxStates: 3})
			},
			ProcLines: lines,
			URLs:      urls,
		}
		res := mp.Run(context.Background())
		if err := res.Err; err != nil {
			t.Fatalf("%d-line crawl: %v", lines, err)
		}
		return res
	}

	base := run(1)
	multi := run(4)
	requireSameStateSets(t, stateSets(base.Graphs), stateSets(multi.Graphs))

	// The assembled result is deterministic run-to-run: the same PerPage
	// row order, regardless of which line crawled which page.
	again := run(4)
	if len(multi.Metrics.PerPage) != len(again.Metrics.PerPage) {
		t.Fatalf("PerPage rows differ: %d vs %d",
			len(multi.Metrics.PerPage), len(again.Metrics.PerPage))
	}
	for i := range multi.Metrics.PerPage {
		if multi.Metrics.PerPage[i].URL != again.Metrics.PerPage[i].URL {
			t.Fatalf("PerPage[%d] = %s vs %s: assembled order is not deterministic",
				i, multi.Metrics.PerPage[i].URL, again.Metrics.PerPage[i].URL)
		}
	}
	requireSameStateSets(t, stateSets(base.Graphs), stateSets(again.Graphs))
}

// TestSharedListBeatsStaticPartitions pins the point of the shared URL
// list: on a skewed workload — one partition of pathologically slow
// pages — static one-line-per-partition crawling serves all three slow
// pages on one line, 3×slowTime end to end, while its sibling idles.
// Taking the next position from one cursor, the idle line must take
// slow pages over: the assertion is on where the slow pages were
// served, not on two wall clocks (which a loaded test host can order
// either way).
func TestSharedListBeatsStaticPartitions(t *testing.T) {
	site, inner := newSiteFetcher(8, 5)
	var urls []string
	for i := 0; i < 6; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	// The first three pages are the pathological ones: every fetch of them
	// sleeps slowTime. The rest answer almost instantly.
	slow := map[string]bool{urls[0]: true, urls[1]: true, urls[2]: true}
	const slowTime = 80 * time.Millisecond

	// Every process line builds its crawler once, so a fetcher made in
	// the factory knows which line it serves.
	var (
		mu          sync.Mutex
		slowPerLine []int
	)
	lineFetcher := func() fetch.Fetcher {
		mu.Lock()
		line := len(slowPerLine)
		slowPerLine = append(slowPerLine, 0)
		mu.Unlock()
		return fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
			if slow[rawurl] {
				mu.Lock()
				slowPerLine[line]++
				mu.Unlock()
				select {
				case <-time.After(slowTime):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			} else {
				time.Sleep(time.Millisecond)
			}
			return inner.Fetch(ctx, rawurl)
		})
	}
	mp := &MPCrawler{
		NewCrawler: func() *Crawler { return New(lineFetcher(), Options{UseHotNode: true, MaxStates: 2}) },
		ProcLines:  2,
		URLs:       urls,
	}
	start := time.Now()
	res := mp.Run(obs.With(context.Background(), obs.New(obs.NewRegistry(), nil)))
	if err := res.Err; err != nil {
		t.Fatal(err)
	}
	if got := len(res.Graphs); got != len(urls) {
		t.Fatalf("shared-list crawl produced %d graphs, want %d", got, len(urls))
	}

	// A line serves a slow page in slowTime and its share of the fast
	// ones in milliseconds, so the line that did not draw the first slow
	// page is free again long before the second one is due.
	served, most := 0, 0
	for _, n := range slowPerLine {
		if n > 0 {
			served++
		}
		most = max(most, n)
	}
	if served < 2 || most >= len(slow) {
		t.Errorf("slow pages per line %v: want them spread over both lines, as a static split cannot", slowPerLine)
	}
	t.Logf("slow pages per line %v, %v (static split: %v)", slowPerLine, time.Since(start), 3*slowTime)
}

// TestOneLineCrawlsInURLOrder: a single process line loads the pages in
// the order of URLs, each distinct URL once, under its first position.
func TestOneLineCrawlsInURLOrder(t *testing.T) {
	urls := []string{"http://site/c", "http://site/a", "http://site/c", "http://site/e", "http://site/b", "http://site/a"}
	var loaded []string
	f := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		loaded = append(loaded, rawurl)
		body := "<html><body><p>page " + rawurl + "</p></body></html>"
		return &fetch.Response{Status: 200, Body: []byte(body), ContentType: "text/html"}, nil
	})
	res := (&MPCrawler{
		NewCrawler: func() *Crawler { return New(f, Options{}) },
		ProcLines:  1,
		URLs:       urls,
	}).Run(context.Background())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want := []string{"http://site/c", "http://site/a", "http://site/e", "http://site/b"}
	if fmt.Sprint(loaded) != fmt.Sprint(want) {
		t.Fatalf("pages loaded in order %v, want %v", loaded, want)
	}
	for i, g := range res.Graphs {
		if g.URL != want[i] {
			t.Fatalf("graph %d is %s, want %s", i, g.URL, want[i])
		}
	}
}

// frozenClock never advances and sleeps not at all, so an Instrumented
// on it charges each fetch exactly its simulated delay.
type frozenClock struct{}

func (frozenClock) Now() time.Time { return time.Unix(0, 0) }

func (frozenClock) Sleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// TestPageFetchCostAttribution: each page is charged its own fetches
// alone, however many lines share the fetcher. Over a crawl, the pages'
// NetworkTime sums to the requests the shared Instrumented served times
// its fixed delay, and their Retries to the retries the retry layer made
// — the registry's counts, which see every fetch once.
func TestPageFetchCostAttribution(t *testing.T) {
	const base = time.Millisecond
	site := webapp.New(webapp.DefaultConfig(30, 11))
	var urls []string
	for i := 0; i < 24; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	// Every third page load fails twice before it goes through.
	scripts := map[string][]fetch.FaultOp{}
	for i := 0; i < len(urls); i += 3 {
		scripts[urls[i]] = []fetch.FaultOp{fetch.FaultError, fetch.FaultTruncate}
	}
	for _, lines := range []int{1, 3} {
		for _, faulty := range []bool{false, true} {
			t.Run(fmt.Sprintf("lines=%d/faults=%v", lines, faulty), func(t *testing.T) {
				reg := obs.NewRegistry()
				ctx := obs.With(context.Background(), obs.New(reg, nil))
				var f fetch.Fetcher = fetch.NewInstrumented(&fetch.HandlerFetcher{Handler: site.Handler()}, frozenClock{}, base, 0)
				opts := Options{UseHotNode: true, MaxStates: 4, Clock: frozenClock{}}
				if faulty {
					f = fetch.NewFaultFetcher(f, fetch.FaultConfig{Scripts: scripts}, frozenClock{})
					opts.RetryPolicy = &fetch.RetryPolicy{MaxAttempts: 4}
				}
				res := (&MPCrawler{
					NewCrawler: func() *Crawler { return New(f, opts) },
					ProcLines:  lines,
					URLs:       urls,
				}).Run(ctx)
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				var net time.Duration
				var retries int
				for _, pm := range res.Metrics.PerPage {
					net += pm.NetworkTime
					retries += pm.Retries
				}
				requests := reg.Counter("fetch.requests").Value()
				if want := time.Duration(requests) * base; net != want {
					t.Errorf("pages' NetworkTime sums to %v, want %d requests × %v = %v", net, requests, base, want)
				}
				if want := reg.Counter("fetch.retry.retries").Value(); int64(retries) != want {
					t.Errorf("pages' Retries sum to %d, want fetch.retry.retries = %d", retries, want)
				}
				if faulty && retries != 2*len(scripts) {
					t.Errorf("Retries = %d, want %d: the scripted faults did not all fire", retries, 2*len(scripts))
				}
			})
		}
	}
}
