package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/webapp"
)

// TestFrontierCrawlDeterministic is the determinism suite for the
// work-stealing frontier: a seeded 4-line crawl admits and crawls
// exactly the state sets of a 1-line baseline, and repeating the seeded
// run reproduces the assembled result byte-for-byte (PerPage order
// included), even though the lines race for items in real time.
func TestFrontierCrawlDeterministic(t *testing.T) {
	site, fetcher := newSiteFetcher(9, 42)
	var urls []string
	for i := 0; i < 9; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	run := func(lines int, seed int64) *MPResult {
		mp := &MPCrawler{
			NewCrawler: func() *Crawler {
				return New(fetcher, Options{UseHotNode: true, MaxStates: 3})
			},
			ProcLines:    lines,
			URLs:         urls,
			FrontierSeed: seed,
		}
		res := mp.Run(context.Background())
		if err := res.Err; err != nil {
			t.Fatalf("%d-line crawl: %v", lines, err)
		}
		return res
	}

	base := run(1, 7)
	multi := run(4, 7)
	requireSameStateSets(t, stateSets(base.Graphs), stateSets(multi.Graphs))

	// The assembled result is deterministic run-to-run: same seed, same
	// PerPage row order, regardless of which line crawled which page.
	again := run(4, 7)
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
	// And a different seed changes (at most) the schedule, never the
	// crawled universe.
	other := run(4, 99)
	requireSameStateSets(t, stateSets(base.Graphs), stateSets(other.Graphs))
}

// TestWorkStealingBeatsStaticPartitions pins the point of the frontier:
// on a skewed workload — one partition of pathologically slow pages —
// static one-line-per-partition crawling serves all three slow pages on
// one line, 3×slowTime end to end, while its sibling idles. Under the
// frontier the idle line must take slow pages over: the assertion is on
// where the slow pages were served, not on two wall clocks (which a
// loaded test host can order either way).
func TestWorkStealingBeatsStaticPartitions(t *testing.T) {
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
		t.Fatalf("frontier crawl produced %d graphs, want %d", got, len(urls))
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
