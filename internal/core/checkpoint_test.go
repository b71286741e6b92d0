package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ajaxcrawl/internal/checkpoint"
	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/webapp"
)

// TestResumeMatchesUninterruptedCrawl is the headline crash-tolerance
// property: kill a checkpointed crawl after k pages, resume it from the
// journal, and the final state set is byte-identical to an uninterrupted
// run — with the k journaled pages replayed, never re-fetched.
func TestResumeMatchesUninterruptedCrawl(t *testing.T) {
	site, _ := newSiteFetcher(10, 2008)
	var urls []string
	for i := 0; i < 6; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	ctx := context.Background()
	opts := Options{UseHotNode: true, MaxStates: 4}

	baseGraphs, baseMetrics, err := New(&fetch.HandlerFetcher{Handler: site.Handler()}, opts).CrawlAll(ctx, urls)
	if err != nil {
		t.Fatalf("baseline crawl: %v", err)
	}
	base := stateSets(baseGraphs)

	for _, k := range []int{1, 3, 5} {
		k := k
		t.Run(fmt.Sprintf("cancel-after-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			var mu sync.Mutex
			fetches := map[string]int{}
			inner := &fetch.HandlerFetcher{Handler: site.Handler()}
			counting := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
				mu.Lock()
				fetches[rawurl]++
				mu.Unlock()
				return inner.Fetch(ctx, rawurl)
			})

			// Interrupted run: the OnPage hook scripts the "crash" by
			// canceling the context the moment page k completes. The page
			// is journaled before the cancellation is observed (CrawlAll
			// checks the context between pages), so the journal holds
			// exactly k pages.
			cp, err := OpenJournalCheckpointer(ctx, dir, false)
			if err != nil {
				t.Fatal(err)
			}
			runCtx, cancel := context.WithCancel(ctx)
			defer cancel()
			o := opts
			o.Checkpoint = cp
			pages := 0
			o.OnPage = func(PageMetrics) {
				pages++
				if pages == k {
					cancel()
				}
			}
			graphs1, m1, err := New(counting, o).CrawlAll(runCtx, urls)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted crawl returned %v, want context.Canceled", err)
			}
			if len(graphs1) != k || m1.Pages != k {
				t.Fatalf("interrupted crawl completed %d pages (metrics %d), want %d", len(graphs1), m1.Pages, k)
			}
			if err := cp.Close(); err != nil {
				t.Fatalf("close journal: %v", err)
			}
			mu.Lock()
			already := make(map[string]int, k)
			for _, u := range urls[:k] {
				already[u] = fetches[u]
			}
			mu.Unlock()

			// Resumed run over the same URL list.
			cp2, err := OpenJournalCheckpointer(ctx, dir, true)
			if err != nil {
				t.Fatal(err)
			}
			defer cp2.Close()
			o2 := opts
			o2.Checkpoint = cp2
			graphs2, m2, err := New(counting, o2).CrawlAll(ctx, urls)
			if err != nil {
				t.Fatalf("resumed crawl: %v", err)
			}
			if m2.PagesResumed != k {
				t.Errorf("PagesResumed = %d, want %d", m2.PagesResumed, k)
			}
			if m2.Pages != len(urls) {
				t.Errorf("Pages = %d, want %d", m2.Pages, len(urls))
			}
			// Journaled metrics fold into the aggregate, so the resumed
			// run's totals match the uninterrupted baseline exactly.
			if m2.States != baseMetrics.States || m2.Transitions != baseMetrics.Transitions ||
				m2.EventsTriggered != baseMetrics.EventsTriggered {
				t.Errorf("resumed metrics states/transitions/events = %d/%d/%d, baseline %d/%d/%d",
					m2.States, m2.Transitions, m2.EventsTriggered,
					baseMetrics.States, baseMetrics.Transitions, baseMetrics.EventsTriggered)
			}
			requireSameStateSets(t, base, stateSets(graphs2))

			// The k journaled pages must never hit the network again.
			mu.Lock()
			for _, u := range urls[:k] {
				if fetches[u] != already[u] {
					t.Errorf("resumed page %s was re-fetched (%d -> %d)", u, already[u], fetches[u])
				}
			}
			mu.Unlock()
		})
	}
}

// requireSameStateSets fails the test unless both crawls discovered
// exactly the same state hashes for exactly the same URLs.
func requireSameStateSets(t *testing.T, want, got map[string][]dom.Hash) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("crawl produced %d graphs, want %d", len(got), len(want))
	}
	for url, w := range want {
		g, ok := got[url]
		if !ok {
			t.Errorf("crawl lost page %s", url)
			continue
		}
		if len(g) != len(w) {
			t.Errorf("%s: %d states, want %d", url, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("%s: state hash set diverges at %d", url, i)
				break
			}
		}
	}
}

// TestMPCrawlerResumeConvergence drives the same property through the
// parallel crawler: cancel a checkpointed multi-line run mid-crawl,
// rerun it in resume mode, and the merged result matches a run that was
// never interrupted.
func TestMPCrawlerResumeConvergence(t *testing.T) {
	site, _ := newSiteFetcher(12, 9)
	var urls []string
	for i := 0; i < 12; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	baseline := (&MPCrawler{
		NewCrawler: func() *Crawler {
			return New(&fetch.HandlerFetcher{Handler: site.Handler()}, Options{UseHotNode: true, MaxStates: 3})
		},
		ProcLines: 2,
		URLs:      urls,
	}).Run(context.Background())
	if err := baseline.Err; err != nil {
		t.Fatalf("baseline: %v", err)
	}
	base := stateSets(baseline.Graphs)

	ckRoot := t.TempDir()

	// Run 1: cancel once 5 pages have completed across all process
	// lines — a crawl killed mid-list, with per-line journals on disk.
	cps, err := OpenCrawlCheckpoints(context.Background(), ckRoot, false)
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var crawled atomic.Int32
	mp := &MPCrawler{
		NewCrawler: func() *Crawler {
			o := Options{UseHotNode: true, MaxStates: 3}
			o.OnPage = func(PageMetrics) {
				if crawled.Add(1) == 5 {
					cancel()
				}
			}
			return New(&fetch.HandlerFetcher{Handler: site.Handler()}, o)
		},
		ProcLines:   2,
		URLs:        urls,
		Checkpoints: cps,
	}
	partial := mp.Run(runCtx)
	if err := cps.Close(); err != nil {
		t.Fatalf("close checkpoints: %v", err)
	}
	if got := len(partial.Graphs); got >= len(urls) {
		t.Fatalf("interrupted run crawled all %d pages — the cancellation never bit", got)
	}

	// Run 2: resume, on a different line count than run 1 wrote — the
	// union read over recovered line journals must still replay every
	// journaled page.
	cps2, err := OpenCrawlCheckpoints(context.Background(), ckRoot, true)
	if err != nil {
		t.Fatal(err)
	}
	journaled := cps2.CompletedPages()
	if journaled == 0 {
		t.Fatal("run 1 journaled no pages — the resume test is vacuous")
	}
	mp2 := &MPCrawler{
		NewCrawler: func() *Crawler {
			return New(&fetch.HandlerFetcher{Handler: site.Handler()}, Options{UseHotNode: true, MaxStates: 3})
		},
		ProcLines:   3,
		URLs:        urls,
		Checkpoints: cps2,
	}
	res := mp2.Run(context.Background())
	if err := res.Err; err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := cps2.Close(); err != nil {
		t.Fatalf("close resumed checkpoints: %v", err)
	}
	if res.Metrics.Pages != len(urls) {
		t.Fatalf("resumed run has %d pages, want %d", res.Metrics.Pages, len(urls))
	}
	if res.Metrics.PagesResumed != journaled {
		t.Errorf("PagesResumed = %d, want every journaled page (%d) replayed", res.Metrics.PagesResumed, journaled)
	}
	requireSameStateSets(t, base, stateSets(res.Graphs))
}

// TestPartitionPanicRecovered pins the panic boundary: a crawler panic
// mid-page becomes that page's error, never a crashed process line. The
// line rebuilds its crawler and crawls its next page.
func TestPartitionPanicRecovered(t *testing.T) {
	site, _ := newSiteFetcher(6, 11)
	var urls []string
	for i := 0; i < 4; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	target := urls[1]
	inner := &fetch.HandlerFetcher{Handler: site.Handler()}
	var once atomic.Bool
	panicOnce := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		if rawurl == target && once.CompareAndSwap(false, true) {
			panic("hostile page blew up the crawler")
		}
		return inner.Fetch(ctx, rawurl)
	})

	// One line, so the pages after the target run on the rebuilt crawler.
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, nil))
	var builds atomic.Int32
	mp := &MPCrawler{
		NewCrawler: func() *Crawler {
			builds.Add(1)
			return New(panicOnce, Options{MaxStates: 2})
		},
		ProcLines: 1,
		URLs:      urls,
	}
	res := mp.Run(ctx)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "panic") || !strings.Contains(res.Err.Error(), target) {
		t.Fatalf("Err = %v, want the target page's recovered panic", res.Err)
	}
	if n := builds.Load(); n != 2 {
		t.Errorf("NewCrawler ran %d times, want 2 (the line's crawler and its rebuild)", n)
	}
	var got []string
	for _, g := range res.Graphs {
		got = append(got, g.URL)
	}
	if want := []string{urls[0], urls[2], urls[3]}; !slices.Equal(got, want) {
		t.Errorf("crawled %v, want %v: the line's pages after the panic must crawl", got, want)
	}
	if n := reg.Snapshot().Counters["crawl.line.panics"]; n != 1 {
		t.Errorf("crawl.line.panics = %d, want 1", n)
	}
}

// TestPageTimeoutSkipsWedgedPage wedges one page's fetch until its
// context ends: Options.PageTimeout cuts the page off, it is counted in
// PagesFailed under SkipAndCount, and the next page on the same line
// crawls.
func TestPageTimeoutSkipsWedgedPage(t *testing.T) {
	site, _ := newSiteFetcher(4, 7)
	urls := []string{webapp.WatchURL(site.Video(0).ID), webapp.WatchURL(site.Video(1).ID)}
	inner := &fetch.HandlerFetcher{Handler: site.Handler()}
	fetcher := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		if rawurl == urls[0] {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return inner.Fetch(ctx, rawurl)
	})
	mp := &MPCrawler{
		NewCrawler: func() *Crawler {
			return New(fetcher, Options{MaxStates: 2, PageTimeout: 50 * time.Millisecond})
		},
		ProcLines: 1,
		URLs:      urls,
	}
	res := mp.Run(context.Background())
	if res.Err != nil {
		t.Fatalf("Err = %v, want a wedged page skipped and counted", res.Err)
	}
	if res.Metrics.PagesFailed != 1 {
		t.Errorf("PagesFailed = %d, want 1 (the wedged page)", res.Metrics.PagesFailed)
	}
	if len(res.Graphs) != 1 || res.Graphs[0].URL != urls[1] {
		t.Errorf("crawled %d graphs, want only the page after the wedged one", len(res.Graphs))
	}
}

// OpenJournalCheckpointer opens (resume=true) or resets (resume=false)
// the checkpoint journal in dir and adapts it to the crawler's
// Checkpointer hook: the one line of a CrawlCheckpoints over that one
// journal. The context supplies telemetry for the journal's
// checkpoint.{write,compact,recover} spans and journal-byte counters.
// A recovered page whose metrics payload does not decode fails the open.
func OpenJournalCheckpointer(ctx context.Context, dir string, resume bool) (Checkpointer, error) {
	j, err := openJournal(ctx, dir, checkpoint.Options{Reset: !resume})
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", dir, err)
	}
	c := &CrawlCheckpoints{ctx: ctx, dir: dir, journals: map[string]*checkpoint.Journal{dir: j}}
	return &lineCheckpointer{c: c, j: j}, nil
}
