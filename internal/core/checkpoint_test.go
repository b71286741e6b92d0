package core

import (
	"context"
	"errors"
	"fmt"
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
	// lines — a crawl killed mid-frontier, with per-line journals and
	// the frontier snapshot on disk.
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
	// journaled page, and the frontier snapshot must be recovered.
	cps2, err := OpenCrawlCheckpoints(context.Background(), ckRoot, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cps2.RecoveredFrontier()); got != len(urls) {
		t.Errorf("recovered frontier has %d URLs, want %d", got, len(urls))
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

// TestSupervisorRestartsFailedPartition pins the supervisor contract: a
// page that fails transiently is requeued to the frontier (metered in
// frontier.requeues) and succeeds on its next attempt; a page that keeps
// failing is reported after MaxRestarts requeues, not retried forever.
func TestSupervisorRestartsFailedPartition(t *testing.T) {
	site, _ := newSiteFetcher(6, 11)
	var urls []string
	for i := 0; i < 4; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	target := urls[2]
	inner := &fetch.HandlerFetcher{Handler: site.Handler()}

	// Fail-once: the target's first attempt dies under FailFast, its
	// second succeeds.
	var tripped atomic.Bool
	failOnce := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		if rawurl == target && tripped.CompareAndSwap(false, true) {
			return nil, fmt.Errorf("fetch %s: connection reset", rawurl)
		}
		return inner.Fetch(ctx, rawurl)
	})
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, nil))
	mp := &MPCrawler{
		NewCrawler:  func() *Crawler { return New(failOnce, Options{OnError: FailFast, MaxStates: 2}) },
		ProcLines:   2,
		URLs:        urls,
		MaxRestarts: 2,
	}
	res := mp.Run(ctx)
	if err := res.Err; err != nil {
		t.Fatalf("supervisor did not recover the fail-once page: %v", err)
	}
	if res.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", res.Restarts)
	}
	if got := len(res.Graphs); got != 4 {
		t.Errorf("crawled %d pages after restart, want 4", got)
	}
	if n := reg.Snapshot().Counters["frontier.requeues"]; n != 1 {
		t.Errorf("frontier.requeues = %d, want 1", n)
	}

	// Always-failing: restarts are bounded.
	alwaysBad := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		if rawurl == target {
			return nil, fmt.Errorf("fetch %s: connection reset", rawurl)
		}
		return inner.Fetch(ctx, rawurl)
	})
	reg2 := obs.NewRegistry()
	ctx2 := obs.With(context.Background(), obs.New(reg2, nil))
	mp.NewCrawler = func() *Crawler { return New(alwaysBad, Options{OnError: FailFast, MaxStates: 2}) }
	res2 := mp.Run(ctx2)
	if res2.Err == nil || !strings.Contains(res2.Err.Error(), target) {
		t.Fatalf("Err = %v, want the always-failing page's error", res2.Err)
	}
	if res2.Restarts != 2 {
		t.Errorf("Restarts = %d, want MaxRestarts=2", res2.Restarts)
	}
	if n := reg2.Snapshot().Counters["frontier.requeues"]; n != 2 {
		t.Errorf("frontier.requeues = %d, want 2", n)
	}
	// The healthy sibling pages are untouched by the failures.
	if got := len(res2.Graphs); got != 3 {
		t.Errorf("healthy pages crawled: %d, want 3", got)
	}
}

// TestPartitionPanicRecovered pins the panic boundary: a crawler panic
// mid-page becomes that page's error (and a restartable failure), never
// a crashed process line.
func TestPartitionPanicRecovered(t *testing.T) {
	site, _ := newSiteFetcher(6, 11)
	var urls []string
	for i := 0; i < 4; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	target := urls[2]
	inner := &fetch.HandlerFetcher{Handler: site.Handler()}
	var panicked atomic.Int32
	panicky := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		if rawurl == target {
			panicked.Add(1)
			panic("hostile page blew up the crawler")
		}
		return inner.Fetch(ctx, rawurl)
	})

	// Without restarts the panic surfaces as the page's error while its
	// siblings complete.
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, nil))
	mp := &MPCrawler{
		NewCrawler: func() *Crawler { return New(panicky, Options{MaxStates: 2}) },
		ProcLines:  2,
		URLs:       urls,
	}
	res := mp.Run(ctx)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "panic") || !strings.Contains(res.Err.Error(), target) {
		t.Fatalf("Err = %v, want the target page's recovered panic", res.Err)
	}
	if got := len(res.Graphs); got != 3 {
		t.Errorf("healthy pages crawled: %d, want 3", got)
	}
	if n := reg.Snapshot().Counters["crawl.line.panics"]; n != 1 {
		t.Errorf("crawl.line.panics = %d, want 1", n)
	}

	// With restarts a panic-once page recovers like any failure.
	panicked.Store(0)
	var once atomic.Bool
	panicOnce := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		if rawurl == target && once.CompareAndSwap(false, true) {
			panic("transient panic")
		}
		return inner.Fetch(ctx, rawurl)
	})
	mp.NewCrawler = func() *Crawler { return New(panicOnce, Options{MaxStates: 2}) }
	mp.MaxRestarts = 1
	res2 := mp.Run(obs.With(context.Background(), obs.New(obs.NewRegistry(), nil)))
	if err := res2.Err; err != nil {
		t.Fatalf("panic-once page did not recover: %v", err)
	}
	if res2.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", res2.Restarts)
	}
}

// TestWatchdogRestartsStuckPartition wedges a page's first attempt
// (a fetch that advances the virtual clock past StuckTimeout and then
// blocks forever) and checks the watchdog cancels it with
// ErrLineStuck and the supervisor's restart completes the crawl.
func TestWatchdogRestartsStuckPartition(t *testing.T) {
	site, _ := newSiteFetcher(4, 7)
	var urls []string
	for i := 0; i < 2; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	clock := &fetch.VirtualClock{}
	inner := &fetch.HandlerFetcher{Handler: site.Handler()}
	var wedged atomic.Bool
	fetcher := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		if wedged.CompareAndSwap(false, true) {
			// Wedge: virtual time races past the watchdog budget while no
			// page completes, then the fetch hangs until canceled.
			clock.Sleep(context.Background(), 5*time.Second)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return inner.Fetch(ctx, rawurl)
	})
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, nil))
	mp := &MPCrawler{
		NewCrawler:   func() *Crawler { return New(fetcher, Options{Clock: clock, MaxStates: 2}) },
		ProcLines:    1,
		URLs:         urls,
		MaxRestarts:  1,
		StuckTimeout: time.Second,
		Clock:        clock,
	}
	res := mp.Run(ctx)
	if err := res.Err; err != nil {
		t.Fatalf("watchdog restart did not recover the wedged page: %v", err)
	}
	if res.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", res.Restarts)
	}
	if got := len(res.Graphs); got != 2 {
		t.Errorf("crawled %d pages after the watchdog restart, want 2", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["crawl.line.watchdog_trips"] < 1 {
		t.Error("crawl.line.watchdog_trips never incremented")
	}
}

// TestWatchdogReportsStuckWithoutRestarts pins the error shape: with no
// restart budget a wedged page surfaces ErrLineStuck, so an operator
// can tell a hung page from a Ctrl-C.
func TestWatchdogReportsStuckWithoutRestarts(t *testing.T) {
	site, _ := newSiteFetcher(4, 7)
	urls := []string{webapp.WatchURL(site.Video(0).ID)}
	clock := &fetch.VirtualClock{}
	fetcher := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		clock.Sleep(context.Background(), 5*time.Second)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	mp := &MPCrawler{
		NewCrawler:   func() *Crawler { return New(fetcher, Options{Clock: clock, MaxStates: 2}) },
		ProcLines:    1,
		URLs:         urls,
		StuckTimeout: time.Second,
		Clock:        clock,
	}
	res := mp.Run(context.Background())
	if !errors.Is(res.Err, ErrLineStuck) {
		t.Fatalf("Err = %v, want ErrLineStuck", res.Err)
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
