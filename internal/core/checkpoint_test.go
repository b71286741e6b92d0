package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

	baseGraphs, baseMetrics, err := crawlSerial(ctx, New(&fetch.HandlerFetcher{Handler: site.Handler()}, opts), urls)
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
			// is journaled before the cancellation is observed (the line
			// checks the context between pages), so the journal holds
			// exactly k pages.
			cp, err := OpenCheckpoint(ctx, dir, false)
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
			graphs1, m1, err := crawlSerial(runCtx, New(counting, o), urls)
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
			cp2, err := OpenCheckpoint(ctx, dir, true)
			if err != nil {
				t.Fatal(err)
			}
			defer cp2.Close()
			o2 := opts
			o2.Checkpoint = cp2
			graphs2, m2, err := crawlSerial(ctx, New(counting, o2), urls)
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
	// lines — a crawl killed mid-list, its journal on disk.
	cp, err := OpenCheckpoint(context.Background(), ckRoot, false)
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var crawled atomic.Int32
	mp := &MPCrawler{
		NewCrawler: func() *Crawler {
			o := Options{UseHotNode: true, MaxStates: 3, Checkpoint: cp}
			o.OnPage = func(PageMetrics) {
				if crawled.Add(1) == 5 {
					cancel()
				}
			}
			return New(&fetch.HandlerFetcher{Handler: site.Handler()}, o)
		},
		ProcLines: 2,
		URLs:      urls,
	}
	partial := mp.Run(runCtx)
	if err := cp.Close(); err != nil {
		t.Fatalf("close checkpoint: %v", err)
	}
	if got := len(partial.Graphs); got >= len(urls) {
		t.Fatalf("interrupted run crawled all %d pages — the cancellation never bit", got)
	}

	// Run 2: resume, on a different line count than run 1 wrote — the
	// lines hand the pages out differently, and every journaled page must
	// still replay.
	cp2, err := OpenCheckpoint(context.Background(), ckRoot, true)
	if err != nil {
		t.Fatal(err)
	}
	journaled := cp2.CompletedPages()
	if journaled == 0 {
		t.Fatal("run 1 journaled no pages — the resume test is vacuous")
	}
	mp2 := &MPCrawler{
		NewCrawler: func() *Crawler {
			return New(&fetch.HandlerFetcher{Handler: site.Handler()}, Options{UseHotNode: true, MaxStates: 3, Checkpoint: cp2})
		},
		ProcLines: 3,
		URLs:      urls,
	}
	res := mp2.Run(context.Background())
	if err := res.Err; err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := cp2.Close(); err != nil {
		t.Fatalf("close resumed checkpoint: %v", err)
	}
	if res.Metrics.Pages != len(urls) {
		t.Fatalf("resumed run has %d pages, want %d", res.Metrics.Pages, len(urls))
	}
	if res.Metrics.PagesResumed != journaled {
		t.Errorf("PagesResumed = %d, want every journaled page (%d) replayed", res.Metrics.PagesResumed, journaled)
	}
	requireSameStateSets(t, base, stateSets(res.Graphs))
}

// TestPartitionPanicRecovered pins the crawl's one failure rule: a
// crawler panic mid-page is recovered at the page boundary and becomes
// that page's error, never a crashed process line, and it — like a page
// error under FailFast — ends the crawl. No line takes another page, no
// page after the failing one is returned, and no line rebuilds its
// crawler.
func TestPartitionPanicRecovered(t *testing.T) {
	site, _ := newSiteFetcher(8, 11)
	var urls []string
	for i := 0; i < 6; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	const fail = 1 // the failing page's position
	inner := &fetch.HandlerFetcher{Handler: site.Handler()}
	panicking := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		if rawurl == urls[fail] {
			panic("hostile page blew up the crawler")
		}
		return inner.Fetch(ctx, rawurl)
	})
	failing := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		if rawurl == urls[fail] {
			return nil, errors.New("connection reset")
		}
		return inner.Fetch(ctx, rawurl)
	})
	for _, tc := range []struct {
		name   string
		f      fetch.Fetcher
		policy ErrorPolicy
		want   string // in Err besides the URL
		panics int64
	}{
		{"panic", panicking, SkipAndCount, "panic", 1},
		{"failfast", failing, FailFast, "connection reset", 0},
	} {
		for _, lines := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/lines=%d", tc.name, lines), func(t *testing.T) {
				reg := obs.NewRegistry()
				ctx := obs.With(context.Background(), obs.New(reg, nil))
				var builds atomic.Int32
				mp := &MPCrawler{
					NewCrawler: func() *Crawler {
						builds.Add(1)
						return New(tc.f, Options{MaxStates: 2, OnError: tc.policy})
					},
					ProcLines: lines,
					URLs:      urls,
				}
				res := mp.Run(ctx)
				if res.Err == nil || !strings.Contains(res.Err.Error(), urls[fail]) || !strings.Contains(res.Err.Error(), tc.want) {
					t.Fatalf("Err = %v, want the failing page %s's %q", res.Err, urls[fail], tc.want)
				}
				var got []string
				for _, g := range res.Graphs {
					if slices.Index(urls, g.URL) > fail {
						t.Errorf("crawl returned %s, a page after the failing one", g.URL)
					}
					got = append(got, g.URL)
				}
				if want := urls[:fail]; lines == 1 && !slices.Equal(got, want) {
					t.Errorf("crawled %v, want exactly %v", got, want)
				}
				if n := builds.Load(); n != int32(lines) {
					t.Errorf("NewCrawler ran %d times, want once per line (%d)", n, lines)
				}
				if n := reg.Snapshot().Counters["crawl.line.panics"]; n != tc.panics {
					t.Errorf("crawl.line.panics = %d, want %d", n, tc.panics)
				}
			})
		}
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

// TestOpenCheckpointFailsOnUnopenableJournal: a journal that cannot be
// opened fails OpenCheckpoint, fresh or resumed, with an error naming
// it — before the caller can start a single fetch, rather than crawling
// unjournaled.
func TestOpenCheckpointFailsOnUnopenableJournal(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	wal := filepath.Join(root, "journal.wal")
	// A non-empty directory where the journal file belongs: it neither
	// opens nor is removed.
	if err := os.MkdirAll(filepath.Join(wal, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		dir, want string
	}{{root, wal}, {notDir, notDir}} {
		for _, resume := range []bool{false, true} {
			cp, err := OpenCheckpoint(ctx, c.dir, resume)
			if err == nil {
				cp.Close()
				t.Fatalf("OpenCheckpoint(%s, resume=%v) opened", c.dir, resume)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("OpenCheckpoint(%s, resume=%v) err = %v, want it to name %s", c.dir, resume, err, c.want)
			}
		}
	}
}

// TestPerLineRootIsRefusedOnResume: a checkpoint root written by an
// earlier build holds one journal directory per process line. A resume
// refuses it, naming the directory and leaving every byte as it was; a
// fresh run removes those directories and journals into the root,
// leaving the root's other entries alone.
func TestPerLineRootIsRefusedOnResume(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	old := map[string]string{
		"line-0/journal.wal":   "AJWL\x04old frames",
		"line-1/journal.wal":   "AJWL\x04",
		"frontier/journal.wal": "AJWL\x03",
	}
	for name, data := range old {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, err := OpenCheckpoint(ctx, root, true)
	if err == nil || !strings.Contains(err.Error(), filepath.Join(root, "line-0")) ||
		!strings.Contains(err.Error(), "written by another build; resume with that build, or crawl again without -resume") {
		t.Fatalf("resume of a per-line root: err = %v, want a refusal naming %s", err, filepath.Join(root, "line-0"))
	}
	for name, data := range old {
		if got, err := os.ReadFile(filepath.Join(root, name)); err != nil || string(got) != data {
			t.Errorf("refused resume changed %s: %q, %v", name, got, err)
		}
	}
	if _, err := os.Stat(filepath.Join(root, "journal.wal")); !os.IsNotExist(err) {
		t.Errorf("refused resume created the journal (stat err %v)", err)
	}

	cp, err := OpenCheckpoint(ctx, root, false)
	if err != nil {
		t.Fatalf("fresh run over a per-line root: %v", err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"frontier", "journal.wal"}; !slices.Equal(names, want) {
		t.Errorf("fresh run left %v in the root, want %v", names, want)
	}
}
