package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"ajaxcrawl/internal/fetch"
)

// lastFirstGate scripts a multi-line crawl's completion order without a
// clock or a sleep: a page's fetch returns only once every line is busy
// (or no page is left to hand out) and the page is the last in URL order
// of those in flight. Whatever line drew which page, the first page of
// the URL list is then the last to complete, and every other page
// retires ahead of a predecessor.
type lastFirstGate struct {
	lines    int
	cancelAt int // cancel the crawl when this many pages have completed (0 = never)
	cancel   context.CancelFunc

	mu        sync.Mutex
	changed   chan struct{}
	seq       map[string]int // first position of each URL
	inflight  map[string]bool
	fetches   map[string]int
	completed []string
}

func newLastFirstGate(urls []string, lines int) *lastFirstGate {
	g := &lastFirstGate{
		lines:    lines,
		changed:  make(chan struct{}),
		seq:      make(map[string]int),
		inflight: make(map[string]bool),
		fetches:  make(map[string]int),
	}
	for i, u := range urls {
		if _, dup := g.seq[u]; !dup {
			g.seq[u] = i
		}
	}
	return g
}

// broadcast wakes every waiter; g.mu must be held.
func (g *lastFirstGate) broadcast() {
	close(g.changed)
	g.changed = make(chan struct{})
}

// ready reports whether url may complete now; g.mu must be held.
func (g *lastFirstGate) ready(url string) bool {
	if len(g.inflight) != min(g.lines, len(g.seq)-len(g.completed)) {
		return false
	}
	for u := range g.inflight {
		if g.seq[u] > g.seq[url] {
			return false
		}
	}
	return true
}

func (g *lastFirstGate) Fetch(ctx context.Context, rawurl string) (*fetch.Response, error) {
	g.mu.Lock()
	g.fetches[rawurl]++
	g.inflight[rawurl] = true
	g.broadcast()
	for !g.ready(rawurl) {
		ch := g.changed
		g.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
		}
		g.mu.Lock()
		if ctx.Err() != nil {
			delete(g.inflight, rawurl)
			g.broadcast()
			g.mu.Unlock()
			return nil, ctx.Err()
		}
	}
	g.mu.Unlock()
	body := fmt.Sprintf(`<html><body><p>page %s</p></body></html>`, rawurl)
	return &fetch.Response{Status: 200, Body: []byte(body), ContentType: "text/html"}, nil
}

// onPage retires a page; pages cut short by the cancellation already
// left the in-flight set and do not count.
func (g *lastFirstGate) onPage(pm PageMetrics) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.inflight[pm.URL] {
		return
	}
	delete(g.inflight, pm.URL)
	g.completed = append(g.completed, pm.URL)
	if len(g.completed) == g.cancelAt {
		g.cancel()
	}
	g.broadcast()
}

func (g *lastFirstGate) crawler(urls []string) *MPCrawler {
	return &MPCrawler{
		NewCrawler: func() *Crawler { return New(g, Options{OnPage: g.onPage}) },
		ProcLines:  g.lines,
		URLs:       urls,
	}
}

// TestStreamOrderAndCancel pins the assembler's contract: whatever
// order pages retire in, Stream emits them in URL order with no gap,
// duplicate or loss; a URL listed twice is crawled once, under its
// first position; and a cancellation still emits every page that
// completed — exactly those, in order — while Run reports the context
// error once.
func TestStreamOrderAndCancel(t *testing.T) {
	var urls []string
	for i := 0; i < 9; i++ {
		urls = append(urls, fmt.Sprintf("http://site/p%d", i))
	}
	// Position 5 repeats page 2: the distinct pages sit at 0-4 and 6-9.
	urls = append(urls[:5], append([]string{urls[2]}, urls[5:]...)...)
	const lines = 3

	t.Run("order", func(t *testing.T) {
		g := newLastFirstGate(urls, lines)
		var got []PageResult
		for pr := range g.crawler(urls).Stream(context.Background()) {
			got = append(got, pr)
		}
		if n := len(g.completed); n != 9 || g.completed[0] == urls[0] || g.completed[n-1] != urls[0] {
			t.Fatalf("script did not bite: pages completed in order %v", g.completed)
		}
		want := []int{0, 1, 2, 3, 4, 6, 7, 8, 9}
		if len(got) != len(want) {
			t.Fatalf("Stream emitted %d pages, want %d", len(got), len(want))
		}
		for i, pr := range got {
			if pr.Seq != want[i] || pr.URL != urls[want[i]] {
				t.Fatalf("emission %d is Seq %d (%s), want Seq %d (%s)", i, pr.Seq, pr.URL, want[i], urls[want[i]])
			}
			if pr.Err != nil || pr.Graph == nil || pr.Graph.URL != pr.URL || pr.Metrics.Pages != 1 {
				t.Fatalf("Seq %d: err=%v graph=%v pages=%d", pr.Seq, pr.Err, pr.Graph, pr.Metrics.Pages)
			}
		}
		for u, n := range g.fetches {
			if n != 1 {
				t.Errorf("%s fetched %d times, want once", u, n)
			}
		}
	})

	t.Run("cancel", func(t *testing.T) {
		const k = 4
		run := func(consume func(context.Context, *MPCrawler)) *lastFirstGate {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			g := newLastFirstGate(urls, lines)
			g.cancelAt, g.cancel = k, cancel
			consume(ctx, g.crawler(urls))
			if len(g.completed) != k {
				t.Fatalf("%d pages completed, want the cancel to land after %d", len(g.completed), k)
			}
			return g
		}

		var got []PageResult
		g := run(func(ctx context.Context, mp *MPCrawler) {
			for pr := range mp.Stream(ctx) {
				got = append(got, pr)
			}
		})
		if len(got) != k {
			t.Fatalf("Stream emitted %d pages after the cancel, want the %d that completed", len(got), k)
		}
		done := make(map[string]bool)
		for _, u := range g.completed {
			done[u] = true
		}
		for i, pr := range got {
			if !done[pr.URL] || pr.Err != nil || pr.Graph == nil {
				t.Errorf("emission %d: %s err=%v — not one of the completed pages %v", i, pr.URL, pr.Err, g.completed)
			}
			if i > 0 && pr.Seq <= got[i-1].Seq {
				t.Errorf("emission %d is Seq %d after Seq %d", i, pr.Seq, got[i-1].Seq)
			}
		}

		var res *MPResult
		run(func(ctx context.Context, mp *MPCrawler) { res = mp.Run(ctx) })
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("Run().Err = %v, want context.Canceled", res.Err)
		}
		if len(res.Graphs) != k || res.Metrics.Pages != k || res.Metrics.PagesFailed != 0 {
			t.Errorf("Run kept %d graphs, %d pages, %d failed; want %d, %d, 0",
				len(res.Graphs), res.Metrics.Pages, res.Metrics.PagesFailed, k, k)
		}
	})
}
