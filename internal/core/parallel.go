package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
)

// MPCrawler is the parallel crawler of chapter 6. The thesis splits the
// precrawled URL list into N partitions, one per process line, each
// crawled in list order. Here the N long-lived process lines (goroutines
// standing in for the thesis's JVM processes) share the list instead:
// each takes the next position from one cursor, so a slow page holds up
// only its own line. Results come back in URL order, whichever line
// crawled which page.
//
// The lines are the one loop that crawls more than one page: a serial
// crawl is ProcLines 1. A line builds its crawler once and, for each URL
// it takes, replays the page from Options.Checkpoint when the journal
// holds it or else crawls it, then journals it. A page whose crawl fails
// — outliving Options.PageTimeout too — is counted in PagesFailed under
// SkipAndCount, and the line goes on. The first page error — a FailFast
// failure, a panic recovered at the page boundary or a journal write
// failure — ends the crawl: no line takes another page, pages in flight
// are cut, and the failing page is the last one emitted.
type MPCrawler struct {
	// NewCrawler builds the per-process-line crawler. Each process line
	// calls it once, so fetchers/caches can be isolated or shared as the
	// factory decides. The crawler lives for the whole line, so its
	// script cache keeps its parsed scripts across pages.
	NewCrawler func() *Crawler
	// ProcLines is the number of concurrent process lines
	// (MP_CRAWLER_NUM_OF_PROC_LINES). 1 means no parallelism.
	ProcLines int
	// URLs are the pages to crawl, handed out in this order. A URL
	// listed twice is crawled once, under its first position.
	URLs []string
}

// PageResult is one retired page, as emitted by Stream while other
// pages are still crawling.
type PageResult struct {
	// Seq is the page's position in URLs.
	Seq int
	URL string
	// Graph is the page's application model; nil when the page failed.
	Graph *model.Graph
	// Metrics are this page's crawl metrics (never nil).
	Metrics *Metrics
	// Err is the page's failure: a recovered panic, a journal write
	// failure, or any page error under FailFast. Under SkipAndCount a
	// failed page is counted in Metrics.PagesFailed and Err stays nil.
	Err error
}

// MPResult is the outcome of a parallel crawl.
type MPResult struct {
	// Graphs holds the crawled pages' application models in URL order —
	// not retirement order, so output is reproducible run to run
	// whichever line crawled which page. Failed pages have no entry.
	Graphs []*model.Graph
	// Metrics aggregates all pages; PerPage is in URL order too.
	Metrics *Metrics
	// Err is the failing page's error (the crawl's first, which ended
	// it), or — when every retired page succeeded but the context ended
	// — the context's error.
	Err error
}

// Stream starts the process lines and returns a channel that yields
// each page in URL order — page i the moment pages 0..i have all
// retired — so downstream phases (indexing) overlap with crawling. The
// channel is closed once every process line has drained. Canceling ctx
// stops the hand-out of new pages and cuts short in-flight ones: every
// page that completed is still emitted exactly once, in order, and the
// pages the cancellation cut or never reached emit nothing. A page error
// ends the stream the same way, with that page emitted last.
func (m *MPCrawler) Stream(ctx context.Context) <-chan PageResult {
	n := m.ProcLines
	if n <= 0 {
		n = 1
	}
	tel := obs.From(ctx)
	// The first page error cancels ctx for every line.
	ctx, cancel := context.WithCancel(ctx)

	// order holds the first position of every distinct URL: the list the
	// lines hand out, and the order the assembler emits in.
	order := make([]int, 0, len(m.URLs))
	seen := make(map[string]bool, len(m.URLs))
	for i, u := range m.URLs {
		if !seen[u] {
			seen[u] = true
			order = append(order, i)
		}
	}
	// One slot per page, so the assembler never waits on the consumer: a
	// consumer busy indexing must not stall the lines behind it.
	out := make(chan PageResult, len(order))
	// Progress denominators for /debug/status: the page universe and the
	// line count. crawl.pages.done ticks as attempts retire, and
	// frontier.depth counts the positions not yet handed out.
	tel.Gauge("crawl.pages.total").Set(int64(len(order)))
	tel.Gauge("crawl.lines").Set(int64(n))
	depth := tel.Gauge("frontier.depth")
	depth.Add(int64(len(order)))

	// cursor is the index into order that the next line to ask takes;
	// stop moves it past the end, so no line takes another page.
	var cursor atomic.Int64
	stop := func() { cursor.Store(int64(len(order))) }

	results := make(chan PageResult, n)

	var wg sync.WaitGroup
	for line := 0; line < n; line++ {
		wg.Add(1)
		go func(line int) {
			defer wg.Done()
			_, lsp := obs.StartSpan(ctx, obs.SpanLineCrawl, obs.A("line", strconv.Itoa(line)))
			pages := 0
			defer func() {
				lsp.SetAttr("pages", strconv.Itoa(pages))
				lsp.End(nil)
			}()
			c := m.NewCrawler()
			for {
				k := cursor.Add(1) - 1
				if k >= int64(len(order)) {
					return
				}
				depth.Add(-1)
				if ctx.Err() != nil {
					// Canceled while pages remain: abandon this one and
					// stop every line's hand-out.
					stop()
					return
				}
				seq := order[k]
				url := m.URLs[seq]
				tel.Gauge("crawl.lines.busy").Add(1)
				g, metrics, err := crawlOne(ctx, c, url)
				tel.Gauge("crawl.lines.busy").Add(-1)
				if err != nil && ctx.Err() != nil {
					// Cut short by the caller or by another page's
					// failure: the page was not crawled and says nothing.
					stop()
					return
				}
				results <- PageResult{Seq: seq, URL: url, Graph: g, Metrics: metrics, Err: err}
				tel.Counter("crawl.pages.done").Inc()
				pages++
				if err != nil {
					cancel()
					return
				}
			}
		}(line)
	}

	go func() {
		wg.Wait()
		cancel()
		close(results)
	}()

	// Assembler: the single owner of the out channel. A page that
	// retires ahead of a predecessor still in flight waits in the
	// reorder buffer until every earlier page has been emitted. Nothing
	// is emitted after a failed page: pages that later positions' lines
	// finished before the failure canceled them are dropped.
	go func() {
		defer close(out)
		pending := make(map[int]PageResult)
		failed := false
		emit := func(r PageResult) {
			if !failed {
				out <- r
				failed = r.Err != nil
			}
		}
		next := 0 // index into order of the next page to emit
		for r := range results {
			pending[r.Seq] = r
			for ; next < len(order); next++ {
				r, ok := pending[order[next]]
				if !ok {
					break
				}
				delete(pending, r.Seq)
				emit(r)
			}
		}
		// The lines have drained. Pages still buffered sit behind one
		// that cancellation left uncrawled: emit them in order.
		for _, seq := range order[next:] {
			if r, ok := pending[seq]; ok {
				emit(r)
			}
		}
	}()
	return out
}

// Run executes the crawl and blocks until every process line has
// finished. On cancellation or a page error it returns early but
// cleanly: the pages emitted before it keep their graphs, and Err says
// what ended the crawl.
func (m *MPCrawler) Run(ctx context.Context) *MPResult {
	res := &MPResult{Metrics: &Metrics{}}
	for pr := range m.Stream(ctx) {
		if pr.Graph != nil {
			res.Graphs = append(res.Graphs, pr.Graph)
		}
		res.Metrics.Merge(pr.Metrics)
		if res.Err == nil {
			res.Err = pr.Err
		}
	}
	if res.Err == nil {
		res.Err = context.Cause(ctx)
	}
	return res
}

// crawlOne is one page of a line on the line's crawler c: replayed from
// the checkpoint journal when it holds the page, else crawled, reported
// to OnPage and journaled. The graph is nil when the page failed, the
// metrics never. A panic is recovered at this boundary and becomes the
// page's error; so does any page error under FailFast.
func crawlOne(ctx context.Context, c *Crawler, url string) (g *model.Graph, metrics *Metrics, err error) {
	tel := obs.From(ctx)
	defer func() {
		if r := recover(); r != nil {
			// A graph built before the panic is indeterminate: drop it.
			g, metrics = nil, &Metrics{}
			err = fmt.Errorf("core: page %s: panic: %v", url, r)
			tel.Counter("crawl.line.panics").Inc()
		}
	}()
	metrics = &Metrics{}
	cp := c.Opts.Checkpoint
	if cp != nil {
		if g, pm, ok := cp.Completed(url); ok {
			metrics.Add(pm)
			metrics.PagesResumed++
			tel.Counter("crawl.partition.resumed_pages").Inc()
			if c.Opts.OnPage != nil {
				c.Opts.OnPage(pm)
			}
			return g, metrics, nil
		}
	}
	g, pm, err := c.CrawlPage(ctx, url)
	tel.Counter("crawl.pages").Inc()
	if c.Opts.OnPage != nil {
		c.Opts.OnPage(pm)
	}
	if err != nil {
		// The caller's context ending is never a page failure. A page
		// that blew only its own PageTimeout falls through to the policy.
		if ctx.Err() != nil {
			return nil, metrics, ctx.Err()
		}
		if c.Opts.OnError == FailFast {
			return nil, metrics, fmt.Errorf("core: crawl %s: %w", url, err)
		}
		metrics.PagesFailed++
		tel.Counter("crawl.pages.failed").Inc()
		return nil, metrics, nil
	}
	metrics.Add(pm)
	if cp != nil {
		// Journal before the line takes its next page. A write failure
		// is a broken journal, not a broken page: it ends the crawl, so
		// the operator never resumes from a journal missing pages the
		// run reported crawled.
		if err := cp.PageDone(url, g, pm); err != nil {
			return g, metrics, fmt.Errorf("core: checkpoint %s: %w", url, err)
		}
	}
	return g, metrics, nil
}
