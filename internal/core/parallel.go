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
// Faults are isolated per page. A panic is recovered at the page
// boundary and reported as that page's error, and the line rebuilds its
// crawler and goes on; a page that outlives Options.PageTimeout is cut
// off and, under SkipAndCount, counted in PagesFailed. When the crawlers
// NewCrawler builds carry a Checkpoint, every line journals completed
// pages into that one journal and reads from it, so a resumed page —
// whichever line takes it — is replayed, never re-crawled.
type MPCrawler struct {
	// NewCrawler builds the per-process-line crawler. Each process line
	// calls it once (plus once per panic recovery rebuild), so
	// fetchers/caches can be isolated or shared as the factory decides.
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
	// Err is the page's failure: a recovered panic, or any page error
	// under FailFast. Under SkipAndCount a failed page is counted in
	// Metrics.PagesFailed and Err stays nil.
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
	// Err is the first failure in URL order, or — when every retired
	// page succeeded but the context ended — the context's error.
	Err error
}

// Stream starts the process lines and returns a channel that yields
// each page in URL order — page i the moment pages 0..i have all
// retired — so downstream phases (indexing) overlap with crawling. The
// channel is closed once every process line has drained. Canceling ctx
// stops the hand-out of new pages and cuts short in-flight ones: every
// page that completed is still emitted exactly once, in order, and the
// pages the cancellation cut or never reached emit nothing.
func (m *MPCrawler) Stream(ctx context.Context) <-chan PageResult {
	n := m.ProcLines
	if n <= 0 {
		n = 1
	}
	tel := obs.From(ctx)

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
			w := newLineWorker(m, tel)
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
				g, metrics, err := w.run(ctx, url)
				tel.Gauge("crawl.lines.busy").Add(-1)
				if err != nil && ctx.Err() != nil {
					// Cut short by the caller, not failed: the page was
					// not crawled and says nothing.
					stop()
					return
				}
				results <- PageResult{Seq: seq, URL: url, Graph: g, Metrics: metrics, Err: err}
				tel.Counter("crawl.pages.done").Inc()
				pages++
			}
		}(line)
	}

	go func() {
		wg.Wait()
		close(results)
	}()

	// Assembler: the single owner of the out channel. A page that
	// retires ahead of a predecessor still in flight waits in the
	// reorder buffer until every earlier page has been emitted.
	go func() {
		defer close(out)
		pending := make(map[int]PageResult)
		next := 0 // index into order of the next page to emit
		for r := range results {
			pending[r.Seq] = r
			for ; next < len(order); next++ {
				r, ok := pending[order[next]]
				if !ok {
					break
				}
				delete(pending, r.Seq)
				out <- r
			}
		}
		// The lines have drained. Pages still buffered sit behind one
		// that cancellation left uncrawled: emit them in order.
		for _, seq := range order[next:] {
			if r, ok := pending[seq]; ok {
				out <- r
			}
		}
	}()
	return out
}

// Run executes the parallel crawl and blocks until every process line
// has finished. On cancellation it returns early-but-cleanly: the pages
// completed before the cancel keep their graphs and Err is the
// context's error.
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

// lineWorker runs one process line's pages on a crawler built by the
// factory. A panic rebuilds the crawler (its internal state is
// indeterminate after an unwind); the crawler otherwise lives for the
// whole line, so its script cache keeps its parsed scripts across
// pages. (The hot-node cache is per page: crawlDynamic makes a fresh
// one for each.)
type lineWorker struct {
	m   *MPCrawler
	tel *obs.Telemetry
	c   *Crawler
}

func newLineWorker(m *MPCrawler, tel *obs.Telemetry) *lineWorker {
	return &lineWorker{m: m, tel: tel, c: m.NewCrawler()}
}

// run crawls one page; the graph is nil when the page failed, the
// metrics never. A panic is recovered at this boundary, becomes the
// page's error and rebuilds the crawler — sibling lines keep crawling
// undisturbed, and this line goes on with its next page.
func (w *lineWorker) run(ctx context.Context, url string) (g *model.Graph, metrics *Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			// A graph built before the panic is indeterminate: drop it.
			g, metrics = nil, &Metrics{}
			err = fmt.Errorf("core: page %s: panic: %v", url, r)
			w.tel.Counter("crawl.line.panics").Inc()
			w.c = w.m.NewCrawler()
		}
	}()
	graphs, metrics, err := w.c.CrawlAll(ctx, []string{url})
	if len(graphs) > 0 {
		g = graphs[0]
	}
	return g, metrics, err
}
