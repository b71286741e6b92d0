package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ajaxcrawl/internal/checkpoint"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/frontier"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
)

// MPCrawler is the parallel crawler of chapter 6, rebuilt around a
// shared dynamic frontier. The thesis statically splits the precrawled
// URL list into N fixed partitions, one per process line, so one slow
// partition strands every other line while it idles. Here the N
// long-lived process lines (goroutines standing in for the thesis's JVM
// processes) instead pull single URLs from one prioritized frontier —
// ordered by PageRank with an expected-AJAX-state-yield boost — and
// steal work from each other's local queues, so capacity rebalances to
// wherever pages remain. The URL list is the only layout: whatever the
// scheduling did, results come back in the order of URLs.
//
// On top sits the supervisor, at page granularity: a page whose
// attempt fails (an error under FailFast, a panic recovered at the item
// boundary, or a stuck-line watchdog trip) is requeued into the
// frontier with bounded attempts instead of being lost. When
// Checkpoints is wired in, every line journals completed pages into its
// own journal and reads union across all of them, so a requeued or
// resumed page — wherever it lands — is replayed, never re-crawled.
type MPCrawler struct {
	// NewCrawler builds the per-process-line crawler. Each process line
	// calls it once (plus once per panic recovery rebuild), so
	// fetchers/caches can be isolated or shared as the factory decides.
	NewCrawler func() *Crawler
	// ProcLines is the number of concurrent process lines
	// (MP_CRAWLER_NUM_OF_PROC_LINES). 1 means no parallelism.
	ProcLines int
	// URLs are the pages to crawl, admitted to the frontier as one
	// batch. A URL listed twice is crawled once, under its first
	// position.
	URLs []string
	// Priorities maps URLs to their precrawl PageRank. Values are
	// normalized so the maximum admits at priority 1; missing URLs (or
	// a nil map) admit at 0 and the frontier degrades to URL order.
	Priorities map[string]float64
	// FrontierSeed seeds the scheduler's steal-victim PRNG. Results are
	// order-independent for any seed; the seed makes the schedule
	// itself reproducible. 0 selects seed 1.
	FrontierSeed int64
	// Checkpoints, when set, provides the per-line durable journals and
	// the frontier snapshot journal. The caller opens it (choosing
	// fresh vs resume) and closes it after the crawl drains; each
	// process line opens and closes its own line journal inside.
	Checkpoints *CrawlCheckpoints
	// MaxRestarts bounds how many times the supervisor requeues one
	// failed page (its total attempts are MaxRestarts+1). 0 disables
	// restarts: a failed page is reported immediately.
	MaxRestarts int
	// StuckTimeout arms the wedged-line watchdog: a page attempt in
	// which no page completes for this long (measured on Clock) is
	// canceled, reported as ErrLineStuck, and — attempts permitting —
	// requeued. 0 disables the watchdog.
	StuckTimeout time.Duration
	// Clock is the watchdog's time source; use the same clock the
	// crawlers run on so virtual-clock tests stay deterministic. nil
	// means wall time.
	Clock fetch.Clock
}

// yieldWeight scales the expected-AJAX-state-yield boost added to a
// URL's priority when it is requeued (the boost is learned per URL class
// from pages already crawled, normalized to [0,1)).
const yieldWeight = 0.25

// ErrLineStuck marks a page attempt canceled by the stuck-line
// watchdog: no page completed within StuckTimeout.
var ErrLineStuck = errors.New("core: process line stuck: no page completed within the watchdog timeout")

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
	// Err is the page's failure once its restarts are exhausted. Under
	// SkipAndCount a failed page is counted in Metrics.PagesFailed and
	// Err stays nil.
	Err error
	// Restarts is how many supervisor requeues the page consumed.
	Restarts int
}

// MPResult is the outcome of a parallel crawl.
type MPResult struct {
	// Graphs holds the crawled pages' application models in URL order —
	// not scheduling order, so output is reproducible run to run
	// whatever the frontier did. Failed pages have no entry.
	Graphs []*model.Graph
	// Metrics aggregates all pages; PerPage is in URL order too.
	Metrics *Metrics
	// Err is the first failure in URL order, or — when every retired
	// page succeeded but the context ended — the context's error.
	Err error
	// Restarts is the supervisor's requeue total.
	Restarts int
}

// Stream starts the process lines and returns a channel that yields
// each page in URL order — page i the moment pages 0..i have all
// retired — so downstream phases (indexing) overlap with crawling. The
// channel is closed once every process line has drained. Canceling ctx
// stops the hand-out of new pages and cuts short in-flight ones: every
// page that completed is still emitted exactly once, in order, and the
// pages the cancellation cut or never reached emit nothing.
//
// Supervision: a page attempt that fails for any reason other than the
// caller's context ending is requeued into the frontier up to
// MaxRestarts times (the frontier.requeues counter meters every
// requeue) before its error lands in the page's result. A failure of
// the crawl as a whole — a line journal that cannot be opened — stops
// every line and is reported once, as the Err of the first URL it left
// uncrawled.
func (m *MPCrawler) Stream(ctx context.Context) <-chan PageResult {
	n := m.ProcLines
	if n <= 0 {
		n = 1
	}
	tel := obs.From(ctx)

	// Priorities: journaled admission priorities (resume) win, then
	// normalized PageRank, then 0 (URL-order FIFO).
	recovered := make(map[string]float64)
	if m.Checkpoints != nil {
		for _, r := range m.Checkpoints.RecoveredFrontier() {
			recovered[r.URL] = r.Priority
		}
	}
	var maxPR float64
	for _, v := range m.Priorities {
		if v > maxPR {
			maxPR = v
		}
	}
	basePri := func(url string) float64 {
		if p, ok := recovered[url]; ok {
			return p
		}
		if maxPR > 0 {
			return m.Priorities[url] / maxPR
		}
		return 0
	}
	est := frontier.NewYieldEstimator(0)

	// The frontier is admitted as one batch so tier boundaries see the
	// whole priority distribution.
	fr := frontier.New(frontier.Config{Tel: tel})
	seed := make([]frontier.Item, 0, len(m.URLs))
	seen := make(map[string]bool, len(m.URLs))
	for i, u := range m.URLs {
		if !seen[u] {
			seen[u] = true
			seed = append(seed, frontier.Item{URL: u, Seq: i, Priority: basePri(u)})
		}
	}
	fr.AdmitSeed(seed)
	// One slot per page, so the assembler never waits on the consumer: a
	// consumer busy indexing must not stall the lines behind it.
	out := make(chan PageResult, len(seed))
	// Progress denominators for /debug/status: the admitted page universe
	// and the line count. crawl.pages.done ticks as attempts retire.
	tel.Gauge("crawl.pages.total").Set(int64(len(seed)))
	tel.Gauge("crawl.lines").Set(int64(n))
	if m.Checkpoints != nil {
		// Journal the admitted frontier — the snapshot a killed crawl
		// resumes from. Identical re-admissions on resume are deduped
		// inside the journal, so this stays one record per URL.
		for _, it := range seed {
			if err := m.Checkpoints.FrontierAdmitted(checkpoint.FrontierRecord{
				URL: it.URL, Seq: it.Seq, Priority: it.Priority,
			}); err != nil {
				break // sticky journal error; surfaces on Flush/Close
			}
		}
		_ = m.Checkpoints.FlushFrontier()
	}

	sched := frontier.NewScheduler(fr, frontier.SchedConfig{Lines: n, Seed: m.FrontierSeed, Tel: tel})

	results := make(chan PageResult, n)
	var initErr atomic.Value // error poisoning the whole crawl (journal open failure)
	failCrawl := func(err error) {
		initErr.CompareAndSwap(nil, err) //nolint:errcheck // first error wins
		sched.Cancel()
	}

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
			var cp Checkpointer
			if m.Checkpoints != nil {
				var err error
				cp, err = m.Checkpoints.Line(line)
				if err != nil {
					// Durability is broken before a single fetch: fail
					// the crawl rather than crawl unjournaled.
					failCrawl(fmt.Errorf("core: line %d: %w", line, err))
					return
				}
				defer cp.Close()
			}
			w := newLineWorker(m, cp, tel)
			for {
				it, ok := sched.Next(line)
				if !ok {
					return
				}
				if ctx.Err() != nil {
					// Canceled while queued work remains: abandon the
					// item and stop every line's hand-out.
					sched.Cancel()
					return
				}
				tel.Gauge("crawl.lines.busy").Add(1)
				g, metrics, err := w.run(ctx, it)
				tel.Gauge("crawl.lines.busy").Add(-1)
				if err != nil && ctx.Err() != nil {
					// Cut short by the caller, not failed: the page was
					// not crawled and says nothing.
					sched.Cancel()
					return
				}
				if err != nil && it.Attempt < m.MaxRestarts {
					// Supervisor: the attempt failed on its own (error,
					// panic, watchdog) — requeue into the frontier
					// rather than report. Any line may pick it up; the
					// union read over the line journals carries the
					// pages completed before the failure.
					tel.Counter("frontier.requeues").Inc()
					it.Attempt++
					it.Priority = basePri(it.URL) + yieldWeight*est.Boost(it.URL)
					sched.Requeue(it)
					continue
				}
				if err == nil {
					est.Observe(it.URL, metrics.States)
				}
				results <- PageResult{
					Seq: it.Seq, URL: it.URL,
					Graph: g, Metrics: metrics, Err: err, Restarts: it.Attempt,
				}
				tel.Counter("crawl.pages.done").Inc()
				sched.Done()
				pages++
			}
		}(line)
	}

	// Cancellation watch: a canceled context must wake lines blocked in
	// Next (e.g. waiting on a sibling's in-flight page).
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			sched.Cancel()
		case <-stopWatch:
		}
	}()
	go func() {
		wg.Wait()
		close(stopWatch)
		close(results)
	}()

	// Assembler: the single owner of the out channel. Pages retire in
	// scheduling order; a page that retires ahead of a predecessor waits
	// in the reorder buffer until every earlier page has been emitted.
	go func() {
		defer close(out)
		pending := make(map[int]PageResult)
		next := 0 // index into seed of the next page to emit
		for r := range results {
			pending[r.Seq] = r
			for ; next < len(seed); next++ {
				r, ok := pending[seed[next].Seq]
				if !ok {
					break
				}
				delete(pending, r.Seq)
				out <- r
			}
		}
		// The lines have drained. Pages still buffered sit behind one
		// that cancellation (or a poisoned crawl) left uncrawled: emit
		// them in order, charging a crawl-wide failure to the first
		// such gap.
		err, _ := initErr.Load().(error)
		for _, it := range seed[next:] {
			if r, ok := pending[it.Seq]; ok {
				out <- r
			} else if err != nil {
				out <- PageResult{Seq: it.Seq, URL: it.URL, Metrics: &Metrics{}, Err: err}
				err = nil
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
		res.Restarts += pr.Restarts
		if res.Err == nil {
			res.Err = pr.Err
		}
	}
	if res.Err == nil {
		res.Err = context.Cause(ctx)
	}
	return res
}

// lineWorker runs one process line's page attempts on a crawler built
// by the factory, wiring in the line's checkpointer and the watchdog
// heartbeat. A panic rebuilds the crawler (its internal state is
// indeterminate after an unwind); the crawler otherwise lives for the
// whole line, so per-host circuit breakers and hot-node caches keep
// their state across pages exactly as a thesis process would.
type lineWorker struct {
	m        *MPCrawler
	cp       Checkpointer
	tel      *obs.Telemetry
	clock    fetch.Clock
	c        *Crawler
	lastBeat atomic.Int64
}

func newLineWorker(m *MPCrawler, cp Checkpointer, tel *obs.Telemetry) *lineWorker {
	w := &lineWorker{m: m, cp: cp, tel: tel, clock: m.Clock}
	if w.clock == nil {
		w.clock = fetch.RealClock{}
	}
	w.build()
	return w
}

// build constructs the line's crawler and hooks the checkpointer and
// the heartbeat into it.
func (w *lineWorker) build() {
	c := w.m.NewCrawler()
	if w.cp != nil {
		c.Opts.Checkpoint = w.cp
	}
	saved := c.Opts.OnPage
	c.Opts.OnPage = func(pm PageMetrics) {
		w.lastBeat.Store(w.clock.Now().UnixNano())
		if saved != nil {
			saved(pm)
		}
	}
	w.c = c
}

// run crawls one page; the graph is nil when the page failed, the
// metrics never. Fault isolation happens here, per page: a panic is
// recovered at this boundary (and the crawler rebuilt) and a wedged
// attempt is canceled by the watchdog — sibling lines keep crawling
// undisturbed through both.
func (w *lineWorker) run(ctx context.Context, it frontier.Item) (g *model.Graph, metrics *Metrics, err error) {
	ictx := ctx
	// Watchdog: cancel the attempt when no page completes within
	// StuckTimeout. Staleness is measured on the injectable Clock (so
	// virtual-clock tests can wedge and trip it deterministically)
	// while the polling cadence runs on a cheap wall ticker.
	if w.m.StuckTimeout > 0 {
		var cancel context.CancelCauseFunc
		ictx, cancel = context.WithCancelCause(ctx)
		defer cancel(nil)
		w.lastBeat.Store(w.clock.Now().UnixNano())
		stop := make(chan struct{})
		defer close(stop)
		go w.watchdog(stop, cancel)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				// A graph built before the panic is indeterminate —
				// drop it; the journal, not the wreckage, is the
				// requeue's source of truth. The crawler is rebuilt:
				// its internal state unwound mid-flight.
				g, metrics = nil, nil
				err = fmt.Errorf("core: page %s: panic: %v", it.URL, r)
				w.tel.Counter("crawl.line.panics").Inc()
				w.tel.Counter("crawl.line.restarts").Inc()
				w.build()
			}
		}()
		var graphs []*model.Graph
		graphs, metrics, err = w.c.CrawlAll(ictx, []string{it.URL})
		if len(graphs) > 0 {
			g = graphs[0]
		}
	}()
	if metrics == nil {
		metrics = &Metrics{}
	}
	if err != nil && errors.Is(context.Cause(ictx), ErrLineStuck) {
		// Surface the watchdog trip instead of a bare context.Canceled,
		// so the caller (and the supervisor's requeue check against the
		// *outer* context) can tell a wedged page from a Ctrl-C.
		err = fmt.Errorf("core: page %s: %w", it.URL, ErrLineStuck)
	}
	return g, metrics, err
}

// watchdog cancels the current attempt when the heartbeat goes stale.
func (w *lineWorker) watchdog(stop <-chan struct{}, cancel context.CancelCauseFunc) {
	poll := min(max(w.m.StuckTimeout/8, time.Millisecond), 250*time.Millisecond)
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			stale := w.clock.Now().UnixNano() - w.lastBeat.Load()
			if time.Duration(stale) > w.m.StuckTimeout {
				w.tel.Counter("crawl.line.watchdog_trips").Inc()
				cancel(ErrLineStuck)
				return
			}
		}
	}
}
