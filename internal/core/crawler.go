// Package core implements the paper's primary contribution: the AJAX
// crawler. It contains
//
//   - the breadth-first crawling algorithm of chapter 3 (Alg. 3.1.1),
//     which triggers every user event, detects DOM changes, deduplicates
//     states by canonical hash, and rolls back between events;
//   - the heuristic hot-node crawling policy of chapter 4 (Alg. 4.2.1),
//     which intercepts XMLHttpRequest sends, keys them by the topmost
//     executing user function and its actual arguments, and serves
//     repeats from a cache instead of the network;
//   - the precrawling phase (hyperlink graph + PageRank) of chapter 6;
//   - the multi-process-line parallel crawler of chapter 6.
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"ajaxcrawl/internal/browser"
	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/shingle"
)

// ErrorPolicy decides what CrawlAll does when one page's crawl fails.
type ErrorPolicy int

const (
	// SkipAndCount (the default) skips the failed page, increments
	// Metrics.PagesFailed, and continues with the next URL — one bad
	// page cannot sink a crawl.
	SkipAndCount ErrorPolicy = iota
	// FailFast aborts the multi-page crawl on the first page error,
	// returning the graphs crawled so far alongside the error.
	FailFast
)

// Options configure a crawl. The zero value is usable: AJAX crawling
// without the hot-node cache (set UseHotNode for Alg. 4.2.1), the
// thesis's default limits.
type Options struct {
	// Traditional disables JavaScript entirely: only the initial state
	// is read, like a classical crawler (TRADITIONAL_CRAWLING).
	Traditional bool
	// UseHotNode enables the heuristic caching policy (USE_DEBUGGER).
	// Ignored for traditional crawls.
	UseHotNode bool
	// MaxStates caps the states crawled per page, counting the initial
	// one. The thesis crawls 10 additional comment pages, i.e. 11.
	MaxStates int
	// StateFilter, when set, enables focused crawling (§7.2.2): states
	// whose visible text fails the filter are recorded but not expanded
	// further, restricting the crawl to relevant content.
	StateFilter func(text string) bool
	// FormProbes, when non-empty, enables form crawling (thesis ch. 10
	// future work): every text input with a reactive handler is filled
	// with each probe value and its handler fired, exploring
	// Google-Suggest-style AJAX states.
	FormProbes []string
	// NearDupThreshold, when in (0, 1], merges states whose MinHash
	// text similarity to an existing state is >= the threshold — the
	// defense against challenge #3 of the thesis introduction ("very
	// granular events ... a large set of very similar states"). 0.9 is
	// a reasonable setting; 0 disables near-duplicate merging.
	NearDupThreshold float64
	// Clock measures crawl time (virtual in benchmarks). nil = wall.
	Clock fetch.Clock
	// PageTimeout is the per-page crawl budget: CrawlPage derives a
	// context.WithTimeout from its caller's context, so one slow page
	// (network or script) is cut off without aborting the crawl.
	// 0 means no per-page deadline.
	PageTimeout time.Duration
	// OnError selects how CrawlAll treats a failed page. The zero
	// value is SkipAndCount.
	OnError ErrorPolicy
	// JSStepBudget caps interpreter steps per event handler (0 = the
	// interpreter's default of 10M). Runaway scripts — a hostile
	// while(true) — are preempted at the budget and recorded as
	// handler errors instead of hanging the process line.
	JSStepBudget int
	// RetryPolicy, when non-nil, wraps the crawler's fetcher in a
	// fetch.RetryFetcher so transient fetch failures (including the
	// browser's XHR subresource fetches) are retried with exponential
	// backoff + full jitter instead of failing the page. Backoff sleeps
	// run on Clock, so virtual-clock crawls retry for free.
	RetryPolicy *fetch.RetryPolicy
	// Checkpoint, when non-nil, makes the crawl crash-tolerant: CrawlAll
	// journals every completed page into it and skips pages it already
	// holds (counting them in Metrics.PagesResumed instead of
	// re-crawling). A checkpoint write failure fails the crawl — a page
	// must never be reported crawled without being durably journaled.
	Checkpoint *Checkpoint
	// OnPage, when non-nil, is invoked after every page attempt in
	// CrawlAll — crawled, failed-and-skipped, or resumed from the
	// checkpoint — with that page's metrics. Tests use it to script
	// mid-crawl cancellation points.
	OnPage func(pm PageMetrics)
}

func (o Options) withDefaults() Options {
	if o.MaxStates == 0 {
		o.MaxStates = 11
	}
	if o.Clock == nil {
		o.Clock = fetch.RealClock{}
	}
	return o
}

// PageMetrics reports what crawling one page cost — the per-page rows of
// the evaluation chapter.
type PageMetrics struct {
	URL             string
	States          int
	Transitions     int
	EventsTriggered int
	// NetworkEvents counts triggered events that caused at least one
	// real network call (Table 7.1's "events leading to network
	// communication").
	NetworkEvents int
	// XHRSends counts all XMLHttpRequest sends, intercepted or not.
	XHRSends int
	// NetworkCalls counts XHR sends that actually hit the network.
	NetworkCalls int
	// HotNodeHits counts sends served from the hot-node cache.
	HotNodeHits int
	// HandlerErrors counts events whose handler raised an error.
	HandlerErrors int
	// StatesPruned counts states not expanded by the focused-crawl filter.
	StatesPruned int
	// NearDupMerges counts states folded into an existing near-duplicate.
	NearDupMerges int
	// NearDupCandidates counts signature comparisons made while
	// admitting this page's states: each candidate is compared with the
	// admitted states in turn until one matches.
	NearDupCandidates int
	// Retries counts fetch attempts beyond the first made while crawling
	// this page (attributed through fetch.FindRetryStats, like
	// NetworkTime through fetch.FindStats).
	Retries int
	// PagesRecovered is 1 when the page crawl succeeded but needed at
	// least one retry — a page that a retry-less crawl would have lost.
	PagesRecovered int
	CrawlTime      time.Duration
	// NetworkTime is the simulated/observed time spent in the fetcher,
	// when the crawler's fetcher is instrumented (else 0).
	NetworkTime time.Duration
}

// Metrics aggregates a multi-page crawl.
//
// Invariant (pinned by a reflection test): every numeric field of
// PageMetrics has a same-named field here, Add folds each of them, and
// Merge folds every numeric field of Metrics — so a newly added counter
// cannot be silently dropped by the aggregation.
type Metrics struct {
	Pages int
	// PagesFailed counts pages skipped under the SkipAndCount error
	// policy (their graphs are not in the result).
	PagesFailed int
	// PagesResumed counts pages served from the checkpoint journal
	// instead of being re-crawled (their journaled graphs and metrics
	// are in the result, so the aggregate matches an uninterrupted run).
	PagesResumed      int
	States            int
	Transitions       int
	EventsTriggered   int
	NetworkEvents     int
	XHRSends          int
	NetworkCalls      int
	HotNodeHits       int
	HandlerErrors     int
	StatesPruned      int
	NearDupMerges     int
	NearDupCandidates int
	Retries           int
	PagesRecovered    int
	CrawlTime         time.Duration
	NetworkTime       time.Duration
	PerPage           []PageMetrics
}

// Add folds a page's metrics into the aggregate.
func (m *Metrics) Add(pm PageMetrics) {
	m.Pages++
	m.fold(pm.counts(), pm.CrawlTime, pm.NetworkTime)
	m.PerPage = append(m.PerPage, pm)
}

// Merge folds another aggregate into m (used by the parallel crawler).
func (m *Metrics) Merge(o *Metrics) {
	m.Pages += o.Pages
	m.PagesFailed += o.PagesFailed
	m.PagesResumed += o.PagesResumed
	m.fold(o.counts(), o.CrawlTime, o.NetworkTime)
	m.PerPage = append(m.PerPage, o.PerPage...)
}

// fold adds counts, in the order of counts(), and the two times to m.
func (m *Metrics) fold(counts [13]*int, crawl, net time.Duration) {
	for i, c := range m.counts() {
		*c += *counts[i]
	}
	m.CrawlTime += crawl
	m.NetworkTime += net
}

// counts lists m's per-page sums in the order of PageMetrics.counts.
func (m *Metrics) counts() [13]*int {
	return [13]*int{&m.States, &m.Transitions, &m.EventsTriggered, &m.NetworkEvents, &m.XHRSends,
		&m.NetworkCalls, &m.HotNodeHits, &m.HandlerErrors, &m.StatesPruned,
		&m.NearDupMerges, &m.NearDupCandidates, &m.Retries, &m.PagesRecovered}
}

// Crawler crawls AJAX pages into transition graphs.
type Crawler struct {
	Fetcher fetch.Fetcher
	Opts    Options

	// scripts is handed to every page this crawler loads, so the <script>
	// the pages of a site share is parsed once per process line. It dies
	// with the crawler.
	scripts browser.ProgramCache
}

// New returns a crawler over the given fetcher, wrapped by Retrying.
func New(fetcher fetch.Fetcher, opts Options) *Crawler {
	opts = opts.withDefaults()
	return &Crawler{Fetcher: opts.Retrying(fetcher), Opts: opts}
}

// Retrying wraps f in a fetch.RetryFetcher under RetryPolicy, its
// backoff on Clock, or returns f when RetryPolicy is nil. The crawl's
// fetcher is wrapped so; wrap the precrawl's too, or a transient fault
// there drops a page (and every link only it leads to) from the crawl.
func (o Options) Retrying(f fetch.Fetcher) fetch.Fetcher {
	if o.RetryPolicy == nil {
		return f
	}
	o = o.withDefaults()
	return fetch.NewRetryFetcher(f, *o.RetryPolicy, o.Clock)
}

// CrawlPage builds the AJAX page model for one URL (Alg. 3.1.1 /
// Alg. 4.2.1 depending on Opts.UseHotNode). When Opts.PageTimeout is
// set, the whole page crawl — fetches, script execution, event
// dispatch — runs under a derived deadline; on expiry the partial graph
// built so far is returned alongside the context error.
func (c *Crawler) CrawlPage(ctx context.Context, url string) (*model.Graph, PageMetrics, error) {
	opts := c.Opts.withDefaults()
	if opts.PageTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.PageTimeout)
		defer cancel()
	}
	tel := obs.From(ctx)
	ctx, sp := obs.StartSpan(ctx, obs.SpanPageCrawl, obs.A("url", url))
	tel.Gauge("crawl.pages.inflight").Add(1)
	defer tel.Gauge("crawl.pages.inflight").Add(-1)
	pm := PageMetrics{URL: url}
	start := opts.Clock.Now()
	wallStart := time.Now()
	// The fetch layers' running totals, read before and after the page:
	// their deltas are what this page cost.
	stats, rstats := fetch.FindStats(c.Fetcher), fetch.FindRetryStats(c.Fetcher)
	totals := func() (net time.Duration, retries int64) {
		if stats != nil {
			net = stats.Stats().NetworkTime
		}
		if rstats != nil {
			retries = rstats.RetryStats().Retries
		}
		return net, retries
	}
	netStart, retryStart := totals()

	graph := model.NewGraph(url)
	page := browser.NewPage(c.Fetcher)
	page.MaxJSSteps = opts.JSStepBudget
	page.Scripts = &c.scripts

	var crawlErr error
	if opts.Traditional {
		// Traditional crawling: read the document, JavaScript disabled.
		crawlErr = page.LoadStatic(ctx, url)
		if crawlErr == nil {
			graph.AddState(page.Hash(), page.Doc.VisibleText(), 0)
			tel.Counter("crawl.states.discovered").Inc()
		}
	} else {
		crawlErr = c.crawlDynamic(ctx, page, graph, url, opts, &pm)
	}

	pm.States = graph.NumStates()
	pm.Transitions = len(graph.Transitions)
	pm.CrawlTime = opts.Clock.Now().Sub(start)
	if _, real := opts.Clock.(fetch.RealClock); !real {
		// Under a virtual clock only simulated network delays advance
		// Clock; the wall time spent is pure processing (JS execution,
		// DOM work, model maintenance) and is charged on top, so
		// CrawlTime models a real run with the simulated latencies.
		pm.CrawlTime += time.Since(wallStart)
	}
	net, retries := totals()
	pm.NetworkTime, pm.Retries = net-netStart, int(retries-retryStart)
	if crawlErr == nil && pm.Retries > 0 {
		// The page made it, but only because the retry layer recovered
		// at least one fetch along the way.
		pm.PagesRecovered = 1
	}
	// Close the span whatever happened — a PageTimeout abort still emits
	// the page.crawl record, carrying the context error and the partial
	// state count.
	sp.SetAttr("states", strconv.Itoa(pm.States))
	sp.End(crawlErr)
	publishPageMetrics(tel, pm)
	if crawlErr != nil {
		if graph.NumStates() == 0 {
			graph = nil
		}
		return graph, pm, crawlErr
	}
	return graph, pm, nil
}

// snapshot keeps a state to expand (a variable, for tests to count).
var snapshot = (*browser.Page).Snapshot

// crawlDynamic is the breadth-first event-driven crawl. Cancellation is
// checked between events, so a canceled context stops the crawl within
// one event dispatch (itself bounded by the JS step budget).
func (c *Crawler) crawlDynamic(ctx context.Context, page *browser.Page, graph *model.Graph, url string, opts Options, pm *PageMetrics) error {
	var hot *HotNodeCache
	if opts.UseHotNode {
		hot = NewHotNodeCache()
		page.XHR = hot.Hook()
	}

	// init(url): read document, run onload, record the initial state.
	if err := page.Load(ctx, url); err != nil {
		return err
	}
	if err := page.RunOnLoad(ctx); err != nil {
		if ctxAbort(ctx, err) {
			return err
		}
		// Broken onload is logged as a handler error, not fatal: the
		// initial DOM is still crawlable.
		pm.HandlerErrors++
	}
	tel := obs.From(ctx)
	admit := newStateAdmitter(graph, opts, pm, tel)
	initial, _, _ := admit.state(page.Hash(), page.Doc, 0)
	graph.Initial = initial

	snapshots := map[model.StateID]*browser.Snapshot{initial: snapshot(page)}
	queue := []model.StateID{initial}

	// intern gives each distinct string a transition keeps one copy per
	// page: sources, handler code and target ids are cut from the page's
	// HTML and XHR bodies, which a kept graph must not pin.
	interned := map[string]string{}
	intern := func(s string) string {
		c, ok := interned[s]
		if !ok {
			c = strings.Clone(s)
			interned[c] = c
		}
		return c
	}

	// explore rolls the page back to state cur (Alg. 3.1.1 line 17),
	// fires one event or form probe through trigger, charges its XHR
	// traffic to the page — every send is a network call or a hot-node
	// hit — and records where it led. A new state is queued unless the
	// focused-crawl filter rejects its text: then it stays in the model
	// but is not expanded.
	explore := func(cur model.StateID, snap *browser.Snapshot, ev browser.Event, probe string, trigger func() (bool, error)) error {
		page.Restore(snap)
		sendsBefore, netBefore := page.XHRSends, page.NetworkCalls
		changed, err := trigger()
		pm.EventsTriggered++
		tel.Counter("crawl.events.triggered").Inc()
		pm.XHRSends += page.XHRSends - sendsBefore
		pm.NetworkCalls += page.NetworkCalls - netBefore
		if page.NetworkCalls > netBefore {
			pm.NetworkEvents++
		}
		if err != nil {
			if ctxAbort(ctx, err) {
				return err
			}
			// A handler preempted by the JS step budget lands here too:
			// it is a property of the page, not the crawl.
			pm.HandlerErrors++
			return nil
		}
		if !changed {
			return nil
		}
		newID, text, isNew := admit.state(page.Hash(), page.Doc, graph.State(cur).Depth+1)
		graph.AddTransition(&model.Transition{
			From:       cur,
			To:         newID,
			Source:     intern(ev.Source()),
			Event:      intern(ev.Type),
			Code:       intern(ev.Code),
			SourcePath: intern(ev.Path),
			Targets:    dom.Targets(page.Doc, intern),
			Action:     "innerHTML",
			Probe:      probe,
		})
		if !isNew {
			return nil
		}
		switch {
		case opts.StateFilter != nil && !opts.StateFilter(text):
			pm.StatesPruned++
		case graph.NumStates() >= opts.MaxStates: // BFS expands nothing more
			clear(snapshots)
		default:
			snapshots[newID] = snapshot(page)
			queue = append(queue, newID)
		}
		return nil
	}

	for len(queue) > 0 && graph.NumStates() < opts.MaxStates {
		if err := ctx.Err(); err != nil {
			return err
		}
		cur := queue[0]
		queue = queue[1:]
		// BFS expands a state once: its tree lives on in snap only.
		snap := snapshots[cur]
		delete(snapshots, cur)

		page.Restore(snap)
		events := page.Events(nil)
		formEvents := page.FormEvents()
		for _, ev := range events {
			if err := ctx.Err(); err != nil {
				return err
			}
			if graph.NumStates() >= opts.MaxStates {
				break
			}
			if err := explore(cur, snap, ev, "", func() (bool, error) { return page.Trigger(ctx, ev) }); err != nil {
				return err
			}
		}
		// Form crawling: probe every reactive input with each value.
		for _, fev := range formEvents {
			for _, probe := range opts.FormProbes {
				if err := ctx.Err(); err != nil {
					return err
				}
				if graph.NumStates() >= opts.MaxStates {
					break
				}
				if err := explore(cur, snap, fev, probe, func() (bool, error) { return page.TriggerWithValue(ctx, fev, probe) }); err != nil {
					return err
				}
			}
		}
	}

	if hot != nil {
		pm.HotNodeHits += hot.Hits
	}
	return nil
}

// ctxAbort reports whether err means the crawl's own context ended —
// those errors abort the page instead of being counted as handler
// errors (the page did nothing wrong; the budget ran out).
func ctxAbort(ctx context.Context, err error) bool {
	return ctx.Err() != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// CrawlAll crawls a list of URLs sequentially, returning the graphs and
// aggregate metrics. Under the default SkipAndCount policy, pages whose
// crawl fails are skipped and counted in Metrics.PagesFailed; with
// FailFast the first page error aborts the run. Either way the graphs
// crawled so far are returned. Cancellation of ctx always stops the run
// promptly — within one page budget — with the partial graphs intact.
//
// With Options.Checkpoint set, each completed page is durably journaled
// before the next one starts, and pages the journal already holds are
// served from it (folded into the result with their journaled metrics,
// counted in Metrics.PagesResumed) instead of being re-crawled — the
// resume half of the crash-tolerance contract.
func (c *Crawler) CrawlAll(ctx context.Context, urls []string) ([]*model.Graph, *Metrics, error) {
	var graphs []*model.Graph
	metrics := &Metrics{}
	tel := obs.From(ctx)
	cp := c.Opts.Checkpoint
	for _, u := range urls {
		if err := ctx.Err(); err != nil {
			return graphs, metrics, err
		}
		if cp != nil {
			if g, pm, ok := cp.Completed(u); ok {
				graphs = append(graphs, g)
				metrics.Add(pm)
				metrics.PagesResumed++
				tel.Counter("crawl.partition.resumed_pages").Inc()
				if c.Opts.OnPage != nil {
					c.Opts.OnPage(pm)
				}
				continue
			}
		}
		g, pm, err := c.CrawlPage(ctx, u)
		tel.Counter("crawl.pages").Inc()
		if c.Opts.OnPage != nil {
			c.Opts.OnPage(pm)
		}
		if err != nil {
			// The caller's context ending is never a page failure: stop
			// and hand back what is already crawled. A page that blew
			// only its own PageTimeout falls through to the policy.
			if ctx.Err() != nil {
				return graphs, metrics, ctx.Err()
			}
			if c.Opts.OnError == FailFast {
				return graphs, metrics, fmt.Errorf("core: crawl %s: %w", u, err)
			}
			metrics.PagesFailed++
			tel.Counter("crawl.pages.failed").Inc()
			continue
		}
		graphs = append(graphs, g)
		metrics.Add(pm)
		if cp != nil {
			// Journal before moving on: once the next page starts, this
			// one must already be durable. A write failure here is a
			// broken journal, not a broken page — fail the crawl so the
			// operator never resumes from a journal missing pages the
			// run reported crawled.
			if jerr := cp.PageDone(u, g, pm); jerr != nil {
				return graphs, metrics, fmt.Errorf("core: checkpoint %s: %w", u, jerr)
			}
		}
	}
	return graphs, metrics, nil
}

// stateAdmitter decides whether a crawled DOM is a genuinely new state:
// exact-hash duplicates collapse as always (Alg. 3.1.1), and — when a
// NearDupThreshold is set — states whose sketch similarity to an
// existing state reaches the threshold are merged into it.
//
// A page holds at most MaxStates states, so the merge target is found by
// comparing the candidate with every admitted signature in admission
// order, which is ascending StateID order: the first match is the
// lowest matching StateID, deterministically.
type stateAdmitter struct {
	graph     *model.Graph
	threshold float64
	pm        *PageMetrics
	tel       *obs.Telemetry
	// ids and sigs are the admitted states and their signatures, in
	// admission order.
	ids      []model.StateID
	sigs     []shingle.Signature
	raw      []byte // the candidate's text nodes, reused per state
	sketcher shingle.Sketcher
}

func newStateAdmitter(graph *model.Graph, opts Options, pm *PageMetrics, tel *obs.Telemetry) *stateAdmitter {
	return &stateAdmitter{graph: graph, threshold: opts.NearDupThreshold, pm: pm, tel: tel}
}

// state admits (or merges) the candidate state doc, whose hash is h, and
// returns its ID, counting the outcome in the registry as it happens. A
// new state's visible text is built, returned and its signature copied
// out of the sketcher only on admission, so a candidate that merges away
// or is an exact duplicate allocates nothing.
func (a *stateAdmitter) state(h dom.Hash, doc *dom.Node, depth int) (id model.StateID, text string, isNew bool) {
	if id, ok := a.graph.FindByHash(h); ok {
		a.tel.Counter("crawl.states.deduped").Inc()
		return id, "", false
	}
	var sig shingle.Signature
	if a.threshold > 0 {
		a.raw = doc.AppendText(a.raw[:0])
		sig = a.sketcher.Sketch(a.raw)
		if target, merged := a.mergeTarget(sig); merged {
			a.pm.NearDupMerges++
			a.tel.Counter("crawl.states.neardup.merged").Inc()
			return target, "", false
		}
		sig = append(sig[:0:0], sig...)
	}
	text = doc.VisibleText()
	id, _ = a.graph.AddState(h, text, depth) // new: FindByHash missed
	a.tel.Counter("crawl.states.discovered").Inc()
	if a.threshold > 0 {
		a.ids = append(a.ids, id)
		a.sigs = append(a.sigs, sig)
	}
	return id, text, true
}

// mergeTarget finds the lowest-StateID admitted state whose signature
// similarity to sig reaches the threshold, or reports none, counting
// each comparison in NearDupCandidates.
func (a *stateAdmitter) mergeTarget(sig shingle.Signature) (id model.StateID, ok bool) {
	n := 0
	for i, s := range a.sigs {
		n++
		if sig.Similarity(s) >= a.threshold {
			id, ok = a.ids[i], true
			break
		}
	}
	a.pm.NearDupCandidates += n
	a.tel.Counter("crawl.states.neardup.candidates").Add(int64(n))
	return id, ok
}
