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
// wherever pages remain. Partitions survive as the result layout:
// every URL remembers its (partition, seq) slot and results are still
// assembled, saved, and streamed per partition directory.
//
// On top sits the supervisor, now at page granularity: a page whose
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
	// Partitions are the partition directories to process, as produced
	// by URLPartitioner.Partition. They are read up front and admitted
	// to the frontier as one batch.
	Partitions []string
	// SaveModels controls whether each partition's graphs are serialized
	// into its directory (the thesis always does; tests may skip I/O).
	SaveModels bool
	// Priorities maps URLs to their precrawl PageRank. Values are
	// normalized so the maximum admits at priority 1; missing URLs (or
	// a nil map) admit at 0 and the frontier degrades to partition
	// order.
	Priorities map[string]float64
	// SeedSeen feeds the precrawl visited set into the frontier's bloom
	// filter, so URLs the precrawler already saw are rejected if
	// rediscovered dynamically.
	SeedSeen map[string]bool
	// FrontierSeed seeds the scheduler's steal-victim PRNG. Results are
	// order-independent for any seed; the seed makes the schedule
	// itself reproducible. 0 selects seed 1.
	FrontierSeed int64
	// BloomBits sizes the frontier's dedup bloom filter in bits; <= 0
	// selects the frontier default (1 MiB of bits).
	BloomBits int
	// StealBatch is how many URLs a line pulls from the frontier per
	// refill (surplus is stealable by siblings); <= 0 selects the
	// scheduler default.
	StealBatch int
	// YieldWeight scales the expected-AJAX-state-yield boost added to a
	// URL's priority when it is requeued (the boost is learned per URL
	// class from pages already crawled, normalized to [0,1)). 0 selects
	// 0.25; negative disables the boost.
	YieldWeight float64
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

// ErrLineStuck marks a page attempt canceled by the stuck-line
// watchdog: no page completed within StuckTimeout.
var ErrLineStuck = errors.New("core: process line stuck: no page completed within the watchdog timeout")

// PartitionResult is one completed partition, as emitted by Stream
// while other pages are still crawling. Pages of one partition may have
// been crawled by several process lines; the result is assembled in the
// partition's URL order regardless.
type PartitionResult struct {
	// Index is the partition's position in Partitions.
	Index int
	// Dir is the partition directory.
	Dir string
	// Graphs are the partition's application models (possibly partial
	// when Err is a cancellation).
	Graphs []*model.Graph
	// Metrics are this partition's crawl metrics (never nil).
	Metrics *Metrics
	// Err is the partition's failure, if any — the first failed page's
	// error (in URL order) once that page's restarts are exhausted.
	Err error
	// Restarts is how many supervisor requeues this partition's pages
	// consumed in total.
	Restarts int
}

// MPResult is the outcome of a parallel crawl.
type MPResult struct {
	// GraphsByPartition holds each partition's application models, index-
	// aligned with Partitions.
	GraphsByPartition [][]*model.Graph
	// Metrics aggregates all process lines. PerPage is ordered by
	// partition (then by URL order within the partition), not by
	// scheduling order, so experiment output is reproducible run to
	// run whatever the frontier did.
	Metrics *Metrics
	// Errors holds the first error of each failed partition (nil entries
	// for successful ones). A canceled run leaves the context error in
	// the partitions that were cut short and nil in untouched ones.
	Errors []error
	// Restarts holds each partition's supervisor requeue total,
	// index-aligned with Partitions.
	Restarts []int
}

// Graphs flattens all partitions' graphs in partition order.
func (r *MPResult) Graphs() []*model.Graph {
	var out []*model.Graph
	for _, gs := range r.GraphsByPartition {
		out = append(out, gs...)
	}
	return out
}

// Err returns the first partition error, if any.
func (r *MPResult) Err() error {
	for i, err := range r.Errors {
		if err != nil {
			return fmt.Errorf("core: partition %d: %w", i+1, err)
		}
	}
	return nil
}

// itemResult is one retired page attempt, sent to the assembler.
type itemResult struct {
	part, seq int
	graphs    []*model.Graph
	metrics   *Metrics
	err       error
	requeues  int
	tripped   bool
}

// partAssembly accumulates one partition's item results until complete.
type partAssembly struct {
	dir      string
	urls     []string
	readErr  error
	graphs   [][]*model.Graph
	metrics  []*Metrics
	errs     []error
	restarts int
	tripped  bool
	reported int
	started  bool
	emitted  bool
}

// Stream starts the process lines and returns a channel that yields
// each partition as soon as its last page retires, so downstream phases
// (indexing) overlap with crawling. The channel is closed once every
// process line has drained. Canceling ctx stops the hand-out of new
// pages and cuts short in-flight ones; partitions that had started
// still emit their partial graphs with Err set to the context error,
// untouched partitions emit nothing.
//
// Supervision: a page attempt that fails for any reason other than the
// caller's context ending is requeued into the frontier up to
// MaxRestarts times (the frontier.requeues counter meters every
// requeue) before its error lands in the partition result. Exactly one
// PartitionResult is emitted per partition that started, whatever the
// scheduling.
func (m *MPCrawler) Stream(ctx context.Context) <-chan PartitionResult {
	n := m.ProcLines
	if n <= 0 {
		n = 1
	}
	tel := obs.From(ctx)
	out := make(chan PartitionResult)

	// Read every partition up front; the frontier is admitted as one
	// batch so tier boundaries see the whole priority distribution.
	parts := make([]*partAssembly, len(m.Partitions))
	for i, dir := range m.Partitions {
		ps := &partAssembly{dir: dir}
		ps.urls, ps.readErr = ReadPartition(dir)
		ps.graphs = make([][]*model.Graph, len(ps.urls))
		ps.metrics = make([]*Metrics, len(ps.urls))
		ps.errs = make([]error, len(ps.urls))
		parts[i] = ps
	}

	// Priorities: journaled admission priorities (resume) win, then
	// normalized PageRank, then 0 (partition-order FIFO).
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
	yieldW := m.YieldWeight
	if yieldW == 0 {
		yieldW = 0.25
	}
	est := frontier.NewYieldEstimator(0)

	fr := frontier.New(frontier.Config{BloomBits: m.BloomBits, Tel: tel})
	var seed []frontier.Item
	seen := make(map[string]bool)
	for pi, ps := range parts {
		for si, u := range ps.urls {
			if seen[u] {
				// A URL duplicated across partitions is crawled (and
				// reported) only under its first slot; the duplicate
				// slot completes vacuously.
				ps.reported++
				continue
			}
			seen[u] = true
			seed = append(seed, frontier.Item{URL: u, Partition: pi, Seq: si, Priority: basePri(u)})
		}
	}
	fr.AdmitSeed(seed)
	if m.SeedSeen != nil {
		fr.MarkSeen(m.SeedSeen)
	}
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
				URL: it.URL, Partition: it.Partition, Seq: it.Seq, Priority: it.Priority,
			}); err != nil {
				break // sticky journal error; surfaces on Flush/Close
			}
		}
		_ = m.Checkpoints.FlushFrontier()
	}

	sched := frontier.NewScheduler(fr, frontier.SchedConfig{
		Lines: n, Batch: m.StealBatch, Seed: m.FrontierSeed, Tel: tel,
	})

	results := make(chan itemResult, n)
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
				r := w.run(ctx, it)
				tel.Gauge("crawl.lines.busy").Add(-1)
				if r.err != nil && ctx.Err() == nil && it.Attempt < m.MaxRestarts {
					// Supervisor: the attempt failed on its own (error,
					// panic, watchdog) — requeue into the frontier
					// rather than report. Any line may pick it up; the
					// union read over the line journals carries the
					// pages completed before the failure.
					tel.Counter("frontier.requeues").Inc()
					it.Attempt++
					it.Priority = basePri(it.URL)
					if yieldW > 0 {
						it.Priority += yieldW * est.Boost(it.URL)
					}
					sched.Requeue(it)
					continue
				}
				if r.err == nil && r.metrics != nil {
					est.Observe(it.URL, r.metrics.States)
				}
				results <- itemResult{
					part: it.Partition, seq: it.Seq,
					graphs: r.graphs, metrics: r.metrics, err: r.err,
					requeues: it.Attempt, tripped: r.tripped,
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

	// Assembler: the single owner of partition state and the out
	// channel. It folds item results into their partition slots and
	// emits each partition the moment its last page retires.
	go func() {
		defer close(out)
		emit := func(i int, forcedErr error) {
			ps := parts[i]
			var graphs []*model.Graph
			metrics := &Metrics{}
			var err error
			for si := range ps.urls {
				graphs = append(graphs, ps.graphs[si]...)
				if ps.metrics[si] != nil {
					metrics.Merge(ps.metrics[si])
				}
				if err == nil && ps.errs[si] != nil {
					err = ps.errs[si]
				}
			}
			if err == nil {
				err = forcedErr
			}
			if m.SaveModels && len(graphs) > 0 {
				// Partial-model flush: even a failed partition keeps
				// what it crawled, the graceful-shutdown property.
				if saveErr := model.SaveAll(ps.dir, graphs); saveErr != nil && err == nil {
					err = saveErr
				}
			}
			tel.Counter("crawl.partitions").Inc()
			if ps.tripped {
				tel.Counter("crawl.partitions.breaker_tripped").Inc()
			}
			ps.emitted = true
			out <- PartitionResult{
				Index: i, Dir: ps.dir,
				Graphs: graphs, Metrics: metrics, Err: err, Restarts: ps.restarts,
			}
		}
		// Partitions decided before any crawling: unreadable URL lists
		// and empty (or fully-duplicate) ones.
		for i, ps := range parts {
			if ps.readErr != nil {
				ps.emitted = true
				tel.Counter("crawl.partitions").Inc()
				out <- PartitionResult{Index: i, Dir: ps.dir, Metrics: &Metrics{}, Err: ps.readErr}
			} else if ps.reported == len(ps.urls) {
				emit(i, nil)
			}
		}
		for r := range results {
			ps := parts[r.part]
			ps.started = true
			ps.graphs[r.seq] = r.graphs
			ps.metrics[r.seq] = r.metrics
			ps.errs[r.seq] = r.err
			ps.restarts += r.requeues
			ps.tripped = ps.tripped || r.tripped
			ps.reported++
			if ps.reported == len(ps.urls) {
				emit(r.part, nil)
			}
		}
		// The lines have drained. Anything unemitted was cut short by
		// cancellation (or a poisoned crawl): partitions that started
		// emit partial results, untouched ones stay silent — unless the
		// whole crawl failed to initialize, which every partition must
		// report.
		cause := context.Cause(ctx)
		if cause == nil {
			cause = ctx.Err()
		}
		if err, _ := initErr.Load().(error); err != nil {
			cause = err
		}
		for i, ps := range parts {
			if ps.emitted {
				continue
			}
			if ps.started || initErr.Load() != nil {
				emit(i, cause)
			}
		}
	}()
	return out
}

// Run executes the parallel crawl and blocks until every process line
// has finished. On cancellation it returns early-but-cleanly:
// partitions completed before the cancel keep their graphs, started
// partitions contribute their partial graphs with the context error
// recorded, and untouched partitions stay empty.
func (m *MPCrawler) Run(ctx context.Context) *MPResult {
	res := &MPResult{
		GraphsByPartition: make([][]*model.Graph, len(m.Partitions)),
		Metrics:           &Metrics{},
		Errors:            make([]error, len(m.Partitions)),
		Restarts:          make([]int, len(m.Partitions)),
	}
	perPart := make([]*Metrics, len(m.Partitions))
	for pr := range m.Stream(ctx) {
		res.GraphsByPartition[pr.Index] = pr.Graphs
		res.Errors[pr.Index] = pr.Err
		res.Restarts[pr.Index] = pr.Restarts
		perPart[pr.Index] = pr.Metrics
	}
	// Merge in partition order — not completion order — so
	// Metrics.PerPage is deterministic across runs.
	for _, metrics := range perPart {
		if metrics != nil {
			res.Metrics.Merge(metrics)
		}
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

// itemOutcome is one page attempt's result.
type itemOutcome struct {
	graphs  []*model.Graph
	metrics *Metrics
	err     error
	tripped bool
}

// run crawls one page. Fault isolation happens here, per page: a panic
// is recovered at this boundary (and the crawler rebuilt), a wedged
// attempt is canceled by the watchdog, and a circuit-breaker trip is
// detected on the breaker's own counters so it can be attributed to the
// page's partition — sibling lines keep crawling undisturbed through
// all three.
func (w *lineWorker) run(ctx context.Context, it frontier.Item) (res itemOutcome) {
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
	// Trips are detected on the breaker's own counters, not the crawl
	// metrics: a page that failed *because* the circuit opened is
	// dropped from Metrics by the skip-and-count policy, but its open
	// transition still shows in the stats delta.
	var opensStart int64
	bstats := fetch.FindBreakerStats(w.c.Fetcher)
	if bstats != nil {
		opensStart = bstats.BreakerStats().Opens
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				// Graphs built before the panic are indeterminate —
				// drop them; the journal, not the wreckage, is the
				// requeue's source of truth. The crawler is rebuilt:
				// its internal state unwound mid-flight.
				res.graphs = nil
				res.err = fmt.Errorf("core: page %s: panic: %v", it.URL, r)
				w.tel.Counter("crawl.line.panics").Inc()
				w.tel.Counter("crawl.line.restarts").Inc()
				w.build()
			}
		}()
		res.graphs, res.metrics, res.err = w.c.CrawlAll(ictx, []string{it.URL})
	}()
	if res.metrics == nil {
		res.metrics = &Metrics{}
	}
	if res.err != nil && errors.Is(context.Cause(ictx), ErrLineStuck) {
		// Surface the watchdog trip instead of a bare context.Canceled,
		// so the caller (and the supervisor's requeue check against the
		// *outer* context) can tell a wedged page from a Ctrl-C.
		res.err = fmt.Errorf("core: page %s: %w", it.URL, ErrLineStuck)
	}
	if bstats != nil && bstats.BreakerStats().Opens > opensStart {
		res.tripped = true
	}
	if res.err != nil && errors.Is(res.err, fetch.ErrBreakerOpen) {
		res.tripped = true
	}
	return res
}

// watchdog cancels the current attempt when the heartbeat goes stale.
func (w *lineWorker) watchdog(stop <-chan struct{}, cancel context.CancelCauseFunc) {
	poll := w.m.StuckTimeout / 8
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	if poll > 250*time.Millisecond {
		poll = 250 * time.Millisecond
	}
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
