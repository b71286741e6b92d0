package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ajaxcrawl/internal/browser"
	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/html"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/js"
	"ajaxcrawl/internal/lsh"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/pagerank"
	"ajaxcrawl/internal/shingle"
)

// recordingFetcher is the traced run's fetch boundary: one "fetch" span
// per call (child of whatever benchmark span the context carries) and a
// copy of every body, which the layer replay then feeds to each layer
// in isolation.
type recordingFetcher struct {
	inner fetch.Fetcher
	tr    *tracer

	mu     sync.Mutex
	bodies map[string][]byte
}

func (f *recordingFetcher) Fetch(ctx context.Context, rawurl string) (*fetch.Response, error) {
	id := f.tr.start("fetch", spanFrom(ctx), 0)
	resp, err := f.inner.Fetch(ctx, rawurl)
	f.tr.end(id)
	if err == nil && resp != nil {
		f.mu.Lock()
		f.bodies[rawurl] = resp.Body
		f.mu.Unlock()
	}
	return resp, err
}

// replayFetcher serves captured bodies: the network layer with the
// network taken out, so what remains under a replay span is the layer.
type replayFetcher struct {
	tr     *tracer
	bodies map[string][]byte
}

func (f *replayFetcher) Fetch(ctx context.Context, rawurl string) (*fetch.Response, error) {
	id := f.tr.start("replay.fetch", spanFrom(ctx), 0)
	defer f.tr.end(id)
	body, ok := f.bodies[rawurl]
	if !ok {
		return nil, fmt.Errorf("replay: %s was never fetched by the traced crawl", rawurl)
	}
	return &fetch.Response{Status: 200, Body: body, ContentType: "text/html; charset=utf-8"}, nil
}

// traceCrawl measures tracedRounds pipeline rounds with spans on, reads
// the crawler's public counters, then replays the captured site layer
// by layer.
func traceCrawl(ctx context.Context, w *crawlWorkload, tr *tracer, layers layerSet, traced *roundTotals) error {
	rec := &recordingFetcher{inner: w.fetcher, tr: tr, bodies: make(map[string][]byte)}
	plain := w.fetcher
	w.fetcher, w.tr = rec, tr
	for i := 0; i < tracedRounds; i++ {
		traced.measureRound(ctx, w)
	}
	w.fetcher, w.tr = plain, nil
	if traced.failed > 0 {
		return fmt.Errorf("traced round failed: %w", traced.firstErr)
	}

	// Public counters of the last traced round.
	m := w.last.eng.Metrics
	pages := float64(m.Pages)
	layers["fetch.calls_per_page"] = float64(traced.calls) / float64(traced.ops)
	layers["fetch.kb_per_page"] = float64(traced.bytes) / 1024 / float64(traced.ops)
	if m.XHRSends > 0 {
		layers["core.hotnode_hit_ratio"] = float64(m.HotNodeHits) / float64(m.XHRSends)
	}
	layers["core.events_per_page"] = float64(m.EventsTriggered) / pages
	layers["core.states_per_page"] = float64(m.States) / pages
	layers["core.neardup_merges_per_page"] = float64(m.NearDupMerges) / pages
	layers["core.neardup_candidates_per_page"] = float64(m.NearDupCandidates) / pages
	var crawlTimes []time.Duration
	var busy time.Duration
	for _, pm := range m.PerPage {
		crawlTimes = append(crawlTimes, pm.CrawlTime)
		busy += pm.CrawlTime
	}
	crawlPageUS := float64(busy) / float64(time.Microsecond) / pages
	layers["core.crawl_page_us"] = crawlPageUS
	layers["core.page_p99_ms"] = percentile(durationsMS(crawlTimes), 0.99)

	stats := tr.stats()
	build := stats["pipeline.build_engine"]
	if build.Total > 0 {
		layers["core.line_busy_share"] = float64(busy) * tracedRounds /
			(float64(w.spec.Lines) * float64(build.Total))
	}
	fetches := stats["fetch"]
	layers["fetch.wait_us_per_call"] = fetches.selfUS()
	layers["index.snapshot_save_ms"] = float64(stats["pipeline.save_snapshot"].Total) /
		float64(time.Millisecond) / tracedRounds

	graphs := crawledGraphs(w.last.eng)
	rp := &crawlReplay{
		spec:   w.spec,
		tr:     tr,
		bodies: rec.bodies,
		fetch:  &replayFetcher{tr: tr, bodies: rec.bodies},
	}
	if err := rp.precrawl(ctx, w.site, layers); err != nil {
		return err
	}
	for i, g := range graphs {
		if err := rp.page(ctx, i+1, g); err != nil {
			return err
		}
	}
	rp.fragments()
	if err := rp.indexLayers(graphs, w.last.eng.PageRank, filepath.Join(w.outDir, "replay-snapshot"), layers); err != nil {
		return err
	}

	stats = tr.stats()
	n := float64(len(graphs))
	perPage := func(name string) float64 {
		return float64(stats[name].Self) / float64(time.Microsecond) / n
	}
	layers["html.parse_us_per_page"] = perPage("html.parse")
	layers["html.fragment_us_per_call"] = stats["html.fragment"].selfUS()
	layers["js.parse_us_per_page"] = perPage("js.parse")
	layers["js.run_us_per_page"] = perPage("js.run")
	layers["browser.load_us_per_page"] = perPage("browser.load")
	layers["browser.trigger_self_us_per_event"] = stats["browser.trigger"].selfUS()
	layers["browser.snapshot_us_per_call"] = stats["browser.snapshot"].selfUS()
	layers["browser.restore_us_per_call"] = stats["browser.restore"].selfUS()
	layers["dom.clone_us_per_call"] = stats["dom.clone"].selfUS()
	layers["dom.hash_us_per_state"] = stats["dom.hash"].selfUS()
	layers["dom.text_us_per_state"] = stats["dom.text"].selfUS()
	layers["shingle.sketch_us_per_state"] = stats["shingle.sketch"].selfUS()
	layers["lsh.add_us_per_state"] = stats["lsh.add"].selfUS()
	layers["lsh.probe_us_per_state"] = stats["lsh.probe"].selfUS()
	if rp.probes > 0 {
		layers["lsh.candidates_per_probe"] = float64(rp.candidates) / float64(rp.probes)
	}
	layers["index.add_graph_us_per_page"] = perPage("index.add_graph")
	layers["model.encode_us_per_graph"] = stats["model.encode"].selfUS()

	// The ledger: what the replayed layers explain of a page's CrawlTime.
	// The replay drives the same browser.Page calls Alg. 3.1.1 makes, so
	// the residual is what core adds around them — transition diffing,
	// model bookkeeping, telemetry, scheduling. Fetch time is taken from
	// the traced rounds (the replay's own fetches are map lookups): all
	// fetches after the precrawl's one per page belong to page crawls.
	if rp.states != m.States {
		return fmt.Errorf("replay reached %d states, the crawl %d: the outside-in loop no longer mirrors core", rp.states, m.States)
	}
	var attributed time.Duration
	for _, name := range []string{"browser.load", "browser.onload", "browser.events", "browser.restore",
		"browser.trigger", "browser.snapshot", "dom.hash", "dom.text", "shingle.sketch", "lsh.probe", "lsh.add"} {
		attributed += stats[name].Self
	}
	crawlFetches := float64(fetches.Count)/tracedRounds - n
	attributedUS := float64(attributed)/float64(time.Microsecond)/n + crawlFetches*fetches.selfUS()/n
	if crawlPageUS > 0 {
		layers["core.unattributed_share"] = 1 - attributedUS/crawlPageUS
	}
	return nil
}

// crawlReplay drives each layer's public functions over captured bodies.
type crawlReplay struct {
	spec   crawlSpec
	tr     *tracer
	bodies map[string][]byte
	fetch  *replayFetcher

	states, probes, candidates int
}

// precrawl times the hyperlink phase and PageRank on their own.
func (rp *crawlReplay) precrawl(ctx context.Context, site *benchSite, layers layerSet) error {
	id := rp.tr.start("core.precrawl", 0, 0)
	res, err := (&core.Precrawler{
		Fetcher:  rp.fetch,
		StartURL: indexURL,
		MaxPages: site.pages(),
		KeepURL:  func(u string) bool { return site.keep[u] },
	}).Run(withSpan(ctx, id))
	rp.tr.end(id)
	if err != nil {
		return fmt.Errorf("replay precrawl: %w", err)
	}
	crawled := make(map[string]bool, len(res.URLs))
	for _, u := range res.URLs {
		crawled[u] = true
	}
	links := make(map[string][]string, len(res.URLs))
	for _, u := range res.URLs {
		links[u] = nil
		for _, to := range res.Links[u] {
			if crawled[to] {
				links[u] = append(links[u], to)
			}
		}
	}
	rp.tr.timed("pagerank.compute", 0, 0, func() { pagerank.Compute(links, pagerank.Options{}) })
	stats := rp.tr.stats()
	rank := stats["pagerank.compute"].Total
	// Precrawler.Run computes PageRank too; its own share is the span's
	// self time less one PageRank run.
	layers["core.precrawl_ms"] = float64(stats["core.precrawl"].Self-rank) / float64(time.Millisecond)
	layers["pagerank.compute_ms"] = float64(rank) / float64(time.Millisecond)
	return nil
}

// page replays one page: each parsing layer in isolation, then the
// inner loop of Alg. 3.1.1 through browser.Page from outside.
func (rp *crawlReplay) page(ctx context.Context, op int, g *model.Graph) error {
	tr := rp.tr
	root := tr.start("replay.page", 0, op)
	defer tr.end(root)
	body := string(rp.bodies[g.URL])

	var doc *dom.Node
	tr.timed("html.parse", root, op, func() { doc = html.Parse(body) })
	tr.timed("dom.clone", root, op, func() { doc.Clone() })
	for _, s := range doc.ElementsByTag("script") {
		if s.FirstChild == nil {
			continue
		}
		var prog *js.Program
		var err error
		tr.timed("js.parse", root, op, func() { prog, err = js.Parse(s.FirstChild.Data) })
		if err != nil {
			return fmt.Errorf("replay %s: %w", g.URL, err)
		}
		tr.timed("js.run", root, op, func() { _, err = js.New().RunProgram(prog) })
		if err != nil {
			return fmt.Errorf("replay %s: %w", g.URL, err)
		}
	}

	page := browser.NewPage(rp.fetch)
	page.XHR = core.NewHotNodeCache().Hook()
	var err error
	in := func(name string, fn func(ctx context.Context)) {
		id := tr.start(name, root, op)
		fn(withSpan(ctx, id))
		tr.end(id)
	}
	in("browser.load", func(ctx context.Context) { err = page.Load(ctx, g.URL) })
	if err != nil {
		return err
	}
	in("browser.onload", func(ctx context.Context) { err = page.RunOnLoad(ctx) })
	if err != nil {
		return err
	}

	adm := newReplayAdmitter(rp, root, op)
	observe := func() (dom.Hash, string) {
		var h dom.Hash
		var text string
		tr.timed("dom.hash", root, op, func() { h = page.Hash() })
		tr.timed("dom.text", root, op, func() { text = page.Doc.VisibleText() })
		return h, text
	}
	snapshot := func() *browser.Snapshot {
		var s *browser.Snapshot
		tr.timed("browser.snapshot", root, op, func() { s = page.Snapshot() })
		return s
	}
	const maxStates = 11 // core.Options' default, which the workloads use
	h, text := observe()
	adm.admit(h, text)
	snaps := []*browser.Snapshot{snapshot()}
	for cur := 0; cur < len(snaps) && adm.n < maxStates; cur++ {
		snap := snaps[cur]
		tr.timed("browser.restore", root, op, func() { page.Restore(snap) })
		var events []browser.Event
		tr.timed("browser.events", root, op, func() { events = page.Events(nil) })
		for _, ev := range events {
			if adm.n >= maxStates {
				break
			}
			tr.timed("browser.restore", root, op, func() { page.Restore(snap) })
			var changed bool
			in("browser.trigger", func(ctx context.Context) { changed, err = page.Trigger(ctx, ev) })
			if err != nil {
				return fmt.Errorf("replay %s: trigger %s: %w", g.URL, ev, err)
			}
			if !changed {
				continue
			}
			h, text := observe()
			if adm.admit(h, text) {
				snaps = append(snaps, snapshot())
			}
		}
	}
	rp.states += adm.n
	return nil
}

// replayAdmitter is state admission from outside: exact dedup by
// canonical hash, then — when the workload merges near-duplicates — the
// same sketch → LSH probe → verified merge core.stateAdmitter performs,
// through the public shingle and lsh packages.
type replayAdmitter struct {
	rp       *crawlReplay
	root, op int
	seen     map[dom.Hash]bool
	index    *lsh.Index
	sigs     map[int]shingle.Signature
	n        int
}

func newReplayAdmitter(rp *crawlReplay, root, op int) *replayAdmitter {
	a := &replayAdmitter{rp: rp, root: root, op: op, seen: make(map[dom.Hash]bool)}
	if rp.spec.NearDup > 0 {
		a.index = lsh.New(rp.spec.NearDup, shingle.DefaultSignatureSize)
		a.sigs = make(map[int]shingle.Signature)
	}
	return a
}

// admit reports whether the state is new.
func (a *replayAdmitter) admit(h dom.Hash, text string) bool {
	if a.seen[h] {
		return false
	}
	tr := a.rp.tr
	if a.index != nil {
		var sig shingle.Signature
		tr.timed("shingle.sketch", a.root, a.op, func() {
			sig = shingle.Sketch(strings.Fields(strings.ToLower(text)))
		})
		var cands []int
		tr.timed("lsh.probe", a.root, a.op, func() { cands = a.index.Candidates(sig) })
		a.rp.probes++
		a.rp.candidates += len(cands)
		for _, c := range cands {
			if sig.Similarity(a.sigs[c]) >= a.rp.spec.NearDup {
				return false
			}
		}
		tr.timed("lsh.add", a.root, a.op, func() { a.index.Add(a.n, sig) })
		a.sigs[a.n] = sig
	}
	a.seen[h] = true
	a.n++
	return true
}

// fragments parses every captured AJAX response on its own — the
// html.ParseFragment call each innerHTML write makes.
func (rp *crawlReplay) fragments() {
	for u, body := range rp.bodies {
		if strings.HasPrefix(u, "/comments") {
			src := string(body)
			rp.tr.timed("html.fragment", 0, 0, func() { html.ParseFragment(src) })
		}
	}
}

// indexLayers times index build, codec and snapshot I/O over the
// crawl's own graphs.
func (rp *crawlReplay) indexLayers(graphs []*model.Graph, pageRank map[string]float64, dir string, layers layerSet) error {
	tr := rp.tr
	ix := index.New()
	for i, g := range graphs {
		tr.timed("index.add_graph", 0, i+1, func() { ix.AddGraph(g, pageRank[g.URL], 0) })
		var err error
		tr.timed("model.encode", 0, i+1, func() { _, err = model.EncodeGraph(g) })
		if err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	var err error
	ms := func(fn func()) float64 {
		start := time.Now()
		fn()
		return float64(time.Since(start)) / float64(time.Millisecond)
	}
	layers["index.encode_ms"] = ms(func() { err = ix.Encode(&buf) })
	if err != nil {
		return err
	}
	if ix.TotalStates > 0 {
		layers["index.postings_per_state"] = float64(ix.NumPostings()) / float64(ix.TotalStates)
		layers["index.bytes_per_state"] = float64(buf.Len()) / float64(ix.TotalStates)
	}
	layers["index.decode_ms"] = ms(func() { _, err = index.Decode(&buf) })
	if err != nil {
		return err
	}
	if _, err := index.SaveSnapshot(dir, []*index.Index{ix}, graphs); err != nil {
		return err
	}
	layers["index.snapshot_load_ms"] = ms(func() { _, _, err = index.LoadSnapshot(dir) })
	return err
}
