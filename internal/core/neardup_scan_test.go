package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/shingle"
	"ajaxcrawl/internal/webapp"
)

// noisySite builds a site whose watch pages carry the mutating decor
// strip (timestamp/view-counter/ad-slot) — the trivially-differing
// states of ROADMAP item 1 that explode the exact-hash model.
func noisySite(videos int) (*webapp.Site, fetch.Fetcher) {
	cfg := webapp.DefaultConfig(videos, 17)
	cfg.NoisyDecor = true
	site := webapp.New(cfg)
	return site, &fetch.HandlerFetcher{Handler: site.Handler()}
}

// TestNoisyDecorExplodesAndCollapses shows the noisy-app problem and the
// fix: without near-dup merging the decor mutations burn the whole state
// budget on chrome variants; with it, the variants collapse and the
// model keeps at least as many real comment pages.
func TestNoisyDecorExplodesAndCollapses(t *testing.T) {
	site, f := noisySite(20)
	v := multiPageVideo(t, site, 4)
	url := webapp.WatchURL(v.ID)

	plain := New(f, Options{UseHotNode: true, MaxStates: 11})
	gPlain, _, err := plain.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if gPlain.NumStates() < 11 {
		t.Fatalf("noisy decor did not explode the exact-hash model: %d states", gPlain.NumStates())
	}

	merged := New(f, Options{UseHotNode: true, MaxStates: 11, NearDupThreshold: 0.9})
	gMerged, pm, err := merged.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if pm.NearDupMerges == 0 {
		t.Fatalf("no near-dup merges on the noisy page")
	}
	countPages := func(g *model.Graph) int {
		seen := map[int]bool{}
		for _, s := range g.States {
			for p := 1; p <= 11; p++ {
				if strings.Contains(s.Text, "Comments (page "+itoa(p)+" of") {
					seen[p] = true
				}
			}
		}
		return len(seen)
	}
	if countPages(gMerged) < countPages(gPlain) {
		t.Fatalf("near-dup merging lost comment pages: %d vs %d",
			countPages(gMerged), countPages(gPlain))
	}
}

// bruteMergeTarget is the admitter's oracle, over a map rather than the
// admitter's slices: the lowest admitted StateID whose signature reaches
// the threshold, and how many signatures it compared to find it (all of
// them when none matches).
func bruteMergeTarget(sigs map[model.StateID]shingle.Signature, sig shingle.Signature, threshold float64) (model.StateID, int, bool) {
	ids := make([]model.StateID, 0, len(sigs))
	for id := range sigs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for n, id := range ids {
		if sig.Similarity(sigs[id]) >= threshold {
			return id, n + 1, true
		}
	}
	return 0, len(ids), false
}

// TestScanCrawlMatchesOracle replays the noisy page's state sequence —
// every distinct state an exact-hash crawl discovers, in discovery
// order — through the admitter (the DOM-walk sketch and its scan) and
// through the oracle (the string-path sketch and bruteMergeTarget): both
// must make the same merge decisions with the same number of signature
// comparisons.
func TestScanCrawlMatchesOracle(t *testing.T) {
	site, f := noisySite(20)
	v := multiPageVideo(t, site, 4)
	g, _, err := New(f, Options{UseHotNode: true, MaxStates: 11}).CrawlPage(context.Background(), webapp.WatchURL(v.ID))
	if err != nil {
		t.Fatal(err)
	}
	const threshold = 0.9
	var pm PageMetrics
	a := newStateAdmitter(model.NewGraph(g.URL), Options{NearDupThreshold: threshold}.withDefaults(), &pm, obs.From(context.Background()))
	admitted := map[model.StateID]shingle.Signature{}
	merges, scans := 0, 0
	for _, s := range g.States {
		sig := shingle.Sketch(strings.Fields(strings.ToLower(s.Text)))
		want, n, merged := bruteMergeTarget(admitted, sig, threshold)
		scans += n
		if merged {
			merges++
		} else {
			want = model.StateID(len(admitted))
			admitted[want] = sig
		}
		got, text, isNew := a.state(s.Hash, dom.NewText(s.Text), s.Depth)
		if got != want {
			t.Fatalf("state %d: admitter chose %d, oracle %d", s.ID, got, want)
		}
		if isNew != !merged || isNew && text != s.Text {
			t.Fatalf("state %d: admitter returned new=%v text %q, want new=%v text %q", s.ID, isNew, text, !merged, s.Text)
		}
	}
	if merges == 0 || pm.NearDupMerges != merges {
		t.Fatalf("admitter merged %d states, oracle %d of %d", pm.NearDupMerges, merges, len(g.States))
	}
	if pm.NearDupCandidates != scans {
		t.Fatalf("admitter compared %d signatures, oracle %d", pm.NearDupCandidates, scans)
	}
}

// TestNearDupMergeTargetLowestID is the regression test for the
// nondeterministic merge target: an old admitter ranged over a map, so
// a candidate matching two admitted states merged into a random one.
// The admitter must pick the lowest matching StateID, as the oracle
// does.
func TestNearDupMergeTargetLowestID(t *testing.T) {
	base := make(shingle.Signature, shingle.DefaultSignatureSize)
	for i := range base {
		base[i] = uint64(1000 + i)
	}
	alter := func(positions ...int) shingle.Signature {
		sig := make(shingle.Signature, len(base))
		copy(sig, base)
		for _, p := range positions {
			sig[p] = uint64(9_000_000 + p)
		}
		return sig
	}
	// A and B each agree with the probe (=base) on 58/64 positions
	// (0.906 ≥ 0.9) but with each other on only 52/64 (0.8125), so both
	// are genuine, non-equivalent matches for the probe.
	sigA := alter(0, 1, 2, 3, 4, 5)
	sigB := alter(58, 59, 60, 61, 62, 63)

	var pm PageMetrics
	a := newStateAdmitter(model.NewGraph("/x"), Options{NearDupThreshold: 0.9}.withDefaults(), &pm, obs.From(context.Background()))
	a.ids, a.sigs = []model.StateID{5, 9}, []shingle.Signature{sigA, sigB}
	got, ok := a.mergeTarget(base)
	want, _, wantOK := bruteMergeTarget(map[model.StateID]shingle.Signature{9: sigB, 5: sigA}, base, 0.9)
	if !ok || !wantOK || got != want || want != 5 {
		t.Fatalf("admitter merged into %d (%v), oracle %d (%v), want lowest matching StateID 5", got, ok, want, wantOK)
	}
}

// TestAdmitNearDupAllocs: admitting a state the scan merges away,
// or one whose hash is a known state's, allocates nothing — no text, no
// token, no signature and nothing per candidate.
func TestAdmitNearDupAllocs(t *testing.T) {
	var pm PageMetrics
	a := newStateAdmitter(model.NewGraph("/x"), Options{NearDupThreshold: 0.9}.withDefaults(), &pm, nil)
	page := func(tick string) *dom.Node {
		body := dom.NewElement("body")
		for i := 0; i < 120; i++ {
			p := dom.NewElement("p")
			p.AppendChild(dom.NewText(fmt.Sprintf(" Word%d \n ", i)))
			body.AppendChild(p)
		}
		body.AppendChild(dom.NewText("Tick " + tick))
		return body
	}
	a.state(dom.Hash{1}, page("1"), 0)
	near := page("2")
	n := testing.AllocsPerRun(100, func() {
		if _, _, isNew := a.state(dom.Hash{2}, near, 1); isNew {
			t.Fatal("the near-duplicate was admitted, not merged")
		}
		if _, _, isNew := a.state(dom.Hash{1}, near, 1); isNew {
			t.Fatal("the exact duplicate was admitted")
		}
	})
	if n != 0 {
		t.Fatalf("a merged or exact-duplicate candidate allocates %v times, want 0", n)
	}
}

// TestNearDupResumeConvergence is the crash-tolerance property with
// near-dup merging on: kill a checkpointed noisy crawl after k pages,
// resume it, and the merged state set matches an uninterrupted run with
// the journaled pages never re-fetched. The journal keeps no
// signatures: a page the kill interrupted is sketched again, and
// sketching is deterministic, so its merges are the same.
func TestNearDupResumeConvergence(t *testing.T) {
	site, _ := noisySite(10)
	var urls []string
	for i := 0; i < 4; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	ctx := context.Background()
	opts := Options{UseHotNode: true, MaxStates: 8, NearDupThreshold: 0.9}

	baseGraphs, _, err := New(&fetch.HandlerFetcher{Handler: site.Handler()}, opts).CrawlAll(ctx, urls)
	if err != nil {
		t.Fatalf("baseline crawl: %v", err)
	}
	base := stateSets(baseGraphs)

	const k = 2
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
	if _, _, err := New(counting, o).CrawlAll(runCtx, urls); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted crawl returned %v, want context.Canceled", err)
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

	cp2, err := OpenCheckpoint(ctx, dir, true)
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
	requireSameStateSets(t, base, stateSets(graphs2))
	mu.Lock()
	for _, u := range urls[:k] {
		if fetches[u] != already[u] {
			t.Errorf("resumed page %s was re-fetched (%d -> %d)", u, already[u], fetches[u])
		}
	}
	mu.Unlock()
}
