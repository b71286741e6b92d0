package core

import (
	"context"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"ajaxcrawl/internal/browser"
	"ajaxcrawl/internal/codec"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/pagerank"
)

// Precrawler builds the traditional hyperlink structure of the site and
// the PageRank values over it (thesis §6.2.1). It reads pages statically
// (no JavaScript): the hyperlink graph is a traditional-crawl artifact.
type Precrawler struct {
	Fetcher fetch.Fetcher
	// StartURL is the page crawling begins from
	// (PRECRAWLER_START_URI_ID).
	StartURL string
	// MaxPages bounds the breadth-first expansion
	// (NUM_OF_PAGES_TO_PRECRAWL).
	MaxPages int
	// KeepURL filters which discovered links are followed; nil keeps all.
	KeepURL func(string) bool
	// Lines is how many pages are fetched at once, concurrently through
	// Fetcher (0 or 1: one at a time). The result is the same for any.
	Lines int
}

// PrecrawlResult is the output of the precrawling phase.
type PrecrawlResult struct {
	// URLs lists the crawled pages in breadth-first discovery order —
	// the list handed to MPCrawler, and the order of everything the
	// crawl outputs.
	URLs []string
	// Links is the outbound-link structure
	// (HashMap<String, ArrayList<String>> in the thesis).
	Links map[string][]string
	// PageRank holds each page's PageRank value.
	PageRank map[string]float64

	// kept holds the precrawl's responses for Handoff; precrawl.gob
	// never carries them.
	kept *fetch.Handoff
}

// Handoff returns the crawl's fetcher over inner: each page the precrawl
// fetched is served once from its kept response — the crawl's page load
// — and everything else goes to inner. The first call takes the
// responses; a later one, or a result loaded from disk, hands off none.
func (r *PrecrawlResult) Handoff(inner fetch.Fetcher) *fetch.Handoff {
	h := r.kept
	r.kept = nil
	if h == nil {
		h = new(fetch.Handoff)
	}
	h.Inner = inner
	return h
}

// Run performs the precrawl. Canceling ctx aborts the breadth-first
// expansion and returns the pages processed so far with ctx.Err().
//
// The next min(Lines, MaxPages−len(URLs)) queue entries are fetched
// concurrently, then processed in queue order. Every entry fetched was
// already queued and processing only appends to the queue's tail, so the
// fetches and the result are the one-at-a-time ones for any width and
// any completion order.
func (p *Precrawler) Run(ctx context.Context) (*PrecrawlResult, error) {
	if p.MaxPages <= 0 {
		return nil, fmt.Errorf("core: precrawl: MaxPages must be positive")
	}
	res := &PrecrawlResult{Links: make(map[string][]string), kept: new(fetch.Handoff)}
	keep := fetch.Func(func(ctx context.Context, u string) (*fetch.Response, error) {
		resp, err := p.Fetcher.Fetch(ctx, u)
		if err == nil && resp.Status == 200 {
			res.kept.Keep(ctx, u, resp)
		}
		return resp, err
	})
	visited := map[string]bool{p.StartURL: true}
	// BFS queue with an index cursor: `queue = queue[1:]` would pin the
	// whole backing array (every URL ever enqueued) for the crawl's
	// lifetime. The cursor dequeues in place and the drained prefix is
	// compacted away once it dominates the buffer.
	queue := []string{p.StartURL}
	head := 0
	// Each batch slot loads its pages into one Page, whose Slab is an
	// arena: a tree is read for its links and handed back.
	width := max(p.Lines, 1)
	pages, errs := make([]*browser.Page, width), make([]error, width)
	for i := range pages {
		pages[i] = browser.NewPage(keep)
	}
	var ctxErr error
	for head < len(queue) && len(res.URLs) < p.MaxPages && ctxErr == nil {
		if ctxErr = ctx.Err(); ctxErr != nil {
			break
		}
		batch := queue[head : head+min(width, p.MaxPages-len(res.URLs), len(queue)-head)]
		var wg sync.WaitGroup
		for i, u := range batch {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = loadStatic(pages[i], ctx, u)
			}()
		}
		wg.Wait()
		for i, u := range batch {
			if errs[i] != nil {
				if ctx.Err() != nil {
					ctxErr = ctx.Err()
					break
				}
				// Unreachable pages are skipped, like a robust crawler.
				continue
			}
			res.URLs = append(res.URLs, u)
			for _, link := range pages[i].Links() {
				if p.KeepURL != nil && !p.KeepURL(link) {
					continue
				}
				res.Links[u] = append(res.Links[u], link)
				if !visited[link] {
					visited[link] = true
					queue = append(queue, link)
				}
			}
			pages[i].Slab.Reset()
		}
		clear(queue[head : head+len(batch)])
		if head += len(batch); head > len(queue)/2 && head > 64 {
			n := copy(queue, queue[head:])
			queue, head = queue[:n], 0
		}
	}
	// Restrict PageRank to crawled pages: links to pages beyond MaxPages
	// stay in Links but rank is computed over the crawled universe, so
	// the URL list and rank lookups agree.
	inGraph := make(map[string][]string, len(res.URLs))
	for _, u := range res.URLs {
		inGraph[u] = nil
	}
	for _, u := range res.URLs {
		for _, to := range res.Links[u] {
			if _, crawled := inGraph[to]; crawled {
				inGraph[u] = append(inGraph[u], to)
			}
		}
	}
	res.PageRank = pagerank.Compute(inGraph, pagerank.Options{})
	return res, ctxErr
}

// loadStatic is the precrawl's page load (a variable, for tests to watch).
var loadStatic = (*browser.Page).LoadStatic

// precrawlFileName stores the serialized PrecrawlResult. The .gob
// suffix is historical.
const precrawlFileName = "precrawl.gob"

// The precrawl file, in internal/codec's primitives:
//
//	magic "AJPC" | version u8
//	urlCount uvarint, urls string...
//	linkCount uvarint, per page (sorted): url string, targetCount uvarint, targets string...
//	rankCount uvarint, per page (sorted): url string, rank f64
const (
	precrawlMagic   = "AJPC"
	precrawlVersion = 1
)

// Save writes the result into dir (the precrawler root directory).
func (r *PrecrawlResult) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: precrawl save: %w", err)
	}
	err := codec.WriteFile(filepath.Join(dir, precrawlFileName), precrawlMagic, precrawlVersion, func(e codec.Encoder) {
		e.Uvarint(uint64(len(r.URLs)))
		for _, u := range r.URLs {
			e.String(u)
		}
		e.Uvarint(uint64(len(r.Links)))
		for _, u := range slices.Sorted(maps.Keys(r.Links)) {
			e.String(u)
			e.Uvarint(uint64(len(r.Links[u])))
			for _, to := range r.Links[u] {
				e.String(to)
			}
		}
		e.Uvarint(uint64(len(r.PageRank)))
		for _, u := range slices.Sorted(maps.Keys(r.PageRank)) {
			e.String(u)
			e.Float64(r.PageRank[u])
		}
	})
	if err != nil {
		return fmt.Errorf("core: precrawl save: %w", err)
	}
	return nil
}

// LoadPrecrawl reads a saved PrecrawlResult from dir. Errors are
// qualified with the path involved, so a resumed run that points at the
// wrong -out directory says which file was missing or undecodable.
func LoadPrecrawl(dir string) (*PrecrawlResult, error) {
	path := filepath.Join(dir, precrawlFileName)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load precrawl %s: %w", dir, err)
	}
	defer f.Close()
	r, err := decodePrecrawl(f)
	if err != nil {
		return nil, fmt.Errorf("core: decode precrawl %s: %w", path, err)
	}
	return r, nil
}

// decodePrecrawl reads a saved PrecrawlResult from untrusted bytes,
// bounding every count and string before it allocates. The result is
// then refused if a URL is empty or listed twice, or a PageRank is not
// finite — a NaN rank would poison every score it enters and surface
// only when the shard it lands in fails to load.
func decodePrecrawl(r io.Reader) (res *PrecrawlResult, err error) {
	defer codec.Contain(&err, "decode")
	d := codec.NewDecoder(r)
	d.Header(precrawlMagic, precrawlVersion, "written by another build; precrawl again")
	res = &PrecrawlResult{}
	n := d.Count("URL")
	res.URLs = make([]string, 0, codec.Prealloc(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		res.URLs = append(res.URLs, d.String())
	}
	n = d.Count("link list")
	res.Links = make(map[string][]string, codec.Prealloc(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		u, k := d.String(), d.Count("link")
		links := make([]string, 0, codec.Prealloc(k))
		for j := 0; j < k && d.Err() == nil; j++ {
			links = append(links, d.String())
		}
		res.Links[u] = links
	}
	n = d.Count("PageRank")
	res.PageRank = make(map[string]float64, codec.Prealloc(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		u := d.String()
		res.PageRank[u] = d.Float64()
	}
	d.End()
	if d.Err() != nil {
		return nil, d.Err()
	}
	seen := make(map[string]bool, len(res.URLs))
	for _, u := range res.URLs {
		if u == "" || seen[u] {
			return nil, fmt.Errorf("empty or duplicate URL %q", u)
		}
		seen[u] = true
	}
	for u, pr := range res.PageRank {
		if math.IsNaN(pr) || math.IsInf(pr, 0) {
			return nil, fmt.Errorf("URL %q: PageRank %v", u, pr)
		}
	}
	return res, nil
}
