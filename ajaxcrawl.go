// Package ajaxcrawl is a from-scratch Go implementation of "AJAX Crawl:
// Making AJAX Applications Searchable" (ICDE 2009 / ETH master thesis by
// Reto Matter): a crawler that makes the client-side states of AJAX
// applications searchable.
//
// The package is the public façade over the subsystems in internal/:
//
//   - Crawler — the event-driven breadth-first AJAX crawler with
//     hot-node caching (thesis ch. 3–4), built on an embedded HTML
//     parser, DOM, and JavaScript interpreter;
//   - Engine — the complete search pipeline (thesis ch. 5–6): precrawl
//   - PageRank, parallel crawling, index shards cut from the URL list,
//     distributed query processing, and result reconstruction by event
//     replay;
//   - SimSite — a deterministic synthetic YouTube-like AJAX site used by
//     the examples, tests and the experiment harness (the stand-in for
//     the thesis's YouTube10000 dataset).
//
// Quickstart:
//
//	site := ajaxcrawl.NewSimSite(50, 1)
//	eng, err := ajaxcrawl.BuildEngine(context.Background(), ajaxcrawl.Config{
//		Fetcher:  ajaxcrawl.NewHandlerFetcher(site.Handler()),
//		StartURL: site.VideoURL(0),
//		MaxPages: 25,
//	})
//	results := eng.Search("morcheeba singer")
//	html, _ := eng.Reconstruct(context.Background(), results[0])
package ajaxcrawl

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/webapp"
)

// Re-exported core types. The aliases keep the public API in one import
// while the implementation lives in internal packages.
type (
	// Fetcher retrieves resources for the crawler.
	Fetcher = fetch.Fetcher
	// Result is one ranked search hit: URL, application state, score.
	Result = query.Result
	// Graph is the transition-graph application model of one AJAX page.
	Graph = model.Graph
	// CrawlOptions configure the crawler (limits, hot-node policy, ...).
	CrawlOptions = core.Options
	// CrawlMetrics aggregate what a crawl cost.
	CrawlMetrics = core.Metrics
	// PageMetrics report one page's crawl cost.
	PageMetrics = core.PageMetrics
	// Weights are the w1..w4 ranking coefficients of formula 5.3.
	Weights = query.Weights
	// Index is one inverted-file shard.
	Index = index.Index
	// Manifest is the versioned descriptor of a saved index snapshot.
	Manifest = index.Manifest
	// ErrorPolicy decides how a multi-page crawl treats a failed page.
	ErrorPolicy = core.ErrorPolicy
	// PrecrawlResult is the precrawl's URL list, hyperlink graph and
	// PageRank (Precrawl); Save and core.LoadPrecrawl persist it.
	PrecrawlResult = core.PrecrawlResult
)

// Error-policy values for CrawlOptions.OnError.
const (
	// SkipAndCount (default): skip the failed page, count it in
	// Metrics.PagesFailed, keep crawling.
	SkipAndCount = core.SkipAndCount
	// FailFast: abort the crawl on the first page error.
	FailFast = core.FailFast
)

// NewHandlerFetcher serves fetches from an in-process http.Handler — no
// sockets, fully deterministic.
func NewHandlerFetcher(h http.Handler) Fetcher {
	return &fetch.HandlerFetcher{Handler: h}
}

// NewHTTPFetcher fetches over real HTTP.
func NewHTTPFetcher(client *http.Client) Fetcher {
	return &fetch.HTTPFetcher{Client: client}
}

// NewLatencyFetcher wraps a fetcher with simulated per-request latency
// (base + perKB·size), as the experiments use to model the network.
func NewLatencyFetcher(inner Fetcher, base, perKB time.Duration) Fetcher {
	return fetch.NewInstrumented(inner, fetch.RealClock{}, base, perKB)
}

// NewCrawler returns a standalone AJAX crawler over a fetcher. Use it to
// crawl single pages into application models without the full engine.
func NewCrawler(f Fetcher, opts CrawlOptions) *core.Crawler {
	return core.New(f, opts)
}

// Config parameterizes BuildEngine — the full pipeline of thesis ch. 6.
type Config struct {
	// Fetcher retrieves all pages (site root, watch pages, AJAX calls).
	Fetcher Fetcher
	// StartURL seeds the precrawl.
	StartURL string
	// MaxPages bounds how many pages the precrawler discovers.
	MaxPages int
	// ProcLines is the number of parallel crawler process lines
	// (default 4).
	ProcLines int
	// Crawl are the per-page crawler options (default: AJAX without the
	// hot-node cache, 11 states; set UseHotNode for Alg. 4.2.1).
	Crawl CrawlOptions
	// Weights are the ranking coefficients (default DefaultWeights).
	Weights *Weights
	// WorkDir receives the crawl's index shard files, each encoded there
	// once its index.ShardPages URLs are crawled and then dropped from
	// memory; SaveSnapshot hard-links them into the snapshot, and the
	// first search builds an index of its own. The caller owns the
	// directory: the crawl creates it if missing and never empties it,
	// and publishing another snapshot into it removes the engine's files.
	// Empty keeps the encoded shards in memory instead.
	WorkDir string
	// KeepURL filters which hyperlinks the precrawler follows (nil =
	// same-path /watch pages and everything else alike).
	KeepURL func(string) bool
	// FrontierSeed is ignored: process lines take pages in URL order, so
	// there is no schedule to seed.
	FrontierSeed int64
}

// Engine is a complete AJAX search engine: the ranking broker over one
// index, and the application models needed to reconstruct result
// states. A crawled engine keeps only its encoded shards (in
// Config.WorkDir or in memory) for SaveSnapshot, and its first search
// builds the index from the graphs (≈ 1.6 s at 10 000 videos), ranking
// exactly as the published shards do.
type Engine struct {
	graphs  map[string]*model.Graph
	fetcher Fetcher
	// shards are a crawled engine's encoded index shards and crawled its
	// graphs in URL order, the doc order of the index searcher builds.
	shards  *index.Sharder
	crawled []*model.Graph
	once    sync.Once
	broker  *query.Broker
	// Metrics of the crawl that built this engine.
	Metrics *CrawlMetrics
	// PageRank of every crawled URL.
	PageRank map[string]float64
}

// BuildEngine runs the full pipeline: Precrawl (hyperlink graph +
// PageRank), then BuildEngineFrom over its result — parallel AJAX
// crawling and index building. See BuildEngineFrom for the pipelining
// and what a canceled ctx leaves.
func BuildEngine(ctx context.Context, cfg Config) (*Engine, error) {
	pre, err := Precrawl(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return BuildEngineFrom(ctx, cfg, pre)
}

// Precrawl runs the pipeline's first phase: it discovers up to
// cfg.MaxPages pages from cfg.StartURL (following the links cfg.KeepURL
// keeps), fetching as many at once as there are process lines and
// retrying like the crawl, and computes their PageRank. A fresh result
// also holds the fetched page bodies, which BuildEngineFrom's page loads
// reuse; a saved and reloaded one does not, and its crawl fetches them.
func Precrawl(ctx context.Context, cfg Config) (*PrecrawlResult, error) {
	if cfg.Fetcher == nil {
		return nil, fmt.Errorf("ajaxcrawl: Config.Fetcher is required")
	}
	if cfg.StartURL == "" {
		return nil, fmt.Errorf("ajaxcrawl: Config.StartURL is required")
	}
	if cfg.MaxPages <= 0 {
		return nil, fmt.Errorf("ajaxcrawl: Config.MaxPages must be positive")
	}
	pre := &core.Precrawler{
		Fetcher:  cfg.Crawl.Retrying(cfg.Fetcher),
		StartURL: cfg.StartURL,
		MaxPages: cfg.MaxPages,
		KeepURL:  cfg.KeepURL,
		Lines:    cfg.lines(),
	}
	res, err := pre.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("ajaxcrawl: precrawl: %w", err)
	}
	if len(res.URLs) == 0 {
		return nil, fmt.Errorf("ajaxcrawl: precrawl found no pages from %s", cfg.StartURL)
	}
	return res, nil
}

// lines is the process-line count, 4 when unset.
func (cfg Config) lines() int {
	if cfg.ProcLines <= 0 {
		return 4
	}
	return cfg.ProcLines
}

// BuildEngineFrom runs the pipeline's crawl and index phases over pre's
// URL list; StartURL, MaxPages and KeepURL are not read. Crawling and
// indexing are pipelined: every index.ShardPages consecutive URLs
// become one shard, encoded into Config.WorkDir (or memory) and
// dropped, as soon as the crawler's URL-ordered stream has delivered
// the last of them, while later pages are still crawling. The engine's
// first search builds its index.
//
// Canceling ctx stops the pipeline promptly. If any pages were already
// crawled, BuildEngineFrom returns the partial engine built from them
// alongside ctx's error, so a graceful shutdown can still publish and
// serve what it has; WorkDir then holds those pages' shard files and no
// manifest. With no page crawled it returns nil and the error, as it
// does for a page error under FailFast and for a recovered panic: the
// first such error stops the pipeline, so no page after those in flight
// is crawled and no shard is encoded after it.
func BuildEngineFrom(ctx context.Context, cfg Config, pre *PrecrawlResult) (*Engine, error) {
	if cfg.Fetcher == nil {
		return nil, fmt.Errorf("ajaxcrawl: Config.Fetcher is required")
	}
	// Phases 2+3, pipelined: process lines crawl pages while this
	// goroutine indexes them. Pages arrive in URL order whichever line
	// crawled them, so the shard layout, the PerPage rows (and ranking
	// tie-breaks) are deterministic. Each page load is the precrawl's
	// response, handed off below every line's retry wrap.
	handoff := pre.Handoff(cfg.Fetcher)
	mp := &core.MPCrawler{
		NewCrawler: func() *core.Crawler { return core.New(handoff, cfg.Crawl) },
		ProcLines:  cfg.lines(),
		URLs:       pre.URLs,
	}
	// The first page error fails the build: it cancels crawlCtx, so no
	// line takes another page, and the rest of the stream is drained
	// unread (every line has let go of the checkpoint journal when this
	// returns).
	crawlCtx, stop := context.WithCancel(ctx)
	defer stop()
	sharder := index.NewSharder(pre.URLs, pre.PageRank, cfg.WorkDir)
	metrics := &core.Metrics{}
	graphs := make(map[string]*model.Graph)
	var crawled []*model.Graph
	var crawlErr error
	for pr := range mp.Stream(crawlCtx) {
		if crawlErr != nil {
			continue
		}
		if pr.Err != nil {
			crawlErr = fmt.Errorf("ajaxcrawl: crawl %s: %w", pr.URL, pr.Err)
			stop()
			continue
		}
		metrics.Merge(pr.Metrics)
		sharder.Add(ctx, pr.URL, pr.Graph)
		if pr.Graph != nil {
			graphs[pr.URL] = pr.Graph
			crawled = append(crawled, pr.Graph)
		}
	}
	if crawlErr != nil {
		return nil, crawlErr
	}
	if err := sharder.Finish(ctx); err != nil {
		return nil, fmt.Errorf("ajaxcrawl: index: %w", err)
	}
	// Whether the crawl was cut short is the caller's context's to say,
	// not an error's type: a page that blew only its own PageTimeout
	// carries a deadline error too.
	ctxErr := ctx.Err()
	if ctxErr != nil && len(graphs) == 0 {
		return nil, fmt.Errorf("ajaxcrawl: crawl: %w", ctxErr)
	}

	weights := query.DefaultWeights
	if cfg.Weights != nil {
		weights = *cfg.Weights
	}
	eng := &Engine{
		graphs:   graphs,
		fetcher:  cfg.Fetcher,
		shards:   sharder,
		crawled:  crawled,
		broker:   &query.Broker{W: weights},
		Metrics:  metrics,
		PageRank: pre.PageRank,
	}
	return eng, ctxErr
}

// NewEngineFromGraphs builds an engine directly from crawled application
// models (single shard) — useful when the caller drives the crawler
// itself.
func NewEngineFromGraphs(f Fetcher, graphs []*model.Graph, pageRank map[string]float64) *Engine {
	return NewEngineFromGraphsLimited(f, graphs, pageRank, 0)
}

// searcher returns the engine's broker, building a crawled engine's
// index from its graphs the first time.
func (e *Engine) searcher() *query.Broker {
	e.once.Do(func() {
		if e.broker.Index == nil {
			e.broker.Index = index.Build(e.crawled, e.PageRank, 0)
		}
	})
	return e.broker
}

// Search evaluates a conjunctive keyword query and returns ranked
// (URL, state) results.
func (e *Engine) Search(q string) []Result { return e.searcher().Search(q) }

// SearchCtx is Search under a context: when the context carries
// telemetry (obs.With), the evaluation is traced as a query.exec span
// and its latency lands in the metrics registry.
func (e *Engine) SearchCtx(ctx context.Context, q string) []Result {
	return e.searcher().SearchTopKCtx(ctx, q, 0)
}

// SearchTopK returns at most k results, evaluated with the bounded-heap
// top-k path (same results and order as TopKResults(Search(q), k)).
func (e *Engine) SearchTopK(q string, k int) []Result {
	return e.searcher().SearchTopK(q, k)
}

// SearchTopKCtx is SearchTopK under a context (see SearchCtx).
func (e *Engine) SearchTopKCtx(ctx context.Context, q string, k int) []Result {
	return e.searcher().SearchTopKCtx(ctx, q, k)
}

// SaveSnapshot persists the engine — every index shard, every
// application model, and a versioned manifest — into dir, the layout
// the ajaxserve daemon (and LoadEngineSnapshot) consumes. The manifest
// is written last and atomically, so a crash mid-save never publishes a
// half-snapshot, and a daemon watching dir hot-swaps only once the new
// snapshot is complete. A crawled engine publishes the shard files it
// encoded while crawling, one per index.ShardPages URLs, unchanged:
// hard-linked from Config.WorkDir (copied across devices) or written
// from memory, building no index; dir may be WorkDir itself, and a
// second call publishes again. An engine from LoadEngineSnapshot holds
// one index and re-saves as one shard file, which serves the same bodies.
func (e *Engine) SaveSnapshot(dir string) (*Manifest, error) {
	if e.shards != nil {
		return e.shards.Publish(dir, e.crawled)
	}
	graphs := make([]*model.Graph, 0, len(e.graphs))
	for _, g := range e.graphs {
		graphs = append(graphs, g)
	}
	return index.SaveSnapshot(dir, []*index.Index{e.broker.Index}, graphs)
}

// LoadEngineSnapshot constructs an Engine from a snapshot directory
// written by SaveSnapshot (or `ajaxcrawl -out`). The fetcher is
// only needed for Reconstruct; pass nil for a query-only engine.
func LoadEngineSnapshot(dir string, f Fetcher) (*Engine, error) {
	man, ixs, err := index.LoadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	graphs := make(map[string]*model.Graph)
	if man.Models != "" {
		gs, err := model.LoadAll(dir)
		if err != nil {
			return nil, fmt.Errorf("ajaxcrawl: snapshot models: %w", err)
		}
		for _, g := range gs {
			graphs[g.URL] = g
		}
	}
	return &Engine{
		broker:  query.NewBroker(ixs[0]),
		graphs:  graphs,
		fetcher: f,
	}, nil
}

// Graph returns the application model of a crawled URL, or nil.
func (e *Engine) Graph(url string) *Graph { return e.graphs[url] }

// NumStates returns the total number of indexed states.
func (e *Engine) NumStates() int {
	if e.shards == nil {
		return e.broker.Index.TotalStates
	}
	n := 0
	for _, s := range e.shards.Entries() {
		n += s.States
	}
	return n
}

// Reconstruct re-creates the DOM of a result's application state by
// loading the page and replaying the recorded events (thesis §5.4), and
// returns its HTML serialization. The replay (fetches and script
// execution) runs under ctx.
func (e *Engine) Reconstruct(ctx context.Context, r Result) (string, error) {
	g, ok := e.graphs[r.URL]
	if !ok {
		return "", fmt.Errorf("ajaxcrawl: no application model for %s", r.URL)
	}
	path := g.PathTo(r.State)
	if path == nil {
		return "", fmt.Errorf("ajaxcrawl: state %d unreachable in %s", r.State, r.URL)
	}
	doc, err := core.ReplayPath(ctx, e.fetcher, r.URL, path)
	if err != nil {
		return "", err
	}
	return dom.OuterHTML(doc), nil
}

// SimSite is the synthetic YouTube-like AJAX application: deterministic,
// generated from a seed, served via an http.Handler (see DESIGN.md for
// how it substitutes the thesis's live-YouTube dataset).
type SimSite struct {
	site *webapp.Site
}

// NewSimSite generates a synthetic site with the given number of videos.
func NewSimSite(videos int, seed int64) *SimSite {
	return &SimSite{site: webapp.New(webapp.DefaultConfig(videos, seed))}
}

// Handler returns the site's HTTP interface.
func (s *SimSite) Handler() http.Handler { return s.site.Handler() }

// NumVideos returns the number of videos.
func (s *SimSite) NumVideos() int { return s.site.NumVideos() }

// VideoURL returns the watch-page URL of the i-th video.
func (s *SimSite) VideoURL(i int) string {
	return webapp.WatchURL(s.site.VideoID(i))
}

// VideoTitle returns the title of the i-th video.
func (s *SimSite) VideoTitle(i int) string { return s.site.Video(i).Title }

// CommentPages returns how many comment pages the i-th video has.
func (s *SimSite) CommentPages(i int) int { return len(s.site.Video(i).Pages) }

// Queries returns the 100-query experiment workload (Table 7.4's
// popular queries first).
func (s *SimSite) Queries() []string { return webapp.Queries() }

// Unwrap exposes the underlying site for the experiment harness.
func (s *SimSite) Unwrap() *webapp.Site { return s.site }

// IsWatchURL reports whether a URL is a video watch page — the KeepURL
// filter the examples use during precrawl.
func IsWatchURL(u string) bool { return strings.Contains(u, "/watch?v=") }

// TopKResults truncates a result list to its k best entries (results are
// already sorted by Search).
func TopKResults(rs []Result, k int) []Result {
	if k <= 0 || k >= len(rs) {
		return rs
	}
	return rs[:k]
}

// NewEngineFromGraphsLimited is NewEngineFromGraphs with a per-page state
// limit: only the first maxStates states of each application model are
// indexed (0 = all). This is the "Max. State ID" knob the threshold and
// recall experiments sweep.
func NewEngineFromGraphsLimited(f Fetcher, graphs []*model.Graph, pageRank map[string]float64, maxStates int) *Engine {
	byURL := make(map[string]*model.Graph, len(graphs))
	for _, g := range graphs {
		byURL[g.URL] = g
	}
	return &Engine{
		broker:   query.NewBroker(index.Build(graphs, pageRank, maxStates)),
		graphs:   byURL,
		fetcher:  f,
		PageRank: pageRank,
	}
}

// NewSimSiteWithForms generates a synthetic site whose watch pages carry
// a Google-Suggest-style AJAX search box, for exercising the form-probing
// crawler extension (thesis ch. 10 future work).
func NewSimSiteWithForms(videos int, seed int64) *SimSite {
	cfg := webapp.DefaultConfig(videos, seed)
	cfg.WithSearchBox = true
	return &SimSite{site: webapp.New(cfg)}
}

// ResultWithSnippet is a search hit with a highlighted excerpt of the
// matching state's text.
type ResultWithSnippet = query.ResultWithSnippet

// SearchWithSnippets returns at most k results, each with a KWIC-style
// snippet of the matching application state (query terms bracketed).
func (e *Engine) SearchWithSnippets(q string, k int) []ResultWithSnippet {
	b := e.searcher()
	return query.AttachSnippets(b.SearchTopK(q, k), b.StateText, q, query.SnippetOptions{})
}

// NewsSite is the second synthetic AJAX application: a news site with
// expandable article sections (lattice-shaped transition graphs, two hot
// nodes). It demonstrates the crawler on a structurally different
// application than the YouTube-like SimSite.
type NewsSite struct {
	site *webapp.NewsSite
}

// NewNewsSite generates a synthetic news application.
func NewNewsSite(articles int, seed int64) *NewsSite {
	return &NewsSite{site: webapp.NewNews(webapp.NewsConfig{Articles: articles, Seed: seed, Sections: 3})}
}

// Handler returns the news site's HTTP interface.
func (n *NewsSite) Handler() http.Handler { return n.site.Handler() }

// NumArticles returns the number of articles.
func (n *NewsSite) NumArticles() int { return n.site.NumArticles() }

// ArticleURL returns the path of article i.
func (n *NewsSite) ArticleURL(i int) string { return n.site.ArticleURL(i) }
