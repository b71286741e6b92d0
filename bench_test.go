package ajaxcrawl

// Benchmarks: one testing.B target per table and figure of the thesis's
// evaluation chapter, at micro scale. `go test -bench=. -benchmem` runs
// them; cmd/ajaxbench regenerates the full paper-style tables at scale.
//
//	Table 7.1 / Fig 7.2  -> BenchmarkTable71DatasetCrawl
//	Fig 7.1              -> BenchmarkFigure71PageDistribution
//	Table 7.2 / Fig 7.3  -> BenchmarkCrawlTraditional, BenchmarkCrawlAJAX
//	Fig 7.4              -> BenchmarkCrawlManyStates
//	Near-dup admission   -> BenchmarkCrawlNoisyPage
//	Fig 7.5-7.7          -> BenchmarkHotNodeOff, BenchmarkHotNodeOn
//	Table 7.3 / Fig 7.8  -> BenchmarkParallelCrawl1Line, ...4Lines
//	Table 7.4            -> BenchmarkQueryOccurrences
//	Table 7.5 / Fig 7.9  -> BenchmarkQueryTraditionalIndex, ...AJAXIndex
//	Fig 7.10 / Fig 7.11  -> BenchmarkIndexStates1, ...States11,
//	                        BenchmarkRecallSweep
//	Result aggregation   -> BenchmarkReconstruct

import (
	"context"
	"testing"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/webapp"
)

const (
	benchVideos = 15
	benchSeed   = 424242
)

func benchSite() *webapp.Site {
	return webapp.New(webapp.DefaultConfig(benchVideos, benchSeed))
}

func benchURLs(s *webapp.Site, n int) []string {
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		urls[i] = webapp.WatchURL(s.VideoID(i))
	}
	return urls
}

// benchGraphs crawls the bench corpus once (shared across benchmarks via
// sync-free recomputation; crawling is deterministic).
func benchGraphs(b *testing.B, opts core.Options) []*model.Graph {
	b.Helper()
	s := benchSite()
	c := core.New(NewHandlerFetcher(s.Handler()), opts)
	res := (&core.MPCrawler{NewCrawler: func() *core.Crawler { return c }, ProcLines: 1, URLs: benchURLs(s, benchVideos)}).Run(context.Background())
	if res.Err != nil {
		b.Fatal(res.Err)
	}
	return res.Graphs
}

// BenchmarkTable71DatasetCrawl measures the full AJAX crawl that gathers
// the Table 7.1 dataset statistics (also the Fig 7.2 series generator).
func BenchmarkTable71DatasetCrawl(b *testing.B) {
	s := benchSite()
	urls := benchURLs(s, benchVideos)
	f := NewHandlerFetcher(s.Handler())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.New(f, core.Options{UseHotNode: true})
		if res := (&core.MPCrawler{NewCrawler: func() *core.Crawler { return c }, ProcLines: 1, URLs: urls}).Run(context.Background()); res.Err != nil || res.Metrics.States == 0 {
			b.Fatalf("crawl failed: %v", res.Err)
		}
	}
}

// BenchmarkFigure71PageDistribution measures dataset-statistics
// generation (the Figure 7.1 histogram source).
func BenchmarkFigure71PageDistribution(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := webapp.New(webapp.DefaultConfig(benchVideos, benchSeed+int64(i)))
		if st := s.DatasetStats(benchVideos); st.TotalStates == 0 {
			b.Fatal("empty stats")
		}
	}
}

// BenchmarkCrawlTraditional is the Table 7.2 baseline: JavaScript off,
// first state only.
func BenchmarkCrawlTraditional(b *testing.B) {
	s := benchSite()
	f := NewHandlerFetcher(s.Handler())
	url := webapp.WatchURL(s.VideoID(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.New(f, core.Options{Traditional: true})
		if _, _, err := c.CrawlPage(context.Background(), url); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrawlAJAX is the Table 7.2 treatment: full event-driven crawl
// of one page (Fig 7.3's per-page cost).
func BenchmarkCrawlAJAX(b *testing.B) {
	s := benchSite()
	f := NewHandlerFetcher(s.Handler())
	url := webapp.WatchURL(s.VideoID(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.New(f, core.Options{UseHotNode: true})
		if _, _, err := c.CrawlPage(context.Background(), url); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrawlManyStates crawls the corpus video with the most comment
// pages — the Fig 7.4 "crawl time grows with states" worst case.
func BenchmarkCrawlManyStates(b *testing.B) {
	s := benchSite()
	best := 0
	for i := 0; i < s.NumVideos(); i++ {
		if len(s.Video(i).Pages) > len(s.Video(best).Pages) {
			best = i
		}
	}
	f := NewHandlerFetcher(s.Handler())
	url := webapp.WatchURL(s.VideoID(best))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.New(f, core.Options{UseHotNode: true})
		if _, _, err := c.CrawlPage(context.Background(), url); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrawlNoisyPage crawls one watch page of a site whose decor
// strip changes on every event, with near-duplicate states merged at
// similarity 0.9: most candidate states are sketched, probed in the LSH
// index and merged away, so the admission path's cost shows per op.
func BenchmarkCrawlNoisyPage(b *testing.B) {
	cfg := webapp.DefaultConfig(benchVideos, benchSeed)
	cfg.NoisyDecor = true
	s := webapp.New(cfg)
	f := NewHandlerFetcher(s.Handler())
	url := webapp.WatchURL(s.VideoID(0))
	b.ReportAllocs()
	b.ResetTimer()
	var m core.PageMetrics
	for i := 0; i < b.N; i++ {
		c := core.New(f, core.Options{UseHotNode: true, NearDupThreshold: 0.9})
		var err error
		if _, m, err = c.CrawlPage(context.Background(), url); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.States), "states/op")
	b.ReportMetric(float64(m.NearDupMerges), "merged/op")
}

// BenchmarkHotNodeOff / BenchmarkHotNodeOn are the Fig 7.5–7.7 pair: the
// same crawl with the caching policy off and on. Compare ns/op and the
// reported net_calls metric.
func BenchmarkHotNodeOff(b *testing.B) { benchHotNode(b, false) }

// BenchmarkHotNodeOn enables the hot-node cache.
func BenchmarkHotNodeOn(b *testing.B) { benchHotNode(b, true) }

func benchHotNode(b *testing.B, on bool) {
	s := benchSite()
	urls := benchURLs(s, benchVideos)
	f := NewHandlerFetcher(s.Handler())
	b.ReportAllocs()
	b.ResetTimer()
	var calls int
	for i := 0; i < b.N; i++ {
		c := core.New(f, core.Options{UseHotNode: on})
		res := (&core.MPCrawler{NewCrawler: func() *core.Crawler { return c }, ProcLines: 1, URLs: urls}).Run(context.Background())
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		calls = res.Metrics.NetworkCalls
	}
	b.ReportMetric(float64(calls), "net_calls")
}

// BenchmarkParallelCrawl1Line / 4Lines are the Table 7.3 / Fig 7.8 pair.
func BenchmarkParallelCrawl1Line(b *testing.B) { benchParallel(b, 1) }

// BenchmarkParallelCrawl4Lines runs four process lines.
func BenchmarkParallelCrawl4Lines(b *testing.B) { benchParallel(b, 4) }

func benchParallel(b *testing.B, lines int) {
	s := benchSite()
	urls := benchURLs(s, benchVideos)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mp := &core.MPCrawler{
			NewCrawler: func() *core.Crawler {
				return core.New(NewHandlerFetcher(s.Handler()), core.Options{UseHotNode: true})
			},
			ProcLines: lines,
			URLs:      urls,
		}
		if res := mp.Run(context.Background()); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkQueryOccurrences measures the Table 7.4 occurrence counting.
func BenchmarkQueryOccurrences(b *testing.B) {
	s := benchSite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, all := s.QueryOccurrences("wow", benchVideos); all < 0 {
			b.Fatal("impossible")
		}
	}
}

// BenchmarkQueryTraditionalIndex / AJAXIndex are the Table 7.5 / Fig 7.9
// pair: the 11 popular queries against the 1-state and the full index.
func BenchmarkQueryTraditionalIndex(b *testing.B) { benchQueries(b, 1) }

// BenchmarkQueryAJAXIndex queries the all-states index.
func BenchmarkQueryAJAXIndex(b *testing.B) { benchQueries(b, 0) }

func benchQueries(b *testing.B, maxStates int) {
	graphs := benchGraphs(b, core.Options{UseHotNode: true})
	eng := query.NewBroker(index.Build(graphs, nil, maxStates))
	qs := webapp.Queries()[:11]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			eng.Search(q)
		}
	}
}

// BenchmarkIndexStates1 / BenchmarkIndexStates11 bound the Fig 7.10 index
// construction sweep.
func BenchmarkIndexStates1(b *testing.B) { benchIndexBuild(b, 1) }

// BenchmarkIndexStates11 builds the full 11-state index.
func BenchmarkIndexStates11(b *testing.B) { benchIndexBuild(b, 11) }

func benchIndexBuild(b *testing.B, maxStates int) {
	graphs := benchGraphs(b, core.Options{UseHotNode: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := index.Build(graphs, nil, maxStates)
		if ix.TotalStates == 0 {
			b.Fatal("empty index")
		}
	}
}

// BenchmarkRecallSweep is the Fig 7.11 generator: evaluate the query
// workload on indexes of 1..11 states and compute 1−RelRecall.
func BenchmarkRecallSweep(b *testing.B) {
	graphs := benchGraphs(b, core.Options{UseHotNode: true})
	qs := webapp.Queries()[:20]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var counts [12][]int
		for k := 1; k <= 11; k += 5 {
			eng := query.NewBroker(index.Build(graphs, nil, k))
			counts[k] = make([]int, len(qs))
			for qi, q := range qs {
				counts[k][qi] = len(eng.Search(q))
			}
		}
		_ = counts
	}
}

// benchServeServer builds a serving-layer query server over the bench
// corpus with the given result-cache capacity.
func benchServeServer(b *testing.B, cacheCapacity int) *query.Server {
	b.Helper()
	graphs := benchGraphs(b, core.Options{UseHotNode: true})
	texts := make(map[string][]string, len(graphs))
	for _, g := range graphs {
		for _, st := range g.States {
			texts[g.URL] = append(texts[g.URL], st.Text)
		}
	}
	snap := &query.ServeSnapshot{
		Broker: query.NewBroker(index.Build(graphs, nil, 0)),
		StateText: func(url string, state int) string {
			if ts := texts[url]; state < len(ts) {
				return ts[state]
			}
			return ""
		},
	}
	return query.NewServer(snap, query.CacheOptions{Shards: 8, Capacity: cacheCapacity})
}

// BenchmarkServeQueryCached / Uncached are the serving layer's pair: the
// same top-k query answered from the result cache versus re-evaluated
// (posting-list merge + ranking + snippets) on every request. The gap is
// what the cache buys a repeated-query workload.
func BenchmarkServeQueryCached(b *testing.B) {
	srv := benchServeServer(b, 1024)
	ctx := context.Background()
	srv.Search(ctx, "funny dance", 10) // warm the entry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, cached := srv.Search(ctx, "funny dance", 10); !cached {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkServeQueryUncached clears the cache every iteration, so each
// request pays the full evaluation path.
func BenchmarkServeQueryUncached(b *testing.B) {
	srv := benchServeServer(b, 1024)
	ctx := context.Background()
	gen := srv.Live().Gen
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Cache().Invalidate(gen)
		if _, _, cached := srv.Search(ctx, "funny dance", 10); cached {
			b.Fatal("expected a cache miss")
		}
	}
}

// BenchmarkReconstruct measures result aggregation (§5.4): replaying the
// event path to rebuild a deep state's DOM.
func BenchmarkReconstruct(b *testing.B) {
	s := benchSite()
	f := NewHandlerFetcher(s.Handler())
	c := core.New(f, core.Options{UseHotNode: true})
	var g *model.Graph
	for i := 0; i < s.NumVideos(); i++ {
		gg, _, err := c.CrawlPage(context.Background(), webapp.WatchURL(s.VideoID(i)))
		if err != nil {
			b.Fatal(err)
		}
		if gg.NumStates() >= 3 {
			g = gg
			break
		}
	}
	if g == nil {
		b.Skip("no multi-state video in bench corpus")
	}
	target := g.States[g.NumStates()-1]
	path := g.PathTo(target.ID)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReplayPath(context.Background(), f, g.URL, path); err != nil {
			b.Fatal(err)
		}
	}
}
