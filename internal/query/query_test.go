package query

import (
	"context"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/webapp"
)

var nextHash byte

func freshHash() dom.Hash {
	nextHash++
	var h dom.Hash
	h[0] = nextHash
	h[1] = byte(int(nextHash) >> 8)
	return h
}

// buildIndex makes an index from (url, state texts...) tuples.
func buildIndex(pages map[string][]string, pr map[string]float64) *index.Index {
	urls := make([]string, 0, len(pages))
	for u := range pages {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	var graphs []*model.Graph
	for _, u := range urls {
		g := model.NewGraph(u)
		for depth, text := range pages[u] {
			g.AddState(freshHash(), text, depth)
		}
		graphs = append(graphs, g)
	}
	return index.Build(graphs, pr, 0)
}

// candidates is the unhinted shard half of b, as ShardSearchTop builds
// it: the statistics and every pre-idf candidate in arrival order.
func (b *Broker) candidates(terms []string) *ShardResult {
	res, atMost := b.stats(terms)
	slots, matches := b.stream(terms, newSelector(b.W, res.DF, res.TotalStates, 0, atMost))
	res.Candidates = slots[:matches]
	return res
}

// oneShard is the single-index engine: the N=1 broker.
func oneShard(ix *index.Index) *Broker { return NewBroker(ix) }

// foldShards is the router's merge in process: every shard's candidates
// folded under the summed statistics, top k (all when k <= 0).
func foldShards(q string, k int, shards ...*index.Index) []Result {
	terms := Parse(q)
	responses := make([]*ShardResult, len(shards))
	for i, ix := range shards {
		responses[i] = oneShard(ix).candidates(terms)
	}
	var out []Result
	for _, r := range Fold(terms, DefaultWeights, responses, k) {
		out = append(out, r.Result)
	}
	return out
}

// thesisIndex is the Morcheeba running example (§1.1, Table 5.1).
func thesisIndex() *index.Index {
	return buildIndex(map[string][]string{
		"url1": {
			"morcheeba enjoy the ride official video mysterious topic",
			"the new singer is great morcheeba fans rejoice",
		},
		"url2": {
			"morcheeba morcheeba concert video",
		},
		"url3": {
			"unrelated content about cats",
		},
	}, map[string]float64{"url1": 0.4, "url2": 0.35, "url3": 0.25})
}

func TestSimpleKeywordQuery(t *testing.T) {
	e := oneShard(thesisIndex())
	rs := e.Search("morcheeba")
	if len(rs) != 3 {
		t.Fatalf("morcheeba results = %d, want 3 states", len(rs))
	}
	for _, r := range rs {
		if r.URL == "url3" {
			t.Fatalf("url3 must not match")
		}
		if r.Score <= 0 {
			t.Fatalf("nonpositive score: %+v", r)
		}
	}
	// Sorted by descending score.
	for i := 1; i < len(rs); i++ {
		if rs[i].Score > rs[i-1].Score {
			t.Fatalf("results not sorted: %v", rs)
		}
	}
}

func TestQueryNoResults(t *testing.T) {
	e := oneShard(thesisIndex())
	if rs := e.Search("zebra"); rs != nil {
		t.Fatalf("absent term should return nil, got %v", rs)
	}
	if rs := e.Search(""); rs != nil {
		t.Fatalf("empty query should return nil")
	}
	if rs := e.Search("... !!!"); rs != nil {
		t.Fatalf("punctuation-only query should return nil")
	}
}

// TestConjunctionQ2 reproduces the motivating example: Q2 "morcheeba
// mysterious video" must hit only url1 state 0, where all three terms
// co-occur.
func TestConjunctionQ2(t *testing.T) {
	e := oneShard(thesisIndex())
	rs := e.Search("morcheeba mysterious video")
	if len(rs) != 1 || rs[0].URL != "url1" || rs[0].State != 0 {
		t.Fatalf("Q2 results = %v", rs)
	}
}

// TestConjunctionQ3 reproduces Q3 "morcheeba singer": both terms only
// co-occur in url1's second state (the second comment page) — the tuple
// <URL1, s2> of Figure 5.2.
func TestConjunctionQ3(t *testing.T) {
	e := oneShard(thesisIndex())
	rs := e.Search("morcheeba singer")
	if len(rs) != 1 || rs[0].URL != "url1" || rs[0].State != 1 {
		t.Fatalf("Q3 results = %v", rs)
	}
}

func TestConjunctionEliminatesIncompatibleStates(t *testing.T) {
	// Terms appear in the same URL but different states: no match.
	ix := buildIndex(map[string][]string{
		"u": {"alpha only here", "beta only here"},
	}, nil)
	e := oneShard(ix)
	if rs := e.Search("alpha beta"); len(rs) != 0 {
		t.Fatalf("cross-state conjunction must not match: %v", rs)
	}
}

func TestTFInfluencesRanking(t *testing.T) {
	ix := buildIndex(map[string][]string{
		"many": {"term term term term filler"},
		"one":  {"term filler filler filler filler"},
	}, nil)
	e := oneShard(ix)
	rs := e.Search("term")
	if len(rs) != 2 || rs[0].URL != "many" {
		t.Fatalf("higher-tf state must rank first: %v", rs)
	}
}

func TestPageRankInfluencesRanking(t *testing.T) {
	ix := buildIndex(map[string][]string{
		"popular": {"keyword same text"},
		"obscure": {"keyword same text"},
	}, map[string]float64{"popular": 0.9, "obscure": 0.1})
	e := oneShard(ix)
	rs := e.Search("keyword")
	if len(rs) != 2 || rs[0].URL != "popular" {
		t.Fatalf("PageRank must break the tie: %v", rs)
	}
}

func TestAJAXRankPrefersShallowStates(t *testing.T) {
	ix := buildIndex(map[string][]string{
		"u": {"keyword filler one", "keyword filler two"},
	}, nil)
	e := oneShard(ix)
	rs := e.Search("keyword")
	if len(rs) != 2 || rs[0].State != 0 {
		t.Fatalf("shallower state must rank first: %v", rs)
	}
}

func TestProximityRewardsAdjacency(t *testing.T) {
	ix := buildIndex(map[string][]string{
		"adjacent": {"alpha beta and much more filler text here"},
		"spread":   {"alpha filler filler filler filler filler beta x"},
	}, nil)
	e := oneShard(ix)
	rs := e.Search("alpha beta")
	if len(rs) != 2 || rs[0].URL != "adjacent" {
		t.Fatalf("adjacent phrase must rank first: %v", rs)
	}
}

// placed indexes one state whose token i is "t<j>" when lists[j] holds
// i and "x" otherwise. It returns cursors at the postings of t0, t1, …
// in it and the state text.
func placed(lists ...[]int32) ([]index.Postings, string) {
	var tokens []string
	for j, ps := range lists {
		for _, p := range ps {
			for len(tokens) <= int(p) {
				tokens = append(tokens, "x")
			}
			tokens[p] = "t" + itoa(j)
		}
	}
	text := strings.Join(tokens, " ")
	ix := buildIndex(map[string][]string{"u": {text}}, nil)
	postings := make([]index.Postings, len(lists))
	for j := range lists {
		postings[j] = ix.Lookup("t" + itoa(j))
		postings[j].Next()
	}
	return postings, text
}

func TestProximityFunction(t *testing.T) {
	prox := func(lists ...[]int32) float64 {
		postings, _ := placed(lists...)
		return proximity(postings)
	}
	if got := prox([]int32{3}); got != 1 {
		t.Fatalf("single term proximity = %v", got)
	}
	if got := prox([]int32{0}, []int32{1}); got != 1 {
		t.Fatalf("adjacent proximity = %v, want 1", got)
	}
	if got := prox([]int32{0}, []int32{9}); got != 0.2 {
		t.Fatalf("spread proximity = %v, want 0.2", got)
	}
	// Multiple occurrences: the best window counts.
	if got := prox([]int32{0, 20}, []int32{21}); got != 1 {
		t.Fatalf("best-window proximity = %v, want 1", got)
	}
	// Three terms adjacent.
	if got := prox([]int32{5}, []int32{6}, []int32{7}); got != 1 {
		t.Fatalf("3-term adjacent = %v", got)
	}
}

func TestIDFDownweightsCommonTerms(t *testing.T) {
	// "common" is everywhere (idf 0); "rare" in one state.
	ix := buildIndex(map[string][]string{
		"a": {"common rare", "common filler"},
		"b": {"common filler"},
	}, nil)
	e := oneShard(ix)
	rare := e.Search("rare")
	common := e.Search("common")
	if len(rare) != 1 || len(common) != 3 {
		t.Fatalf("hits: rare=%d common=%d", len(rare), len(common))
	}
	// The tf·idf component for "common" is zero everywhere: idf =
	// log(3/3) = 0, so scores come from base components only.
	idf := math.Log(float64(ix.TotalStates) / float64(ix.DF("common")))
	if idf != 0 {
		t.Fatalf("idf(common) = %v", idf)
	}
}

// TestBrokerMatchesSingleIndex pins the chapter-6 guarantee: sharding the
// corpus and folding the shards' candidates yields the same results and
// scores as a broker over one big index, thanks to the global idf
// correction.
func TestBrokerMatchesSingleIndex(t *testing.T) {
	pagesA := map[string][]string{
		"u1": {"morcheeba enjoy the ride", "singer news morcheeba here"},
		"u2": {"cats and dogs"},
	}
	pagesB := map[string][]string{
		"u3": {"morcheeba concert", "morcheeba singer interview extra"},
		"u4": {"unrelated filler text"},
	}
	pr := map[string]float64{"u1": 0.3, "u2": 0.2, "u3": 0.3, "u4": 0.2}

	merged := map[string][]string{}
	for k, v := range pagesA {
		merged[k] = v
	}
	for k, v := range pagesB {
		merged[k] = v
	}
	single := oneShard(buildIndex(merged, pr))
	a, b := buildIndex(pagesA, pr), buildIndex(pagesB, pr)

	for _, q := range []string{"morcheeba", "morcheeba singer", "cats", "filler text", "absent"} {
		sr := single.Search(q)
		br := foldShards(q, 0, a, b)
		if len(sr) != len(br) {
			t.Fatalf("q=%q: single %d results, broker %d", q, len(sr), len(br))
		}
		for i := range sr {
			if sr[i].URL != br[i].URL || sr[i].State != br[i].State {
				t.Fatalf("q=%q result %d differs: %v vs %v", q, i, sr[i], br[i])
			}
			if math.Abs(sr[i].Score-br[i].Score) > 1e-12 {
				t.Fatalf("q=%q score %d differs: %v vs %v", q, i, sr[i].Score, br[i].Score)
			}
		}
	}
}

func TestBrokerEmptyShards(t *testing.T) {
	b := NewBroker(index.New())
	if rs := b.Search("anything"); rs != nil {
		t.Fatalf("an empty index should return nil, got %v", rs)
	}
}

// topK truncates a ranked list to its first k entries (all when k <= 0).
func topK(rs []Result, k int) []Result {
	if k <= 0 || k >= len(rs) {
		return rs
	}
	return rs[:k]
}

func TestDeterministicTieBreaks(t *testing.T) {
	ix := buildIndex(map[string][]string{
		"b": {"same words here"},
		"a": {"same words here"},
	}, nil)
	e := oneShard(ix)
	r1 := e.Search("same")
	r2 := e.Search("same")
	if len(r1) != 2 || r1[0].URL != "a" {
		t.Fatalf("tie break not by URL: %v", r1)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("nondeterministic results")
		}
	}
}

// Property: conjunction results are exactly the (doc, state) pairs where
// every term occurs, cross-checked against a naive scan.
func TestPropertyConjunctionMatchesNaive(t *testing.T) {
	f := func(seed uint32) bool {
		words := []string{"a", "b", "c", "d"}
		// Build 3 docs × up to 3 states with pseudo-random text.
		x := uint64(seed)*2654435761 + 1
		pages := map[string][]string{}
		texts := map[[2]int]string{}
		for d := 0; d < 3; d++ {
			states := 1 + int(x%3)
			x = x*6364136223846793005 + 1442695040888963407
			var sts []string
			for s := 0; s < states; s++ {
				text := ""
				for w := 0; w < 4; w++ {
					if x&1 == 1 {
						text += words[w] + " "
					}
					x >>= 1
					if x == 0 {
						x = uint64(seed) + 7
					}
				}
				sts = append(sts, text)
				texts[[2]int{d, s}] = text
			}
			pages[string(rune('p'+d))] = sts
		}
		ix := buildIndex(pages, nil)
		e := oneShard(ix)
		rs := e.Search("a b")
		got := map[string]bool{}
		for _, r := range rs {
			got[r.URL+"#"+itoa(int(r.State))] = true
		}
		// Naive scan.
		want := map[string]bool{}
		for d := 0; d < 3; d++ {
			url := string(rune('p' + d))
			for s, text := range pages[url] {
				toks := index.Tokenize(text)
				hasA, hasB := false, false
				for _, tk := range toks {
					if tk == "a" {
						hasA = true
					}
					if tk == "b" {
						hasB = true
					}
				}
				if hasA && hasB {
					want[url+"#"+itoa(s)] = true
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}

// TestSearchTopKMatchesSortedSearch pins the heap-based top-k against
// the reference implementation across k values, queries and tie cases.
func TestSearchTopKMatchesSortedSearch(t *testing.T) {
	pages := map[string][]string{}
	// Deliberately include many identical texts to force score ties.
	for i := 0; i < 12; i++ {
		url := "u" + itoa(i)
		pages[url] = []string{
			"shared words with target here",
			"another state target target maybe",
			"filler without the term",
			// Proximity varies with i: the heap turns down matches by
			// their bound before it reads their positions.
			"target " + strings.Repeat("pad ", i%5) + "words shared",
		}
	}
	ix := buildIndex(pages, nil)
	b := oneShard(ix)
	for _, q := range []string{"target", "shared words", "target shared", "words target", "filler", "absent"} {
		full := b.Search(q)
		for _, k := range []int{1, 2, 5, 10, 100} {
			want := topK(full, k)
			got := b.SearchTopKCtx(context.Background(), q, k)
			if len(got) != len(want) {
				t.Fatalf("q=%q k=%d: %d results, want %d", q, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("q=%q k=%d result %d: %v, want %v", q, k, i, got[i], want[i])
				}
			}
		}
	}
	// k <= 0 degrades to the full search.
	if got := b.SearchTopKCtx(context.Background(), "target", 0); len(got) != len(b.Search("target")) {
		t.Fatalf("k=0 should return everything")
	}
	if got := b.SearchTopKCtx(context.Background(), "", 3); got != nil {
		t.Fatalf("empty query should be nil")
	}
}

// TestSearchTopKAcrossShards checks heap top-k under query shipping.
func TestSearchTopKAcrossShards(t *testing.T) {
	a := buildIndex(map[string][]string{"s1": {"term alpha", "term beta"}}, nil)
	bIx := buildIndex(map[string][]string{"s2": {"term gamma", "plain text"}}, nil)
	want := topK(foldShards("term", 0, a, bIx), 2)
	got := foldShards("term", 2, a, bIx)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("sharded top-k: %v want %v", got, want)
	}
}

// BenchmarkFold prices the two selections of the one fold on the same
// candidates: the full sort (k=0) and the bounded heap (k=10).
func BenchmarkFold(b *testing.B) {
	terms := Parse("common")
	broker := oneShard(largeBenchIndex())
	res := []*ShardResult{broker.candidates(terms)}
	for _, k := range []int{0, 10} {
		b.Run("k="+itoa(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Fold(terms, broker.W, res, k)
			}
		})
	}
}

// corpusGraphs is the crawled 200-video webapp corpus (seed 2008),
// crawled once per test binary.
var corpusGraphs = sync.OnceValues(func() ([]*model.Graph, error) {
	const videos = 200
	site := webapp.New(webapp.DefaultConfig(videos, 2008))
	urls := make([]string, videos)
	for i := range urls {
		urls[i] = webapp.WatchURL(site.VideoID(i))
	}
	c := core.New(&fetch.HandlerFetcher{Handler: site.Handler()}, core.Options{UseHotNode: true})
	res := (&core.MPCrawler{NewCrawler: func() *core.Crawler { return c }, ProcLines: 1, URLs: urls}).Run(context.Background())
	return res.Graphs, res.Err
})

// corpusServer serves corpusGraphs as one shard with snippets on. Its
// result cache is parked on a generation no snapshot has, so every
// search is a miss and no fill is kept.
var corpusServer = sync.OnceValues(func() (*Server, error) {
	graphs, err := corpusGraphs()
	if err != nil {
		return nil, err
	}
	broker := oneShard(index.Build(graphs, nil, 0))
	srv := NewServer(&ServeSnapshot{Broker: broker, StateText: broker.StateText}, CacheOptions{})
	srv.cache.Invalidate(-1)
	return srv, nil
})

func mustCorpusServer(tb testing.TB) *Server {
	srv, err := corpusServer()
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// commonTerms are the two corpus terms with the longest posting lists.
func commonTerms(ix *index.Index) [2]string {
	terms := make([]string, 0, len(ix.Terms))
	for t := range ix.Terms {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool {
		if a, b := ix.DF(terms[i]), ix.DF(terms[j]); a != b {
			return a > b
		}
		return terms[i] < terms[j]
	})
	return [2]string{terms[0], terms[1]}
}

// missQueries are the workload's cache-miss shapes on the corpus: a
// planted one-term and two-term query, and the most common term alone
// and paired with the runner-up (the worst case for anything that is
// per match).
func missQueries(srv *Server) (one, two []string) {
	common := commonTerms(srv.Live().Broker.Index)
	return []string{"wow", common[0]}, []string{"funny dance", common[0] + " " + common[1]}
}

// TestSearchMissAllocs: a cache miss costs a bounded number of
// allocations whatever the number of matches — the selector keeps k
// candidates resident, a snippet allocates its result and nothing else.
func TestSearchMissAllocs(t *testing.T) {
	srv := mustCorpusServer(t)
	ctx := context.Background()
	one, two := missQueries(srv)
	most := 0
	for _, q := range append(one, two...) {
		full := srv.ShardSearch(ctx, q)
		most = max(most, len(full.Candidates))
		miss := testing.AllocsPerRun(20, func() {
			if _, _, cached := srv.Search(ctx, q, 10); cached {
				t.Fatal("cache hit in the miss measurement")
			}
		})
		hint := Hint{K: 10, DF: full.DF, N: full.TotalStates}
		hinted := testing.AllocsPerRun(20, func() { srv.ShardSearchTop(ctx, q, hint) })
		t.Logf("%-16q %5d matches: miss %v allocs, hinted shard %v allocs", q, len(full.Candidates), miss, hinted)
		if miss > 40 || hinted > 40 {
			t.Errorf("%q (%d matches): miss %v, hinted shard %v allocations, budget 40 each", q, len(full.Candidates), miss, hinted)
		}
	}
	if most < 500 {
		t.Fatalf("the largest query matches only %d states: the budget was not tested against match count", most)
	}

	hit := srv.ShardSearch(ctx, "funny dance").Candidates[0]
	text := srv.Live().StateText(hit.URL, hit.State)
	for _, q := range []string{"funny dance", "dance zzz", "zzz"} {
		if n := testing.AllocsPerRun(100, func() { Snippet(text, q, SnippetOptions{}) }); n > 3 {
			t.Errorf("Snippet(%d bytes, %q): %v allocations, budget 3", len(text), q, n)
		}
	}
}

// BenchmarkSearchMiss prices one k=10 cache miss through
// Server.Search — parse, cache probe, stats, streamed top-k, ten
// snippets — for the one- and two-term shapes of missQueries.
func BenchmarkSearchMiss(b *testing.B) {
	srv := mustCorpusServer(b)
	ctx := context.Background()
	one, two := missQueries(srv)
	for _, bc := range []struct {
		name    string
		queries []string
	}{{"1term", one}, {"2term", two}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, q := range bc.queries {
					benchSink, _, _ = srv.Search(ctx, q, 10)
				}
			}
		})
	}
}

var (
	benchSink    []ResultWithSnippet
	benchSnippet string
)

// BenchmarkSnippet prices one snippet of a watch page's initial state.
func BenchmarkSnippet(b *testing.B) {
	srv := mustCorpusServer(b)
	hit := srv.ShardSearch(context.Background(), "funny dance").Candidates[0]
	text := srv.Live().StateText(hit.URL, hit.State)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSnippet = Snippet(text, "funny dance", SnippetOptions{})
	}
}

// BenchmarkShardSearch prices the shard half of a routed query on the
// crawled 200-video corpus, one op = the 100-query workload: unhinted
// (every match ships, a snippet on each) against hinted with k=10 (the
// cut under the global statistics — here the shard's own, it being the
// whole fleet — and snippets for the survivors only).
func BenchmarkShardSearch(b *testing.B) {
	srv := mustCorpusServer(b)
	ctx := context.Background()
	queries := webapp.Queries()
	for _, k := range []int{0, 10} {
		name := "unhinted"
		if k > 0 {
			name = "hinted_k" + itoa(k)
		}
		b.Run(name, func(b *testing.B) {
			hints := make([]Hint, len(queries))
			for i, q := range queries {
				full := srv.ShardSearch(ctx, q)
				hints[i] = Hint{K: k, DF: full.DF, N: full.TotalStates}
			}
			b.ReportAllocs()
			b.ResetTimer()
			shipped := 0
			for i := 0; i < b.N; i++ {
				for j, q := range queries {
					shipped += len(srv.ShardSearchTop(ctx, q, hints[j]).Candidates)
				}
			}
			b.ReportMetric(float64(shipped)/float64(b.N*len(queries)), "candidates/query")
		})
	}
}

// largeBenchIndex builds an index where "common" matches every state.
func largeBenchIndex() *index.Index {
	pages := map[string][]string{}
	for i := 0; i < 300; i++ {
		url := "bench" + itoa(i)
		pages[url] = []string{
			"common filler one " + itoa(i),
			"common filler two " + itoa(i*7),
		}
	}
	return buildIndex(pages, nil)
}
