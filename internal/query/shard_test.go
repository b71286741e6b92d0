package query

import (
	"context"
	"math"
	"slices"
	"sort"
	"testing"

	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
)

// foldShardResult applies the router's global-idf fold to one shard's
// pre-idf candidates — the same arithmetic internal/router performs, in
// miniature, so the shard protocol can be checked against Broker.Search
// without importing the router package (which imports this one).
func foldShardResult(res *ShardResult, w Weights) []Result {
	idf := make([]float64, len(res.Terms))
	for i, df := range res.DF {
		if df > 0 && res.TotalStates > 0 {
			idf[i] = math.Log(float64(res.TotalStates) / float64(df))
		}
	}
	out := make([]Result, 0, len(res.Candidates))
	for _, c := range res.Candidates {
		score := c.Base
		for t := range res.Terms {
			score += w.TFIDF * c.TFs[t] * idf[t]
		}
		out = append(out, Result{URL: c.URL, State: model.StateID(c.State), Score: score})
	}
	// resultLess orders worst-first (heap order); best-first is its
	// inverse.
	sort.SliceStable(out, func(i, j int) bool { return resultLess(out[j], out[i]) })
	return out
}

// TestShardSearchFoldsBackToSearch is the protocol's local soundness
// check: on a single shard the local df IS the global df, so folding
// the shard response's pre-idf candidates with its own statistics must
// reproduce Broker.Search bit-for-bit — same docs, same float64 scores,
// same order. (The cross-shard half lives in internal/router's
// differential battery.)
func TestShardSearchFoldsBackToSearch(t *testing.T) {
	ix := thesisIndex()
	snap := &ServeSnapshot{Broker: NewBroker(ix)}
	srv := NewServer(snap, CacheOptions{})

	for _, q := range []string{"morcheeba", "morcheeba video", "new singer", "nosuchterm", "the"} {
		res := srv.ShardSearch(context.Background(), q)
		want := snap.Broker.Search(q)
		got := foldShardResult(res, snap.Broker.W)
		if len(got) != len(want) {
			t.Fatalf("q=%q: folded %d results, Search %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i].URL != want[i].URL || got[i].State != want[i].State || got[i].Score != want[i].Score {
				t.Fatalf("q=%q rank %d: folded %+v, Search %+v", q, i, got[i], want[i])
			}
		}
	}
}

// TestShardSearchReturnsAllCandidates: unasked, a shard must NOT
// truncate to a local top-k — local pre-idf order can differ from the
// global order, so a cut made without the global statistics risks
// evicting a globally top-ranked document.
func TestShardSearchReturnsAllCandidates(t *testing.T) {
	ix := thesisIndex()
	snap := &ServeSnapshot{Broker: NewBroker(ix)}
	srv := NewServer(snap, CacheOptions{})

	res := srv.ShardSearch(context.Background(), "morcheeba")
	want := snap.Broker.Search("morcheeba")
	if len(res.Candidates) != len(want) {
		t.Fatalf("shard returned %d candidates, full evaluation has %d matches",
			len(res.Candidates), len(want))
	}
	if res.TotalStates != ix.TotalStates {
		t.Fatalf("TotalStates = %d, want %d", res.TotalStates, ix.TotalStates)
	}
	if len(res.Terms) != 1 || res.Terms[0] != "morcheeba" {
		t.Fatalf("Terms = %v", res.Terms)
	}
	if len(res.DF) != 1 || res.DF[0] != len(want) {
		t.Fatalf("DF = %v, want [%d]", res.DF, len(want))
	}
	for i, c := range res.Candidates {
		if len(c.TFs) != 1 {
			t.Fatalf("candidate %d TFs = %v, want 1 entry per term", i, c.TFs)
		}
	}
}

// TestShardSearchSnippetsAndMetadata: snippets are attached shard-side
// (the state text never leaves the shard) and the snapshot metadata
// rides along.
func TestShardSearchSnippetsAndMetadata(t *testing.T) {
	texts := map[string]string{}
	pages := map[string][]string{
		"url1": {"morcheeba enjoy the ride official video"},
		"url2": {"morcheeba concert footage"},
	}
	for u, states := range pages {
		texts[u] = states[0]
	}
	ix := buildIndex(pages, nil)
	snap := &ServeSnapshot{
		Broker:    NewBroker(ix),
		StateText: func(url string, state int) string { return texts[url] },
	}
	srv := NewServer(snap, CacheOptions{})
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, nil))

	res := srv.ShardSearch(ctx, "morcheeba")
	if res.Gen != 1 || res.Docs != 2 || res.States != 2 {
		t.Fatalf("metadata = gen %d, %d docs, %d states", res.Gen, res.Docs, res.States)
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("candidates = %d, want 2", len(res.Candidates))
	}
	for _, c := range res.Candidates {
		if c.Snippet == "" {
			t.Fatalf("candidate %s has no snippet", c.URL)
		}
	}
	if got := reg.Counter("query.shard.requests").Value(); got != 1 {
		t.Fatalf("query.shard.requests = %d, want 1", got)
	}
	if got := reg.Counter("query.shard.candidates").Value(); got != 2 {
		t.Fatalf("query.shard.candidates = %d, want 2", got)
	}
}

// TestShardSearchEmptyQuery: no terms, no candidates — but the vectors
// are present (non-nil) so the response marshals predictably.
func TestShardSearchEmptyQuery(t *testing.T) {
	snap := &ServeSnapshot{Broker: NewBroker(thesisIndex())}
	srv := NewServer(snap, CacheOptions{})
	res := srv.ShardSearch(context.Background(), "...!!...")
	if len(res.Terms) != 0 || len(res.DF) != 0 || len(res.Candidates) != 0 {
		t.Fatalf("empty query result = %+v", res)
	}
	if res.Candidates == nil || res.DF == nil {
		t.Fatal("empty vectors must be non-nil for stable marshaling")
	}
}

// TestHintedCutFoldsToTheSameTopK is the cut's differential: however
// the corpus is split, Fold over the shards' responses cut under the
// global df/N (Hint) equals Fold over their full responses, and equals
// the reference fold of the unsplit corpus — for every k, through score
// ties. The corpus is the classic local-idf trap at two shards: on shard
// 0 every state holds "omega" and half hold "alpha", so locally alpha is
// the rare, valuable term; globally (shard 1 is three times larger and
// all alpha) it is the reverse, and the states that win the global top-k
// lose the local one.
func TestHintedCutFoldsToTheSameTopK(t *testing.T) {
	var urls []string
	pages := map[string][]string{}
	for i := 0; i < 24; i++ {
		url := "u" + string(rune('a'+i))
		urls = append(urls, url)
		switch {
		case i%2 == 1:
			pages[url] = []string{"alpha filler one", "alpha filler two", "alpha filler three"}
		case i%8 == 0:
			pages[url] = []string{"alpha alpha alpha omega filler filler"}
		case i%8 == 4:
			pages[url] = []string{"alpha omega omega omega filler filler"}
		default:
			pages[url] = []string{"omega filler filler filler"}
		}
	}
	w := DefaultWeights
	ctx := context.Background()
	sameResults := func(a, b []ResultWithSnippet) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	cuts, trapped := 0, false
	for _, q := range []string{"alpha omega", "alpha", "omega", "absent"} {
		terms := Parse(q)
		want := foldShardResult(oneShard(buildIndex(pages, nil)).candidates(terms), w)
		for _, splits := range []int{1, 2, 4} {
			parts := make([]map[string][]string, splits)
			for i, url := range urls {
				if parts[i%splits] == nil {
					parts[i%splits] = map[string][]string{}
				}
				parts[i%splits][url] = pages[url]
			}
			servers := make([]*Server, splits)
			full := make([]*ShardResult, splits)
			for i, part := range parts {
				servers[i] = NewServer(&ServeSnapshot{Broker: oneShard(buildIndex(part, nil))}, CacheOptions{})
				full[i] = servers[i].ShardSearch(ctx, q)
			}
			df, n := GlobalStats(len(terms), full)
			hint := Hint{DF: df, N: n}
			for _, k := range []int{1, 3, 10, len(want) + 5} {
				hint.K = k
				hinted := make([]*ShardResult, splits)
				local := make([]*ShardResult, splits)
				for i, s := range servers {
					hinted[i] = s.ShardSearchTop(ctx, q, hint)
					if len(hinted[i].Candidates) > k {
						t.Fatalf("q=%q splits=%d k=%d: shard %d shipped %d candidates", q, splits, k, i, len(hinted[i].Candidates))
					}
					if hinted[i].TotalStates != full[i].TotalStates || !slices.Equal(hinted[i].DF, full[i].DF) {
						t.Fatalf("q=%q splits=%d k=%d: shard %d's statistics changed under the hint", q, splits, k, i)
					}
					cuts += len(full[i].Candidates) - len(hinted[i].Candidates)
					// The cut this PR must NOT make: each shard under
					// its own statistics.
					local[i] = s.ShardSearchTop(ctx, q, Hint{K: k, DF: full[i].DF, N: full[i].TotalStates})
				}
				got, exact := Fold(terms, w, hinted, k), Fold(terms, w, full, k)
				if !sameResults(got, exact) {
					t.Fatalf("q=%q splits=%d k=%d: fold of cut responses\n%+v\nfold of full responses\n%+v", q, splits, k, got, exact)
				}
				if len(got) != min(k, len(want)) {
					t.Fatalf("q=%q splits=%d k=%d: %d results, want %d", q, splits, k, len(got), min(k, len(want)))
				}
				for i := range got {
					if got[i].Result != want[i] {
						t.Fatalf("q=%q splits=%d k=%d rank %d: %+v, reference %+v", q, splits, k, i, got[i].Result, want[i])
					}
				}
				if !sameResults(Fold(terms, w, local, k), exact) {
					trapped = true
				}
			}
		}
	}
	if cuts == 0 {
		t.Fatal("no hinted response was shorter than the full one: the cut never ran")
	}
	if !trapped {
		t.Fatal("a cut under local statistics was exact everywhere: the corpus is not the local-idf trap it claims to be")
	}
}
