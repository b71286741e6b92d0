package query

import (
	"math"
	"testing"
)

// canned builds a shard response by hand; df counts the candidates with
// a positive tf per term.
func canned(terms []string, states int, cands ...ShardCandidate) *ShardResult {
	res := &ShardResult{Terms: terms, TotalStates: states, DF: make([]int, len(terms)), Candidates: cands}
	for _, c := range cands {
		for i := range terms {
			if i < len(c.TFs) && c.TFs[i] > 0 {
				res.DF[i]++
			}
		}
	}
	return res
}

func cand(url string, state int, base float64, tfs ...float64) ShardCandidate {
	return ShardCandidate{URL: url, State: state, Base: base, TFs: tfs, Snippet: "[" + url + "]"}
}

// TestFoldGlobalIDF pins the eq. 6.1 arithmetic: idf must come from the
// SUMMED df and state counts, not any single shard's — the whole point
// of shipping df vectors instead of scores.
func TestFoldGlobalIDF(t *testing.T) {
	terms := []string{"video"}
	w := DefaultWeights
	// Shard 0: 10 states, df=1; shard 1: 30 states, df=3.
	// Global idf = ln(40/4), which no single shard would compute.
	r0 := canned(terms, 10, cand("http://a/1", 0, 0.5, 2))
	r1 := canned(terms, 30,
		cand("http://b/1", 0, 0.25, 1),
		cand("http://b/2", 1, 0.25, 1),
		cand("http://b/3", 2, 0.25, 1),
	)
	got := Fold(terms, w, []*ShardResult{r0, r1}, 0)
	if len(got) != 4 {
		t.Fatalf("got %d results, want 4", len(got))
	}
	idf := math.Log(40.0 / 4.0)
	wantTop := 0.5 + w.TFIDF*2*idf
	if got[0].URL != "http://a/1" || got[0].Score != wantTop {
		t.Fatalf("top = %q score %v, want http://a/1 score %v", got[0].URL, got[0].Score, wantTop)
	}
	if got[0].Snippet != "[http://a/1]" {
		t.Fatalf("snippet did not travel with its candidate: %q", got[0].Snippet)
	}
	wantRest := 0.25 + w.TFIDF*1*idf
	for _, r := range got[1:] {
		if r.Score != wantRest {
			t.Fatalf("result %q score %v, want %v", r.URL, r.Score, wantRest)
		}
	}
}

// TestFoldTieBreakOrder pins the deterministic total order: score desc,
// then URL asc, then state asc.
func TestFoldTieBreakOrder(t *testing.T) {
	terms := []string{"x"}
	// All zero TFs → score is just base; craft ties on purpose.
	r0 := canned(terms, 5,
		cand("http://b", 2, 1.0, 0),
		cand("http://a", 1, 1.0, 0),
	)
	r1 := canned(terms, 5,
		cand("http://a", 0, 1.0, 0),
		cand("http://c", 0, 2.0, 0),
	)
	got := Fold(terms, DefaultWeights, []*ShardResult{r0, r1}, 0)
	want := []string{"http://c#0", "http://a#0", "http://a#1", "http://b#2"}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i, r := range got {
		if key := r.URL + "#" + itoa(int(r.State)); key != want[i] {
			t.Fatalf("rank %d = %s, want %s", i, key, want[i])
		}
	}
}

func TestFoldTruncatesToK(t *testing.T) {
	terms := []string{"x"}
	r0 := canned(terms, 5,
		cand("http://a", 0, 3, 0), cand("http://b", 0, 2, 0), cand("http://c", 0, 1, 0))
	got := Fold(terms, DefaultWeights, []*ShardResult{r0}, 2)
	if len(got) != 2 || got[0].URL != "http://a" || got[1].URL != "http://b" {
		t.Fatalf("top-2 = %+v", got)
	}
}

func TestFoldSkipsNilAndMisalignedDefensively(t *testing.T) {
	terms := []string{"x", "y"}
	bad := canned(terms, 5)
	bad.Candidates = append(bad.Candidates, ShardCandidate{URL: "http://evil", TFs: []float64{1}})
	for _, k := range []int{0, 1} {
		if got := Fold(terms, DefaultWeights, []*ShardResult{nil, bad}, k); len(got) != 0 {
			t.Fatalf("k=%d: misaligned candidate entered the fold: %+v", k, got)
		}
	}
}

// TestFoldMatchesReferenceAcrossSplits is the fold's own differential:
// however the corpus is split into responses, and whichever selection k
// picks (full sort or bounded heap), Fold must equal the independent
// reference fold of the unsplit corpus, and Fold(k) must be a prefix of
// Fold(0).
func TestFoldMatchesReferenceAcrossSplits(t *testing.T) {
	// Many identical texts force score ties, so the order is decided by
	// the URL and state tie-breaks.
	var urls []string
	pages := map[string][]string{}
	for i := 0; i < 12; i++ {
		url := "u" + itoa(i)
		urls = append(urls, url)
		pages[url] = []string{
			"shared words with target here",
			"another state target target maybe " + itoa(i%3),
			"filler without the term",
		}
	}
	w := DefaultWeights
	for _, q := range []string{"target", "shared words", "target maybe", "absent"} {
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
			responses := make([]*ShardResult, splits)
			for i, part := range parts {
				responses[i] = oneShard(buildIndex(part, nil)).candidates(terms)
			}
			all := Fold(terms, w, responses, 0)
			if len(all) != len(want) {
				t.Fatalf("q=%q splits=%d: %d results, reference has %d", q, splits, len(all), len(want))
			}
			for i := range want {
				if all[i].Result != want[i] {
					t.Fatalf("q=%q splits=%d rank %d: %+v, reference %+v", q, splits, i, all[i].Result, want[i])
				}
			}
			for _, k := range []int{1, 10, len(want) + 5} {
				top := Fold(terms, w, responses, k)
				if wantLen := min(k, len(all)); len(top) != wantLen {
					t.Fatalf("q=%q splits=%d k=%d: %d results, want %d", q, splits, k, len(top), wantLen)
				}
				for i := range top {
					if top[i] != all[i] {
						t.Fatalf("q=%q splits=%d k=%d rank %d: %+v is not Fold(0)'s %+v", q, splits, k, i, top[i], all[i])
					}
				}
			}
		}
	}
}
