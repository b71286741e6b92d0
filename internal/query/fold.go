package query

import (
	"container/heap"
	"math"
	"sort"

	"ajaxcrawl/internal/model"
)

// Fold is the global half of Figure 6.4's two-step merge: sum df and
// state counts over the responses (in slice order, so the arithmetic is
// deterministic) and offer every candidate to a selector under them,
// which derives the global idf of eq. 6.1 once, adds w3·tf·idf to each
// pre-idf base and keeps the k best in the one rank order (score desc,
// URL asc, state asc). k <= 0 returns everything. A Broker streams its
// index's matches into the same selector; the router folds one
// validated response per shard server — same scoring, so the same bytes.
//
// Nil responses (failed shards) are skipped, as are candidates whose tf
// vector does not match terms. Fold does not deduplicate: responses from
// outside the process are validated and deduplicated by the router
// before they get here.
func Fold(terms []string, w Weights, responses []*ShardResult, k int) []ResultWithSnippet {
	globalDF, totalStates := GlobalStats(len(terms), responses)
	n := 0
	for _, res := range responses {
		if res != nil {
			n += len(res.Candidates)
		}
	}
	sel := newSelector(w, globalDF, totalStates, k, n)
	for _, res := range responses {
		if res != nil {
			for i := range res.Candidates {
				sel.offer(&res.Candidates[i])
			}
		}
	}
	top := sel.ranked()
	if len(top) == 0 {
		return nil
	}
	out := make([]ResultWithSnippet, len(top))
	for i, s := range top {
		out[i] = ResultWithSnippet{Result: s.result(), Snippet: s.cand.Snippet}
	}
	return out
}

// GlobalStats sums the inputs of eq. 6.1 over the non-nil responses: the
// per-term document frequencies (terms entries) and the state count.
// Fold ranks under these sums; a router that sums the statistics it
// expects of its shards the same way gets the Hint to send them.
func GlobalStats(terms int, responses []*ShardResult) (df []int, totalStates int) {
	df = make([]int, terms)
	for _, res := range responses {
		if res == nil {
			continue
		}
		for i, d := range res.DF {
			df[i] += d
		}
		totalStates += res.TotalStates
	}
	return df, totalStates
}

// scored is one candidate under a given idf: its final formula 5.3
// score, and the pre-idf candidate it belongs to.
type scored struct {
	score float64
	cand  *ShardCandidate
}

func (s scored) result() Result {
	return Result{URL: s.cand.URL, State: model.StateID(s.cand.State), Score: s.score}
}

// selector is the one score-and-select step, and the only place formula
// 5.3's tf·idf component is computed — for Fold, for the shard-side cut
// (Hint) and for the Broker alike: it derives the idf of eq. 6.1 from
// the summed df and state count, scores every candidate it is offered,
// and keeps the k best.
//
// When only k results are wanted the full sort is wasted work; a bounded
// min-heap replaces O(n log n) with O(n log k) — the simple member of
// the TopX / Threshold Algorithm family the thesis's related work points
// at, and the one that applies here, where scores exist only per match.
type selector struct {
	tfidf float64 // w3
	idf   []float64
	k     int
	top   scoredHeap // a heap once it holds k
}

// newSelector keeps the k best of at most atMost offers; k <= 0, or a k
// beyond atMost (a router's k is not clamped), keeps them all.
func newSelector(w Weights, df []int, totalStates, k, atMost int) *selector {
	if k <= 0 || k > atMost {
		k = atMost
	}
	s := &selector{tfidf: w.TFIDF, idf: make([]float64, len(df)), k: k, top: make(scoredHeap, 0, k)}
	for i, d := range df {
		if d > 0 && totalStates > 0 {
			s.idf[i] = math.Log(float64(totalStates) / float64(d))
		}
	}
	return s
}

// offer scores c and returns the candidate the selection has no use
// for, which a producer refills: c itself when it is not among the k
// best (or its tf vector does not match the terms), the one it
// displaced when it is, nil while fewer than k are held.
func (s *selector) offer(c *ShardCandidate) *ShardCandidate {
	if len(c.TFs) != len(s.idf) {
		return c
	}
	sc, ok := s.place(c)
	if !ok {
		return c
	}
	if len(s.top) < s.k {
		if s.top = append(s.top, sc); len(s.top) == s.k {
			heap.Init(&s.top)
		}
		return nil
	}
	out := s.top[0].cand
	s.top[0] = sc
	heap.Fix(&s.top, 0)
	return out
}

// place scores c, whose tf vector matches the terms, and reports whether
// it is among the k best so far.
func (s *selector) place(c *ShardCandidate) (scored, bool) {
	sc := scored{score: c.Base, cand: c}
	for t, idf := range s.idf {
		sc.score += s.tfidf * c.TFs[t] * idf
	}
	return sc, s.k > 0 && (len(s.top) < s.k || resultLess(s.top[0].result(), sc.result()))
}

// ranked returns what was kept in the one rank order, best first.
func (s *selector) ranked() []scored {
	sort.Stable(sort.Reverse(s.top))
	return s.top
}

// resultLess is the one rank order, worst first: a < b means a is a
// WORSE result than b (lower score; ties broken by URL then state, where
// the lexicographically later loses).
func resultLess(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	if a.URL != b.URL {
		return a.URL > b.URL
	}
	return a.State > b.State
}

// scoredHeap is a min-heap on rank quality: the root is the worst of the
// kept results, ready to be displaced. The selector fills it by append
// and only calls heap.Init and heap.Fix; Push and Pop complete
// heap.Interface.
type scoredHeap []scored

func (h scoredHeap) Len() int            { return len(h) }
func (h scoredHeap) Less(i, j int) bool  { return resultLess(h[i].result(), h[j].result()) }
func (h scoredHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *scoredHeap) Push(x interface{}) { *h = append(*h, x.(scored)) }
func (h *scoredHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
