package query

import (
	"container/heap"
	"math"
	"sort"

	"ajaxcrawl/internal/model"
)

// Fold is the global half of Figure 6.4's two-step merge, and the only
// place formula 5.3's tf·idf component is computed: sum df and state
// counts over the responses (in slice order, so the arithmetic is
// deterministic), derive the global idf of eq. 6.1 once, add
// w3·tf·idf to every candidate's pre-idf base, and select the k best in
// the one rank order (score desc, URL asc, state asc). k <= 0 returns
// everything. A Broker folds its own shards' candidates as one response;
// the router folds one validated response per shard server — same
// function, so the same bytes.
//
// Nil responses (failed shards) are skipped, as are candidates whose tf
// vector does not match terms. Fold does not deduplicate: responses from
// outside the process are validated and deduplicated by the router
// before they get here.
func Fold(terms []string, w Weights, responses []*ShardResult, k int) []ResultWithSnippet {
	globalDF, totalStates := GlobalStats(len(terms), responses)
	top := selectTop(w, globalDF, totalStates, responses, k)
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

// selectTop is the one score-and-select step, shared by Fold and by the
// shard-side cut (Hint): derive the idf of eq. 6.1 from the summed df
// and state count, score every candidate of responses, and return the k
// best in rank order (all of them when k <= 0).
//
// When only k results are wanted the full sort is wasted work; a bounded
// min-heap replaces O(n log n) with O(n log k) — the simple member of
// the TopX / Threshold Algorithm family the thesis's related work points
// at, and the one that applies here, where scores exist only per match.
func selectTop(w Weights, df []int, totalStates int, responses []*ShardResult, k int) []scored {
	n := 0
	for _, res := range responses {
		if res != nil {
			n += len(res.Candidates)
		}
	}
	if n == 0 {
		return nil
	}
	idf := make([]float64, len(df))
	for i, d := range df {
		if d > 0 && totalStates > 0 {
			idf[i] = math.Log(float64(totalStates) / float64(d))
		}
	}

	bounded := k > 0 && k < n
	if !bounded {
		k = n
	}
	h := make(scoredHeap, 0, k)
	for _, res := range responses {
		if res == nil {
			continue
		}
		for i := range res.Candidates {
			c := &res.Candidates[i]
			if len(c.TFs) != len(idf) {
				continue
			}
			score := c.Base
			for t := range idf {
				score += w.TFIDF * c.TFs[t] * idf[t]
			}
			s := scored{score: score, cand: c}
			if len(h) < k {
				h = append(h, s)
				if bounded && len(h) == k {
					heap.Init(&h)
				}
			} else if resultLess(h[0].result(), s.result()) {
				h[0] = s
				heap.Fix(&h, 0)
			}
		}
	}
	sort.SliceStable(h, func(i, j int) bool { return resultLess(h[j].result(), h[i].result()) })
	return h
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
// kept results, ready to be displaced. selectTop fills it by append and
// only calls heap.Init and heap.Fix; Push and Pop complete
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
