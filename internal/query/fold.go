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
//
// When only k results are wanted the full sort is wasted work; a bounded
// min-heap replaces O(n log n) with O(n log k) — the simple member of
// the TopX / Threshold Algorithm family the thesis's related work points
// at, and the one that applies here, where scores exist only per match.
func Fold(terms []string, w Weights, responses []*ShardResult, k int) []ResultWithSnippet {
	globalDF := make([]int, len(terms))
	totalStates, n := 0, 0
	for _, res := range responses {
		if res == nil {
			continue
		}
		for i, df := range res.DF {
			globalDF[i] += df
		}
		totalStates += res.TotalStates
		n += len(res.Candidates)
	}
	if n == 0 {
		return nil
	}
	idf := make([]float64, len(terms))
	for i, df := range globalDF {
		if df > 0 && totalStates > 0 {
			idf[i] = math.Log(float64(totalStates) / float64(df))
		}
	}

	bounded := k > 0 && k < n
	if !bounded {
		k = n
	}
	h := make(resultHeap, 0, k)
	for _, res := range responses {
		if res == nil {
			continue
		}
		for _, c := range res.Candidates {
			if len(c.TFs) != len(terms) {
				continue
			}
			score := c.Base
			for t := range terms {
				score += w.TFIDF * c.TFs[t] * idf[t]
			}
			r := ResultWithSnippet{
				Result:  Result{URL: c.URL, State: model.StateID(c.State), Score: score},
				Snippet: c.Snippet,
			}
			if len(h) < k {
				h = append(h, r)
				if bounded && len(h) == k {
					heap.Init(&h)
				}
			} else if resultLess(h[0].Result, r.Result) {
				h[0] = r
				heap.Fix(&h, 0)
			}
		}
	}
	sort.SliceStable(h, func(i, j int) bool { return resultLess(h[j].Result, h[i].Result) })
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

// resultHeap is a min-heap on rank quality: the root is the worst of the
// kept results, ready to be displaced. Fold fills it by append and only
// calls heap.Init and heap.Fix; Push and Pop complete heap.Interface.
type resultHeap []ResultWithSnippet

func (h resultHeap) Len() int            { return len(h) }
func (h resultHeap) Less(i, j int) bool  { return resultLess(h[i].Result, h[j].Result) }
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(ResultWithSnippet)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
