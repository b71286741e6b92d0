// Package query implements the query-processing side of the AJAX search
// engine (thesis §5.3 and §6.5): simple keyword queries, conjunctions as
// sorted posting-list merges on (URL, state), the composite ranking
// formula 5.3 (PageRank + AJAXRank + tf·idf + term proximity), and
// distributed query shipping over index shards with the global idf
// correction of eq. 6.1.
package query

import (
	"context"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
)

// Weights are the w1..w4 coefficients of formula 5.3.
type Weights struct {
	PageRank  float64 // w1
	AJAXRank  float64 // w2
	TFIDF     float64 // w3
	Proximity float64 // w4
}

// DefaultWeights balance the four components for the experiments.
var DefaultWeights = Weights{PageRank: 1.0, AJAXRank: 0.5, TFIDF: 2.0, Proximity: 0.5}

// Result is one ranked search hit: a URL plus the application state
// containing the query.
type Result struct {
	URL   string
	State model.StateID
	Score float64
}

// Parse tokenizes a query string into terms (conjunction semantics).
func Parse(q string) []string {
	return index.Tokenize(q)
}

// match is one (doc, state) containing all query terms, with the
// postings aligned per term.
type match struct {
	doc      index.DocID
	state    model.StateID
	postings []index.Posting // one per term, same (doc, state)
}

// conjunction merges the posting lists of all terms, keeping only
// (doc, state) pairs where every term occurs — the two-phase
// compatibility merge of Figure 5.2 (URLs first, then states).
func conjunction(ix *index.Index, terms []string) []match {
	if len(terms) == 0 {
		return nil
	}
	lists := make([][]index.Posting, len(terms))
	for i, t := range terms {
		lists[i] = ix.Lookup(t)
		if len(lists[i]) == 0 {
			return nil
		}
	}
	// k-way sorted merge: advance the cursor with the smallest
	// (doc, state); emit when all cursors agree.
	cursors := make([]int, len(lists))
	var out []match
	for {
		// Find the max (doc, state) among cursors; all must reach it.
		maxDoc, maxState := lists[0][cursors[0]].Doc, lists[0][cursors[0]].State
		equal := true
		for i := range lists {
			p := lists[i][cursors[i]]
			if p.Doc != maxDoc || p.State != maxState {
				equal = false
			}
			if p.Doc > maxDoc || (p.Doc == maxDoc && p.State > maxState) {
				maxDoc, maxState = p.Doc, p.State
			}
		}
		if equal {
			m := match{doc: maxDoc, state: maxState, postings: make([]index.Posting, len(lists))}
			for i := range lists {
				m.postings[i] = lists[i][cursors[i]]
			}
			out = append(out, m)
			// Advance all cursors past the emitted pair.
			for i := range lists {
				cursors[i]++
				if cursors[i] >= len(lists[i]) {
					return out
				}
			}
			continue
		}
		// Advance every cursor that is behind (maxDoc, maxState).
		for i := range lists {
			for cursors[i] < len(lists[i]) {
				p := lists[i][cursors[i]]
				if p.Doc < maxDoc || (p.Doc == maxDoc && p.State < maxState) {
					cursors[i]++
				} else {
					break
				}
			}
			if cursors[i] >= len(lists[i]) {
				return out
			}
		}
	}
}

// proximity computes the term-proximity coefficient T(q, s): k/span,
// where span is the smallest window (in tokens) containing one
// occurrence of every term. It is 1.0 when the terms appear adjacently
// ("contains the query as is") and decays as they spread out. Single-term
// queries score 1.
func proximity(postings []index.Posting) float64 {
	k := len(postings)
	if k <= 1 {
		return 1.0
	}
	// Pointers into each term's position list; classic minimal-window.
	ptr := make([]int, k)
	best := math.MaxInt32
	for {
		lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
		loIdx := -1
		for i := 0; i < k; i++ {
			pos := postings[i].Positions[ptr[i]]
			if pos < lo {
				lo, loIdx = pos, i
			}
			if pos > hi {
				hi = pos
			}
		}
		if span := int(hi-lo) + 1; span < best {
			best = span
		}
		ptr[loIdx]++
		if ptr[loIdx] >= len(postings[loIdx].Positions) {
			break
		}
	}
	if best < k {
		best = k // overlapping positions cannot beat adjacency
	}
	return float64(k) / float64(best)
}

// tf computes eq. 5.1: occurrences of the term divided by the state's
// token count.
func tf(p index.Posting, stateLen int32) float64 {
	if stateLen == 0 {
		return 0
	}
	return float64(p.TF()) / float64(stateLen)
}

// shardSearch evaluates the query on one shard and adds the shard's half
// of Figure 6.4 to res: its pre-idf candidates, its local df counts and
// its state count.
func shardSearch(ix *index.Index, terms []string, w Weights, res *ShardResult) {
	for i, t := range terms {
		res.DF[i] += ix.DF(t)
	}
	res.TotalStates += ix.TotalStates
	matches := conjunction(ix, terms)
	// The candidate list is the largest per-query allocation: size it
	// once per shard instead of letting append double its way there.
	res.Candidates = slices.Grow(res.Candidates, len(matches))
	for _, m := range matches {
		doc := ix.Doc(m.doc)
		stateLen := int32(0)
		ajaxRank := 0.0
		if int(m.state) < len(doc.StateLens) {
			stateLen = doc.StateLens[m.state]
			ajaxRank = doc.AJAXRanks[m.state]
		}
		c := ShardCandidate{
			URL:   doc.URL,
			State: int(m.state),
			Base:  w.PageRank*doc.PageRank + w.AJAXRank*ajaxRank + w.Proximity*proximity(m.postings),
			TFs:   make([]float64, len(terms)),
		}
		for i, post := range m.postings {
			c.TFs[i] = tf(post, stateLen)
		}
		res.Candidates = append(res.Candidates, c)
	}
}

// Broker ships a query to every shard and folds the shards' candidates
// into one ranking with the global idf of eq. 6.1 — the two-step merge
// of Figure 6.4, in process. A single index is the one-shard case.
type Broker struct {
	Shards []*index.Index
	W      Weights
}

// NewBroker returns a broker with default weights.
func NewBroker(shards []*index.Index) *Broker {
	return &Broker{Shards: shards, W: DefaultWeights}
}

// candidates is the produce half of Figure 6.4: every shard's pre-idf
// candidates (in shard, then (doc, state) order) with the df vector and
// state count summed over the broker's shards. The vectors are non-nil
// even for an empty query, so the result marshals predictably.
func (b *Broker) candidates(terms []string) *ShardResult {
	res := &ShardResult{
		Terms:      terms,
		DF:         make([]int, len(terms)),
		Candidates: make([]ShardCandidate, 0),
	}
	if len(terms) > 0 {
		for _, shard := range b.Shards {
			shardSearch(shard, terms, b.W, res)
		}
	}
	return res
}

// Search evaluates the query across all shards and returns every result
// in rank order.
func (b *Broker) Search(q string) []Result {
	return b.SearchTopK(q, 0)
}

// SearchTopK returns the k best results in rank order (all of them when
// k <= 0): exactly the first k of Search, tie-breaking included, without
// sorting the rest.
func (b *Broker) SearchTopK(q string, k int) []Result {
	return b.SearchTopKCtx(context.Background(), q, k)
}

// SearchTopKCtx is SearchTopK under a context: when the context carries
// telemetry, the evaluation is wrapped in a query.exec span and its
// latency and candidate count land in the registry.
func (b *Broker) SearchTopKCtx(ctx context.Context, q string, k int) []Result {
	tel := obs.From(ctx)
	_, sp := obs.StartSpan(ctx, obs.SpanQueryExec, obs.A("q", q))
	start := time.Now()

	terms := Parse(q)
	res := b.candidates(terms)
	var out []Result
	if ranked := Fold(terms, b.W, []*ShardResult{res}, k); len(ranked) > 0 {
		out = make([]Result, len(ranked))
		for i, r := range ranked {
			out[i] = r.Result
		}
	}

	tel.Counter("query.count").Inc()
	tel.Counter("query.candidates").Add(int64(len(res.Candidates)))
	tel.Histogram("query.latency").Observe(time.Since(start).Seconds())
	sp.SetAttr("results", strconv.Itoa(len(out)))
	sp.End(nil)
	return out
}

// QueryString normalizes a query for display.
func QueryString(terms []string) string { return strings.Join(terms, " ") }
