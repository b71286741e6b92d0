// Package query implements the query-processing side of the AJAX search
// engine (thesis §5.3 and §6.5): simple keyword queries, conjunctions as
// sorted posting-list merges on (URL, state), the composite ranking
// formula 5.3 (PageRank + AJAXRank + tf·idf + term proximity), and
// distributed query shipping over index shards with the global idf
// correction of eq. 6.1.
package query

import (
	"context"
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
	URL   string        `json:"url"`
	State model.StateID `json:"state"`
	Score float64       `json:"score"`
}

// Parse tokenizes a query string into terms (conjunction semantics).
func Parse(q string) []string {
	return index.Tokenize(q)
}

// conjunction merges the posting lists of all terms and calls visit for
// every (doc, state) pair where every term occurs, in (doc, state) order
// — the two-phase compatibility merge of Figure 5.2 (URLs first, then
// states). visit gets the pair's postings aligned per term in one
// scratch slice that the next match overwrites.
func conjunction(ix *index.Index, terms []string, visit func(postings []index.Posting)) {
	if len(terms) == 0 {
		return
	}
	lists := make([][]index.Posting, len(terms))
	for i, t := range terms {
		if lists[i] = ix.Lookup(t); len(lists[i]) == 0 {
			return
		}
	}
	before := func(a, b index.Posting) bool {
		return a.Doc < b.Doc || (a.Doc == b.Doc && a.State < b.State)
	}
	postings := make([]index.Posting, len(lists))
	for {
		// k-way sorted merge: the target is the largest head; a list
		// behind it skips ahead, one that overshoots raises it, and the
		// pair is emitted when every head has reached it.
		target, agreed := lists[0][0], 0
		for i := 0; agreed < len(lists); i = (i + 1) % len(lists) {
			l := lists[i]
			for len(l) > 0 && before(l[0], target) {
				l = l[1:]
			}
			if len(l) == 0 {
				return
			}
			if lists[i] = l; before(target, l[0]) {
				target, agreed = l[0], 0
			}
			agreed++
		}
		for i, l := range lists {
			postings[i], lists[i] = l[0], l[1:]
		}
		visit(postings)
		for _, l := range lists {
			if len(l) == 0 {
				return
			}
		}
	}
}

// minimalWindow finds the smallest window of token positions holding one
// occurrence of every term it is shown, the earliest on ties: the window
// proximity scores and snippets are cut around. Occurrences arrive in
// position order, from a merge of position lists or a scan of the text.
type minimalWindow struct {
	last   []int32 // latest position per term, -1 until seen
	lo, hi int32   // the best window so far; hi is -1 until one exists
}

// newMinimalWindow returns a window over k terms, its state in buf when
// that is large enough (callers pass a stack array).
func newMinimalWindow(buf []int32, k int) minimalWindow {
	if k > len(buf) {
		buf = make([]int32, k)
	}
	for i := range buf[:k] {
		buf[i] = -1
	}
	return minimalWindow{last: buf[:k], hi: -1}
}

// observe records an occurrence of term at pos. A term's first
// occurrence restarts the search: no earlier window covers it.
func (w *minimalWindow) observe(term int, pos int32) {
	first := w.last[term] < 0
	w.last[term] = pos
	lo := pos
	for _, p := range w.last {
		if p >= 0 && p < lo {
			lo = p
		}
	}
	if first || pos-lo < w.hi-w.lo {
		w.lo, w.hi = lo, pos
	}
}

// proximityWindow is the minimal window of one match on ix: a k-way
// merge of the terms' position lists feeds minimalWindow.
func proximityWindow(ix *index.Index, postings []index.Posting) (lo, hi int32) {
	k := len(postings)
	var curBuf, lastBuf [8]int32
	cur, w := curBuf[:], newMinimalWindow(lastBuf[:], k)
	if k > len(cur) {
		cur = make([]int32, k)
	}
	for {
		next, at := -1, int32(0)
		for i, p := range postings {
			if ps := ix.Positions(p); int(cur[i]) < len(ps) && (next < 0 || ps[cur[i]] < at) {
				next, at = i, ps[cur[i]]
			}
		}
		if next < 0 {
			return w.lo, w.hi
		}
		w.observe(next, at)
		cur[next]++
	}
}

// proximity computes the term-proximity coefficient T(q, s): k/span,
// where span is the smallest window (in tokens) containing one
// occurrence of every term. It is 1.0 when the terms appear adjacently
// ("contains the query as is") and decays as they spread out. Single-term
// queries score 1.
func proximity(ix *index.Index, postings []index.Posting) float64 {
	k := len(postings)
	if k <= 1 {
		return 1.0
	}
	lo, hi := proximityWindow(ix, postings)
	return float64(k) / float64(max(int(hi-lo)+1, k)) // overlapping positions cannot beat adjacency
}

// tf computes eq. 5.1: occurrences of the term divided by the state's
// token count, which holds them, so it is never 0.
func tf(p index.Posting, stateLen int32) float64 {
	return float64(p.TF()) / float64(stateLen)
}

// fill makes c the pre-idf candidate of one match on ix: the
// idf-independent part of formula 5.3 and the raw tf per term, written
// into c's own TFs vector (one entry per posting).
func (c *ShardCandidate) fill(ix *index.Index, w Weights, postings []index.Posting) {
	doc, state := ix.Doc(postings[0].Doc), postings[0].State
	stateLen, ajaxRank := doc.StateLens[state], doc.AJAXRanks[state]
	*c = ShardCandidate{
		URL:   doc.URL,
		State: int(state),
		Base:  w.PageRank*doc.PageRank + w.AJAXRank*ajaxRank + w.Proximity*proximity(ix, postings),
		TFs:   c.TFs,
	}
	for i, post := range postings {
		c.TFs[i] = tf(post, stateLen)
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

// StateText returns the visible text of a (url, state) result from the
// shard that indexes url — the snippet source — or "" when no shard
// indexes that state.
func (b *Broker) StateText(url string, state int) string {
	for _, ix := range b.Shards {
		if d, ok := ix.DocByURL(url); ok {
			return ix.StateText(d, model.StateID(state))
		}
	}
	return ""
}

// stats starts the broker's half of Figure 6.4: the df vector and state
// count summed over its shards, no candidates yet (vectors non-nil even
// for an empty query, so the result marshals predictably). atMost bounds
// the matches: a conjunction emits no more than its shortest list holds.
func (b *Broker) stats(terms []string) (res *ShardResult, atMost int) {
	res = &ShardResult{Terms: terms, DF: make([]int, len(terms)), Candidates: []ShardCandidate{}}
	if len(terms) == 0 {
		return res, 0
	}
	for _, ix := range b.Shards {
		for i, t := range terms {
			res.DF[i] += ix.DF(t)
		}
		res.TotalStates += ix.TotalStates
	}
	return res, slices.Min(res.DF)
}

// stream is the produce half of Figure 6.4: every shard's pre-idf
// candidates, in shard then (doc, state) order, are offered to sel as
// the merge produces them, so only the sel.k kept ones and the one being
// filled are resident — a displaced candidate's slot, TFs vector
// included, takes the next match. A selector that keeps everything
// displaces nothing: slots[:matches] is then every candidate in order.
func (b *Broker) stream(terms []string, sel *selector) (slots []ShardCandidate, matches int) {
	slots = make([]ShardCandidate, sel.k+1)
	tfs := make([]float64, len(slots)*len(terms))
	for i := range slots {
		slots[i].TFs = tfs[i*len(terms) : (i+1)*len(terms) : (i+1)*len(terms)]
	}
	slot, used := &slots[0], 1
	for _, ix := range b.Shards {
		conjunction(ix, terms, func(postings []index.Posting) {
			matches++
			slot.fill(ix, b.W, postings)
			if slot = sel.offer(slot); slot == nil {
				slot, used = &slots[used], used+1
			}
		})
	}
	return slots, matches
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
// latency lands in the registry.
func (b *Broker) SearchTopKCtx(ctx context.Context, q string, k int) []Result {
	return b.search(ctx, q, Parse(q), k)
}

// search is SearchTopKCtx for a parsed query. The broker's shards are
// the whole collection, so their summed statistics are the global ones.
func (b *Broker) search(ctx context.Context, q string, terms []string, k int) []Result {
	tel := obs.From(ctx)
	_, sp := obs.StartSpan(ctx, obs.SpanQueryExec, obs.A("q", q))
	start := time.Now()

	res, atMost := b.stats(terms)
	sel := newSelector(b.W, res.DF, res.TotalStates, k, atMost)
	b.stream(terms, sel)
	top := sel.ranked()
	var out []Result
	if len(top) > 0 {
		out = make([]Result, len(top))
		for i, s := range top {
			out[i] = s.result()
		}
	}

	tel.Counter("query.count").Inc()
	tel.Histogram("query.latency").Observe(time.Since(start).Seconds())
	sp.SetAttr("results", strconv.Itoa(len(out)))
	sp.End(nil)
	return out
}

// QueryString normalizes a query for display.
func QueryString(terms []string) string { return strings.Join(terms, " ") }
