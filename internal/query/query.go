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
// states). visit gets one cursor per term, each at the pair's posting;
// the merge advances them after visit returns.
func conjunction(ix *index.Index, terms []string, visit func(match []index.Postings)) {
	if len(terms) == 0 {
		return
	}
	cur := make([]index.Postings, len(terms))
	for i, t := range terms {
		if cur[i] = ix.Lookup(t); !cur[i].Next() {
			return
		}
	}
	key := func(p *index.Postings) int64 { return int64(p.Doc)<<32 | int64(p.State) } // in (doc, state) order
	for {
		// k-way sorted merge: the target is the largest head; a cursor
		// behind it skips ahead, one that overshoots raises it, and the
		// pair is emitted when every head has reached it.
		target, agreed := key(&cur[0]), 0
		for i := 0; agreed < len(cur); i = (i + 1) % len(cur) {
			c := &cur[i]
			for key(c) < target {
				if !c.Next() {
					return
				}
			}
			if k := key(c); k > target {
				target, agreed = k, 0
			}
			agreed++
		}
		visit(cur)
		for i := range cur {
			if !cur[i].Next() {
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

// proximityWindow is the minimal window of one match: a k-way merge of
// the terms' positions, decoded as the merge reaches them, feeds
// minimalWindow.
func proximityWindow(match []index.Postings) (lo, hi int32) {
	var rdBuf [8]index.Positions
	var lastBuf [8]int32
	rd, w := rdBuf[:], newMinimalWindow(lastBuf[:], len(match))
	if len(match) > len(rd) {
		rd = make([]index.Positions, len(match))
	}
	for i := range match {
		rd[i] = match[i].Positions()
	}
	for {
		next := -1
		for i := range match {
			if rd[i].Pos >= 0 && (next < 0 || rd[i].Pos < rd[next].Pos) {
				next = i
			}
		}
		if next < 0 {
			return w.lo, w.hi
		}
		w.observe(next, rd[next].Pos)
		rd[next].Next()
	}
}

// proximity computes the term-proximity coefficient T(q, s): k/span,
// where span is the smallest window (in tokens) containing one
// occurrence of every term. It is 1.0 when the terms appear adjacently
// ("contains the query as is") and decays as they spread out. Single-term
// queries score 1.
func proximity(match []index.Postings) float64 {
	k := len(match)
	if k <= 1 {
		return 1.0
	}
	lo, hi := proximityWindow(match)
	return float64(k) / float64(max(int(hi-lo)+1, k)) // overlapping positions cannot beat adjacency
}

// fill makes c the pre-idf candidate of one match on ix at proximity
// prox: formula 5.3's idf-independent part and, in c's own TFs vector,
// each term's raw tf (eq. 5.1: occurrences over the state's tokens).
func (c *ShardCandidate) fill(ix *index.Index, w Weights, match []index.Postings, prox float64) {
	doc, state := &ix.Docs[match[0].Doc], match[0].State
	stateLen, ajaxRank := doc.StateLens[state], doc.AJAXRanks[state]
	*c = ShardCandidate{
		URL:   doc.URL,
		State: int(state),
		Base:  w.PageRank*doc.PageRank + w.AJAXRank*ajaxRank + w.Proximity*prox,
		TFs:   c.TFs,
	}
	for i := range match {
		c.TFs[i] = float64(match[i].TF) / float64(stateLen)
	}
}

// Broker evaluates queries over one index: its matches stream into the
// selector Fold uses, under the index's own statistics, which are the
// global ones of eq. 6.1. Fan-out over several indexes is the router's.
type Broker struct {
	Index *index.Index
	W     Weights
}

// NewBroker returns a broker over ix with default weights.
func NewBroker(ix *index.Index) *Broker {
	return &Broker{Index: ix, W: DefaultWeights}
}

// StateText returns the visible text of a (url, state) result — the
// snippet source — or "" when the index does not hold that state.
func (b *Broker) StateText(url string, state int) string {
	if d, ok := b.Index.DocByURL(url); ok {
		return b.Index.StateText(d, model.StateID(state))
	}
	return ""
}

// stats starts the broker's half of Figure 6.4: the df vector and state
// count, no candidates yet (vectors non-nil even for an empty query, so
// the result marshals predictably). atMost bounds the matches: a
// conjunction emits no more than its shortest list holds.
func (b *Broker) stats(terms []string) (res *ShardResult, atMost int) {
	res = &ShardResult{Terms: terms, DF: make([]int, len(terms)), Candidates: []ShardCandidate{}}
	if len(terms) == 0 {
		return res, 0
	}
	for i, t := range terms {
		res.DF[i] = b.Index.DF(t)
	}
	res.TotalStates = b.Index.TotalStates
	return res, slices.Min(res.DF)
}

// stream is the produce half of Figure 6.4: the pre-idf candidates, in
// (doc, state) order, are offered to sel as the merge produces them, so
// only the sel.k kept ones and the one being filled are resident — a
// displaced candidate's slot, TFs vector included, takes the next match.
// A selector that keeps everything displaces nothing: slots[:matches] is
// then every candidate in order.
func (b *Broker) stream(terms []string, sel *selector) (slots []ShardCandidate, matches int) {
	slots = make([]ShardCandidate, sel.k+1)
	tfs := make([]float64, len(slots)*len(terms))
	for i := range slots {
		slots[i].TFs = tfs[i*len(terms) : (i+1)*len(terms) : (i+1)*len(terms)]
	}
	slot, used := &slots[0], 1
	conjunction(b.Index, terms, func(match []index.Postings) {
		matches++
		// Proximity is at most 1, and a score never falls as it rises: a
		// match the selector turns down at 1 is not worth its positions.
		slot.fill(b.Index, b.W, match, 1)
		if _, ok := sel.place(slot); !ok && b.W.Proximity >= 0 {
			return
		}
		slot.fill(b.Index, b.W, match, proximity(match))
		if slot = sel.offer(slot); slot == nil {
			slot, used = &slots[used], used+1
		}
	})
	return slots, matches
}

// Search evaluates the query and returns every result in rank order.
func (b *Broker) Search(q string) []Result {
	return b.SearchTopKCtx(context.Background(), q, 0)
}

// SearchTopKCtx returns the k best results in rank order (all of them
// when k <= 0): exactly the first k of Search, tie-breaking included,
// without sorting the rest. When the context carries telemetry, the
// evaluation is wrapped in a query.exec span and its latency lands in
// the registry.
func (b *Broker) SearchTopKCtx(ctx context.Context, q string, k int) []Result {
	return b.search(ctx, q, Parse(q), k)
}

// search is SearchTopKCtx for a parsed query. The broker's index is the
// whole collection, so its statistics are the global ones.
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
