package query

import (
	"context"
	"strconv"
	"time"

	"ajaxcrawl/internal/obs"
)

// Distributed query shipping (thesis ch. 6): a shard server does NOT
// return final scores — the tf·idf component needs the *global* document
// frequencies (eq. 6.1), which only the router that fans the query out
// to every shard can sum. So a shard returns pre-idf candidates: the
// idf-independent part of formula 5.3 (w1·PR + w2·A + w4·T) plus the raw
// per-term tf values, alongside the shard's local df vector and state
// count. Whoever holds every shard's response — a Broker in process,
// the router over HTTP — hands them to Fold, which adds the tf·idf
// component with the globally corrected idf and ranks; one function, so
// the sharded fleet produces exactly the bytes a single process
// evaluating the union index does (the differential battery in
// internal/router pins this). Once the router has seen every shard's
// statistics for a query's terms it sends their sum along (Hint), and
// each shard ships only the candidates that can still make the global
// top-k.

// ShardCandidate is one pre-idf candidate of a shard evaluation: the
// score parts that do not depend on global collection statistics, plus
// the snippet (state text lives only on the owning shard, so the
// snippet must travel with the candidate).
type ShardCandidate struct {
	// URL and State identify the (document, application state) hit.
	URL   string `json:"url"`
	State int    `json:"state"`
	// Base is the idf-independent score: w1·PageRank + w2·AJAXRank +
	// w4·Proximity.
	Base float64 `json:"base"`
	// TFs holds the term frequency (eq. 5.1) per query term, aligned
	// with ShardResult.Terms.
	TFs []float64 `json:"tfs"`
	// Snippet is the highlighted excerpt for this candidate, computed
	// shard-side where the state text lives.
	Snippet string `json:"snippet,omitempty"`
}

// ShardResult is one shard server's half of the distributed merge: its
// candidates plus the local collection statistics the router sums into
// the global idf. A shard server whose index merges several shard files
// returns their union (sums are associative, so the router's global idf
// is unchanged by how files are grouped into servers).
type ShardResult struct {
	// Terms is the normalized query, one entry per conjunctive term.
	Terms []string `json:"terms"`
	// TotalStates is the shard's state count (the N_i of eq. 6.1).
	TotalStates int `json:"total_states"`
	// DF is the per-term document frequency on this shard, aligned with
	// Terms (the df_i of eq. 6.1).
	DF []int `json:"df"`
	// Gen, Docs and States describe the serving snapshot that answered,
	// for response metadata.
	Gen    int64 `json:"gen"`
	Docs   int   `json:"docs"`
	States int   `json:"states"`
	// Candidates are the pre-idf hits: all of them in shard-local
	// (doc, state) order, or the Hint.K best in rank order.
	Candidates []ShardCandidate `json:"candidates"`
}

// Hint is what a router that already knows every shard's statistics for
// a query sends along with it: the global df vector and state count of
// eq. 6.1 (integers — the shard derives the idf with the code Fold
// uses) and the number of results wanted. Under the fleet-wide idf every
// shard ranks in the same total order, so a shard may keep just its K
// best: a global top-K member is beaten by fewer than K candidates
// anywhere, hence by fewer than K on its own shard (DESIGN.md §5i). The
// zero Hint asks for every candidate.
type Hint struct {
	// K is the cut bound: the router's k, never clamped to the shard's
	// own page-size limit.
	K int
	// DF is the global per-term document frequency, aligned with the
	// query's terms.
	DF []int
	// N is the global state count.
	N int
}

// ShardSearch evaluates q on the live snapshot and returns the shard
// half of a distributed merge: EVERY matching candidate with its pre-idf
// score parts, the local df vector, and the local state count — a shard
// cannot rank without the global idf, and truncating on local scores
// could evict a globally top-k document. It is ShardSearchTop with no
// hint.
func (s *Server) ShardSearch(ctx context.Context, q string) *ShardResult {
	return s.ShardSearchTop(ctx, q, Hint{})
}

// ShardSearchTop is ShardSearch under a router's Hint: when h carries a
// positive K and a df vector aligned with q's terms, each match is
// scored under h's global idf as the merge produces it and only the K
// best are kept, in rank order — still as pre-idf candidates with the
// shard's own DF and TotalStates, so the router folds them exactly as
// it folds a full response, and can tell from those statistics whether
// the hint it sent was current. Any other h returns every candidate in
// shard-local (doc, state) order. q is parsed once; snippets are
// attached shard-side, to what is shipped. The result cache is not
// consulted: entries are keyed by (query, k) final results, a different
// value space.
func (s *Server) ShardSearchTop(ctx context.Context, q string, h Hint) *ShardResult {
	tel := obs.From(ctx)
	tel.Counter("query.shard.requests").Inc()
	_, sp := obs.StartSpan(ctx, obs.SpanShardEval, obs.A("q", q))
	start := time.Now()

	snap := s.live.Load()
	terms := Parse(q)
	res, atMost := snap.Broker.stats(terms)
	hinted := h.K > 0 && len(h.DF) == len(terms)
	if !hinted {
		// Keep everything; the shard's own statistics stand in for an idf
		// nothing will be ranked under.
		h = Hint{DF: res.DF, N: res.TotalStates}
	}
	sel := newSelector(snap.Broker.W, h.DF, h.N, h.K, atMost)
	slots, matches := snap.Broker.stream(terms, sel)
	if hinted {
		res.Candidates = make([]ShardCandidate, 0, len(sel.top))
		for _, t := range sel.ranked() {
			res.Candidates = append(res.Candidates, *t.cand)
		}
	} else {
		res.Candidates = slots[:matches]
	}
	res.Gen, res.Docs, res.States = snap.Gen, snap.Docs, snap.States
	if snap.StateText != nil {
		for i := range res.Candidates {
			c := &res.Candidates[i]
			if text := snap.StateText(c.URL, c.State); text != "" {
				c.Snippet = snippet(text, terms, snap.SnippetOpts)
			}
		}
	}

	tel.Counter("query.shard.candidates").Add(int64(len(res.Candidates)))
	tel.Histogram("query.shard.latency").Observe(time.Since(start).Seconds())
	sp.SetAttr("candidates", strconv.Itoa(len(res.Candidates)))
	sp.End(nil)
	return res
}
