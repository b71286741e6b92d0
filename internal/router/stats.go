package router

import (
	"math"
	"slices"
	"strings"
	"sync"

	"ajaxcrawl/internal/query"
)

// maxStatTerms bounds the statistics table. Query terms are chosen by
// whoever can reach /search, so the table cannot grow with them; when it
// is full it is emptied, and every query's terms are learned again by
// one unhinted fan-out each. A constant, not a flag: the only cost of a
// wrong value is that relearning.
const maxStatTerms = 1 << 15

// statsTable is what the router remembers of its shards' collection
// statistics — per term the df each shard last reported, per shard its
// last reported state count — so it can sum the global df and N of
// eq. 6.1 before it fans a query out and send them along as a
// query.Hint. Every shard response carries the shard's actual values,
// so nothing here is trusted for longer than one fan-out: a hint whose
// inputs a response contradicts is discarded (Router.search).
type statsTable struct {
	mu sync.Mutex
	// df maps a term to its per-shard df, -1 where a shard has not
	// reported it yet.
	df map[string][]int
	// states is each shard's TotalStates, -1 until it first answers.
	states []int
}

func newStatsTable(shards int) *statsTable {
	t := &statsTable{df: make(map[string][]int), states: make([]int, shards)}
	for i := range t.states {
		t.states[i] = -1
	}
	return t
}

// expect returns, per shard, the candidate-less response the table
// predicts for terms — the remembered DF vector and TotalStates — or nil
// unless every term is known on every shard. The slices are the
// caller's.
func (t *statsTable) expect(terms []string) []*query.ShardResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*query.ShardResult, len(t.states))
	for i, states := range t.states {
		if states < 0 {
			return nil
		}
		out[i] = &query.ShardResult{Terms: terms, TotalStates: states, DF: make([]int, len(terms))}
	}
	for j, term := range terms {
		perShard, ok := t.df[term]
		if !ok {
			return nil
		}
		for i, df := range perShard {
			if df < 0 {
				return nil
			}
			out[i].DF[j] = df
		}
	}
	return out
}

// learn records what the responding shards (non-nil entries, which
// checkShardResult has aligned with terms) reported.
func (t *statsTable) learn(terms []string, responses []*query.ShardResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for j, term := range terms {
		perShard, ok := t.df[term]
		if !ok {
			if len(t.df) >= maxStatTerms {
				clear(t.df)
			}
			perShard = slices.Repeat([]int{-1}, len(t.states))
			// A parsed term may be a substring of the query string; the
			// table must hold the term's bytes only, not pin the request.
			t.df[strings.Clone(term)] = perShard
		}
		for i, res := range responses {
			if res != nil {
				perShard[i] = res.DF[j]
			}
		}
	}
	for i, res := range responses {
		if res != nil {
			t.states[i] = res.TotalStates
		}
	}
}

// forget drops terms, whose remembered statistics a shard has just
// contradicted.
func (t *statsTable) forget(terms []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, term := range terms {
		delete(t.df, term)
	}
}

// hintFor sums the expected per-shard statistics into the hint sent
// with a query for the k best — or no hint when a shard would reject
// the sums: it takes 32-bit counts and a positive N.
func hintFor(expect []*query.ShardResult, k int) query.Hint {
	df, n := query.GlobalStats(len(expect[0].DF), expect)
	if n == 0 || n > math.MaxInt32 || slices.Max(df) > math.MaxInt32 {
		return query.Hint{}
	}
	return query.Hint{K: k, DF: df, N: n}
}

// refuted reports whether any shard's answer shows that the hint it was
// sent was summed from statistics the shard no longer has — the cut was
// made under the wrong idf. Gen is a per-process swap counter that
// differs between replicas of the same data, so the statistics
// themselves are compared.
func refuted(outs []outcome, expect []*query.ShardResult) bool {
	for i, o := range outs {
		if o.err == nil && (o.res.TotalStates != expect[i].TotalStates || !slices.Equal(o.res.DF, expect[i].DF)) {
			return true
		}
	}
	return false
}
