// Package pagerank computes PageRank over the hyperlink graph built by
// the precrawling phase (thesis §6.2.1). It is the URL-level component of
// the ranking formula 5.3.
package pagerank

import (
	"math"
	"sort"
)

// Options tune the power iteration.
type Options struct {
	// Damping is the damping factor d (default 0.85).
	Damping float64
	// Iterations is the maximum number of power iterations (default 50).
	Iterations int
	// Epsilon stops iteration early when the L1 delta falls below it
	// (default 1e-9).
	Epsilon float64
}

func (o Options) withDefaults() Options {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.Iterations == 0 {
		o.Iterations = 50
	}
	if o.Epsilon == 0 {
		o.Epsilon = 1e-9
	}
	return o
}

// Compute returns the PageRank of every node in the outbound-link map.
// Nodes that appear only as link targets are included. Dangling nodes
// (no outlinks) distribute their mass uniformly, the standard fix. Ranks
// sum to 1.
func Compute(links map[string][]string, opts Options) map[string]float64 {
	opts = opts.withDefaults()

	// Collect the node universe deterministically.
	nodeSet := make(map[string]bool, len(links))
	for from, tos := range links {
		nodeSet[from] = true
		for _, to := range tos {
			nodeSet[to] = true
		}
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	n := len(nodes)
	if n == 0 {
		return map[string]float64{}
	}
	idx := make(map[string]int, n)
	for i, name := range nodes {
		idx[name] = i
	}

	// Dedup outlinks and drop self-links (standard practice).
	out := make([][]int, n)
	for from, tos := range links {
		fi := idx[from]
		seen := map[int]bool{}
		for _, to := range tos {
			ti := idx[to]
			if ti == fi || seen[ti] {
				continue
			}
			seen[ti] = true
			out[fi] = append(out[fi], ti)
		}
	}

	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	d := opts.Damping
	base := (1 - d) / float64(n)
	for iter := 0; iter < opts.Iterations; iter++ {
		dangling := 0.0
		for i := range next {
			next[i] = base
		}
		for i, tos := range out {
			if len(tos) == 0 {
				dangling += rank[i]
				continue
			}
			share := d * rank[i] / float64(len(tos))
			for _, t := range tos {
				next[t] += share
			}
		}
		spread := d * dangling / float64(n)
		delta := 0.0
		for i := range next {
			next[i] += spread
			delta += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if delta < opts.Epsilon {
			break
		}
	}

	result := make(map[string]float64, n)
	for i, name := range nodes {
		result[name] = rank[i]
	}
	return result
}
