package main

import (
	"fmt"
	"runtime"
	"time"

	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/router"
	"ajaxcrawl/internal/webapp"
)

// expRouter benchmarks the shard-router tier (DESIGN.md §5i) against
// the single-snapshot evaluation it must reproduce: the corpus is
// partitioned round-robin into 1/2/4 in-process shards, the full
// 100-query workload runs through router.Search (k=0, all results),
// and every merged ranking is compared bit-for-bit — URL, state and
// float64 score — against Broker.Search on the unpartitioned index.
// The timing columns price the fan-out: goroutine launch, per-shard
// pre-idf evaluation, and the global-idf merge, paid per query in
// exchange for horizontal capacity.
func expRouter(e *env) error {
	graphs, err := queryCorpus(e)
	if err != nil {
		return err
	}
	// Deterministic PageRank stand-in so partitioning cannot change the
	// base scores (PageRank is a whole-web input, computed fleet-wide).
	pr := make(map[string]float64, len(graphs))
	for i, g := range graphs {
		pr[g.URL] = 1.0 / float64(i+2)
	}
	queries := webapp.Queries()

	single := query.NewBroker(index.Build(graphs, pr, 0))
	want := make([][]query.Result, len(queries))
	totalResults := 0
	for i, q := range queries {
		want[i] = single.Search(q)
		totalResults += len(want[i])
	}

	newFleet := func(n int) (*router.Router, error) {
		parts := make([][]*model.Graph, n)
		for i, g := range graphs {
			parts[i%n] = append(parts[i%n], g)
		}
		shards := make([]*index.Index, n)
		for i, part := range parts {
			shards[i] = index.Build(part, pr, 0)
		}
		return localFleet(shards)
	}

	// Best-of-5 batches over the whole workload; GC between fleets keeps
	// allocation noise out of the timings (same discipline as f7.10).
	const reps = 20
	timeWorkload := func(run func(q string)) time.Duration {
		runtime.GC()
		best := time.Duration(1 << 62)
		for b := 0; b < 5; b++ {
			start := time.Now()
			for r := 0; r < reps; r++ {
				for _, q := range queries {
					run(q)
				}
			}
			if d := time.Since(start) / reps; d < best {
				best = d
			}
		}
		return best
	}

	baseT := timeWorkload(func(q string) { single.Search(q) })
	fmt.Fprintf(e.out, "%-14s %-10s %-16s %-10s %-12s\n",
		"fleet", "results", "time/100q (ms)", "vs single", "mismatches")
	fmt.Fprintf(e.out, "%-14s %-10d %-16.2f %-10s %-12s\n",
		"single broker", totalResults, ms(baseT), "1.00x", "-")

	for _, n := range []int{1, 2, 4} {
		rt, err := newFleet(n)
		if err != nil {
			return err
		}
		// Equality pass, outside the timed loop: the differential check
		// is the experiment's correctness gate, the timing its payload.
		mismatches, got := 0, 0
		for i, q := range queries {
			m, err := rt.Search(e.ctx, q, 0)
			if err != nil {
				return fmt.Errorf("router %d shards, q=%q: %w", n, q, err)
			}
			got += len(m.Results)
			if len(m.Results) != len(want[i]) {
				mismatches++
				continue
			}
			for j := range want[i] {
				r := m.Results[j]
				if r.URL != want[i][j].URL || r.State != want[i][j].State || r.Score != want[i][j].Score {
					mismatches++
					break
				}
			}
		}
		shardT := timeWorkload(func(q string) { _, _ = rt.Search(e.ctx, q, 0) })
		fmt.Fprintf(e.out, "%-14s %-10d %-16.2f %-10s %-12d\n",
			fmt.Sprintf("%d shard(s)", n), got, ms(shardT),
			fmt.Sprintf("%.2fx", float64(shardT)/float64(baseT)), mismatches)
		if mismatches > 0 {
			return fmt.Errorf("router: %d/%d rankings diverged from the single snapshot on %d shards", mismatches, len(queries), n)
		}
	}
	fmt.Fprintln(e.out, "(shape: identical rankings at every shard count; fan-out overhead grows with shards)")
	return nil
}

// localFleet is a router over one in-process query server per shard:
// the serving tier's fan-out and eq. 6.1 merge, without sockets.
func localFleet(shards []*index.Index) (*router.Router, error) {
	topo := make([][]router.Backend, len(shards))
	for i, ix := range shards {
		snap := &query.ServeSnapshot{Broker: query.NewBroker(ix)}
		topo[i] = []router.Backend{router.LocalBackend{QS: query.NewServer(snap, query.CacheOptions{})}}
	}
	return router.New(router.Config{Shards: topo, Seed: 1})
}
