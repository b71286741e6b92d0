package main

import (
	"fmt"
	"time"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/webapp"
)

// expNearDup benchmarks the near-duplicate admission paths on the
// noisy-app workload (ROADMAP item 1): watch pages whose decor strip
// (timestamp/view-counter/ad-slot) mutates on every tracked event, so
// exact hashing burns the state budget on chrome variants. Three crawls
// over the same corpus compare exact-only admission, the brute-force
// linear scan (NearDupBands = -1), and the banded LSH index
// (NearDupBands = 0): the two merging paths must produce identical
// models — the index's pigeonhole layout keeps recall 1.0 on the
// verified path — while the index does strictly less similarity work
// (the "verified" column: exact Similarity computations).
func expNearDup(e *env) error {
	cfg := webapp.DefaultConfig(min(e.videos, 60), e.seed)
	cfg.NoisyDecor = true
	site := webapp.New(cfg)
	f := &fetch.HandlerFetcher{Handler: site.Handler()}
	var urls []string
	for i := 0; i < site.NumVideos(); i++ {
		urls = append(urls, webapp.WatchURL(site.VideoID(i)))
	}

	type result struct {
		m      *core.Metrics
		graphs []*model.Graph
		wall   time.Duration
	}
	// The fetcher is deliberately uninstrumented (no simulated latency):
	// wall time then reflects admission work, which is what the two
	// merging paths differ in.
	run := func(threshold float64, bands int) (result, error) {
		start := time.Now()
		graphs, m, err := core.New(f, core.Options{
			UseHotNode:       true,
			MaxStates:        11,
			NearDupThreshold: threshold,
			NearDupBands:     bands,
			Sketch:           e.sketch,
		}).CrawlAll(e.ctx, urls)
		if err != nil {
			return result{}, err
		}
		return result{m: m, graphs: graphs, wall: time.Since(start)}, nil
	}
	exact, err := run(0, 0)
	if err != nil {
		return err
	}
	brute, err := run(0.9, -1)
	if err != nil {
		return err
	}
	lsh, err := run(0.9, 0)
	if err != nil {
		return err
	}

	identical := len(brute.graphs) == len(lsh.graphs)
	for i := 0; identical && i < len(brute.graphs); i++ {
		bg, lg := brute.graphs[i], lsh.graphs[i]
		identical = len(bg.States) == len(lg.States)
		for j := 0; identical && j < len(bg.States); j++ {
			identical = bg.States[j].Hash == lg.States[j].Hash
		}
	}

	fmt.Fprintf(e.out, "%-22s %-8s %-8s %-10s %-10s %-8s %-10s\n",
		"admission", "states", "merges", "probes", "verified", "fp", "wall")
	row := func(name string, r result) {
		fmt.Fprintf(e.out, "%-22s %-8d %-8d %-10d %-10d %-8d %-10v\n",
			name, r.m.States, r.m.NearDupMerges, r.m.NearDupProbes,
			r.m.NearDupCandidates, r.m.NearDupFalsePositives, r.wall.Round(time.Millisecond))
	}
	row("exact hash only", exact)
	row("brute force @0.9", brute)
	row("lsh index @0.9", lsh)
	fmt.Fprintf(e.out, "identical models (brute vs lsh): %v; similarity work saved: %.1f%%\n",
		identical, 100*(1-float64(lsh.m.NearDupCandidates)/float64(brute.m.NearDupCandidates)))
	if !identical {
		return fmt.Errorf("neardup: LSH model diverged from the brute-force baseline")
	}
	if lsh.m.NearDupCandidates >= brute.m.NearDupCandidates {
		return fmt.Errorf("neardup: index did not reduce similarity work (%d vs %d verifications)",
			lsh.m.NearDupCandidates, brute.m.NearDupCandidates)
	}
	return nil
}
