package main

import (
	"fmt"
	"time"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/webapp"
)

// expNearDup benchmarks near-duplicate admission on the noisy-app
// workload (ROADMAP item 1): watch pages whose decor strip
// (timestamp/view-counter/ad-slot) mutates on every tracked event, so
// exact hashing burns the state budget on chrome variants. Two crawls
// over the same corpus compare exact-only admission with MinHash
// merging; the "compared" column counts the signature comparisons of
// the admitter's scan over each page's admitted states.
func expNearDup(e *env) error {
	cfg := webapp.DefaultConfig(min(e.videos, 60), e.seed)
	cfg.NoisyDecor = true
	site := webapp.New(cfg)
	f := &fetch.HandlerFetcher{Handler: site.Handler()}
	var urls []string
	for i := 0; i < site.NumVideos(); i++ {
		urls = append(urls, webapp.WatchURL(site.VideoID(i)))
	}

	fmt.Fprintf(e.out, "%-22s %-8s %-8s %-10s %-10s\n", "admission", "states", "merges", "compared", "wall")
	// The fetcher is deliberately uninstrumented (no simulated latency):
	// wall time then reflects admission work.
	for _, threshold := range []float64{0, 0.9} {
		start := time.Now()
		opts := core.Options{UseHotNode: true, MaxStates: 11, NearDupThreshold: threshold}
		res := (&core.MPCrawler{
			NewCrawler: func() *core.Crawler { return core.New(f, opts) },
			ProcLines:  1,
			URLs:       urls,
		}).Run(e.ctx)
		if res.Err != nil {
			return res.Err
		}
		m := res.Metrics
		name := "exact hash only"
		if threshold > 0 {
			name = fmt.Sprintf("minhash scan @%.1f", threshold)
		}
		fmt.Fprintf(e.out, "%-22s %-8d %-8d %-10d %-10v\n",
			name, m.States, m.NearDupMerges, m.NearDupCandidates, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
