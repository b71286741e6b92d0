// Parallel crawling: the chapter-6 architecture. The URL list from the
// precrawl seeds one shared, prioritized frontier; N "process lines"
// pull pages from it concurrently and steal each other's surplus; the
// models come back in URL order whatever the scheduling did.
//
//	go run ./examples/parallel
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ajaxcrawl"
	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/webapp"
)

func main() {
	ctx := context.Background()
	site := webapp.New(webapp.DefaultConfig(80, 5))
	// Simulated per-request network latency makes the parallelism
	// visible: process lines overlap their waiting time.
	const latency = 3 * time.Millisecond
	newFetcher := func() fetch.Fetcher {
		return fetch.NewInstrumented(
			&fetch.HandlerFetcher{Handler: site.Handler()}, fetch.RealClock{}, latency, 0)
	}

	// Precrawl the frontier once.
	pre := &core.Precrawler{
		Fetcher:  newFetcher(),
		StartURL: webapp.WatchURL(site.VideoID(0)),
		MaxPages: 60,
		KeepURL:  ajaxcrawl.IsWatchURL,
	}
	preRes, err := pre.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("precrawled %d pages; PageRank computed over the hyperlink graph\n", len(preRes.URLs))

	// Both runs use a fresh fetcher, not preRes.Handoff: a handoff serves
	// each page once, so the second run would refetch every page the first
	// took, and the comparison would measure the handoff, not the lines.
	run := func(lines int) time.Duration {
		mp := &core.MPCrawler{
			NewCrawler: func() *core.Crawler {
				return core.New(newFetcher(), core.Options{UseHotNode: true})
			},
			ProcLines: lines,
			URLs:      preRes.URLs,
		}
		start := time.Now()
		res := mp.Run(ctx)
		elapsed := time.Since(start)
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		fmt.Printf("%d process line(s): %d pages, %d states in %v\n",
			lines, res.Metrics.Pages, res.Metrics.States, elapsed.Round(time.Millisecond))
		return elapsed
	}

	serial := run(1)
	parallel := run(4)
	fmt.Printf("parallel speedup: %.2fx (%0.1f%% lower crawl time)\n",
		float64(serial)/float64(parallel), 100*(1-float64(parallel)/float64(serial)))
	fmt.Println("(the thesis reports 25-28% lower crawl times with 4 process lines)")
}
