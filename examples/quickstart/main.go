// Quickstart: crawl a small synthetic AJAX site, search it, and
// reconstruct a result state — the whole library in ~40 lines.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"ajaxcrawl"
)

func main() {
	ctx := context.Background()
	// A deterministic synthetic YouTube-like site: watch pages whose
	// comment pagination loads via XMLHttpRequest.
	site := ajaxcrawl.NewSimSite(60, 7)

	// Build the full search engine: precrawl + PageRank, parallel AJAX
	// crawling with the hot-node cache, sharded indexing.
	eng, err := ajaxcrawl.BuildEngine(ctx, ajaxcrawl.Config{
		Fetcher:  ajaxcrawl.NewHandlerFetcher(site.Handler()),
		StartURL: site.VideoURL(0),
		MaxPages: 30,
		KeepURL:  ajaxcrawl.IsWatchURL,
		Crawl:    ajaxcrawl.CrawlOptions{UseHotNode: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	m := eng.Metrics
	fmt.Printf("crawled %d pages into %d application states\n", m.Pages, m.States)
	fmt.Printf("events triggered: %d, of which only %d needed the network (hot-node cache)\n",
		m.EventsTriggered, m.NetworkEvents)

	// Search. Results are (URL, state) pairs: the state names the exact
	// comment page the terms occur on.
	const q = "wow"
	results := eng.Search(ctx, q, 5)
	fmt.Printf("\ntop results for %q:\n", q)
	for i, r := range results {
		fmt.Printf("%d. %s  state=%d  score=%.3f\n", i+1, r.URL, r.State, r.Score)
	}
	if len(results) == 0 {
		log.Fatal("no results — unexpected for the most popular planted query")
	}

	// Reconstruct the top result's state by replaying its event path,
	// as the result-aggregation phase does for the user.
	html, err := eng.Reconstruct(ctx, results[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreconstructed state is %d bytes of HTML; contains %q: %v\n",
		len(html), q, strings.Contains(strings.ToLower(html), q))
}
