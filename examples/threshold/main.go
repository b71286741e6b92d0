// Crawling-threshold tuning: how many AJAX states are worth crawling?
// The paper's §7.6–7.7 tradeoff at example scale: every additional state
// improves recall (with diminishing returns) but slows queries down. This
// example sweeps the per-page state limit from 1 (traditional) to 11 and
// prints the recall/throughput frontier, picking the threshold the same
// way the paper does.
//
//	go run ./examples/threshold
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ajaxcrawl"
)

func main() {
	ctx := context.Background()
	site := ajaxcrawl.NewSimSite(100, 77)
	fetcher := ajaxcrawl.NewHandlerFetcher(site.Handler())

	// Crawl once with the full state budget; indexes for smaller limits
	// are carved out of the same application models.
	c := ajaxcrawl.NewCrawler(fetcher, ajaxcrawl.CrawlOptions{UseHotNode: true})
	var graphs []*ajaxcrawl.Graph
	for i := 0; i < 60; i++ {
		g, _, err := c.CrawlPage(ctx, site.VideoURL(i))
		if err != nil {
			log.Fatal(err)
		}
		graphs = append(graphs, g)
	}

	queries := site.Queries()
	type point struct {
		states    int
		results   int
		queryTime time.Duration
	}
	var frontier []point
	var baseResults int
	for limit := 1; limit <= 11; limit++ {
		eng := ajaxcrawl.NewEngine(fetcher, graphs, nil, limit)
		eng.NumStates() // builds the index before the queries are timed
		total := 0
		start := time.Now()
		for _, q := range queries {
			total += len(eng.Search(ctx, q, 0))
		}
		elapsed := time.Since(start)
		if limit == 1 {
			baseResults = total
		}
		frontier = append(frontier, point{limit, total, elapsed})
	}

	fmt.Printf("%-8s %-10s %-14s %-14s\n", "states", "results", "recall gain", "query time")
	for _, p := range frontier {
		gain := fmt.Sprintf("%.2fx", float64(p.results)/float64(baseResults))
		fmt.Printf("%-8d %-10d %-14s %-14v\n",
			p.states, p.results, gain, p.queryTime.Round(time.Microsecond))
	}

	// Pick the threshold: the first limit where the marginal recall gain
	// of one more state drops below 5%.
	pick := len(frontier)
	for i := 1; i < len(frontier); i++ {
		gain := float64(frontier[i].results-frontier[i-1].results) / float64(frontier[i-1].results)
		if gain < 0.05 {
			pick = frontier[i-1].states
			break
		}
	}
	fmt.Printf("\nsuggested crawl threshold: %d states per page\n", pick)
	fmt.Println("(the paper reaches ~0.7 of the recall gain by 4-5 states; beyond that,")
	fmt.Println(" extra states cost query throughput for little additional recall)")
}
