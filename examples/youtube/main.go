// YouTube-comments scenario: the paper's motivating example (§1.1) at
// repository scale. A video's comments continue across AJAX-loaded pages;
// traditional search only sees the first page, so queries matching later
// comments return false negatives. AJAX search indexes every state.
//
//	go run ./examples/youtube
package main

import (
	"context"
	"fmt"
	"log"

	"ajaxcrawl"
)

func main() {
	ctx := context.Background()
	site := ajaxcrawl.NewSimSite(120, 99)
	fetcher := ajaxcrawl.NewHandlerFetcher(site.Handler())

	// Crawl the same 60 videos twice: once as a traditional crawler
	// (JavaScript off — only the default first comment page is visible)
	// and once as the AJAX crawler.
	crawl := func(opts ajaxcrawl.CrawlOptions) *ajaxcrawl.Engine {
		c := ajaxcrawl.NewCrawler(fetcher, opts)
		var graphs []*ajaxcrawl.Graph
		for i := 0; i < 60; i++ {
			g, _, err := c.CrawlPage(ctx, site.VideoURL(i))
			if err != nil {
				log.Fatal(err)
			}
			graphs = append(graphs, g)
		}
		return ajaxcrawl.NewEngine(fetcher, graphs, nil, 0)
	}
	trad := crawl(ajaxcrawl.CrawlOptions{Traditional: true})
	ajax := crawl(ajaxcrawl.CrawlOptions{UseHotNode: true})

	fmt.Printf("traditional index: %d states | AJAX index: %d states\n\n",
		trad.NumStates(), ajax.NumStates())

	// Run the popular-query workload on both and compare recall — the
	// paper's "improvement in search quality" (§7.7).
	fmt.Printf("%-18s %12s %12s %10s\n", "query", "traditional", "AJAX", "gain")
	tradTotal, ajaxTotal := 0, 0
	for _, q := range site.Queries()[:11] {
		t, a := len(trad.Search(ctx, q, 0)), len(ajax.Search(ctx, q, 0))
		tradTotal += t
		ajaxTotal += a
		gain := "-"
		if t > 0 {
			gain = fmt.Sprintf("%.1fx", float64(a)/float64(t))
		} else if a > 0 {
			gain = "∞ (false negative fixed)"
		}
		fmt.Printf("%-18s %12d %12d %10s\n", q, t, a, gain)
	}
	fmt.Printf("%-18s %12d %12d %9.1fx\n", "TOTAL", tradTotal, ajaxTotal,
		float64(ajaxTotal)/float64(max(1, tradTotal)))

	// Show one concrete rescue: a query whose only hits are on later
	// comment pages (state > 0) — invisible to traditional search.
	for _, q := range site.Queries() {
		if len(trad.Search(ctx, q, 0)) != 0 {
			continue
		}
		rs := ajax.Search(ctx, q, 3)
		if len(rs) == 0 {
			continue
		}
		fmt.Printf("\nfalse negative fixed: %q has no traditional hits, but AJAX search finds\n", q)
		for _, r := range rs {
			fmt.Printf("  %s  on comment page %d\n", r.URL, r.State+1)
		}
		return
	}
	fmt.Println("\n(no fully-rescued query in this sample; AJAX still multiplied recall)")
}
