// Form crawling: the "address forms in AJAX applications" future-work
// item of thesis chapter 10, in the spirit of its Deep-Web discussion.
// Watch pages carry a Google-Suggest-style search box: typing a prefix
// fires an XMLHttpRequest that fills a suggestions list. The crawler
// probes the box with dictionary prefixes and indexes the resulting
// states, making content reachable only through user input searchable.
//
//	go run ./examples/forms
package main

import (
	"context"
	"fmt"
	"log"

	"ajaxcrawl"
)

func main() {
	ctx := context.Background()
	site := ajaxcrawl.NewSimSiteWithForms(30, 21)
	fetcher := ajaxcrawl.NewHandlerFetcher(site.Handler())

	crawl := func(probes []string) *ajaxcrawl.Engine {
		c := ajaxcrawl.NewCrawler(fetcher, ajaxcrawl.CrawlOptions{
			UseHotNode: true,
			MaxStates:  25,
			FormProbes: probes,
		})
		var graphs []*ajaxcrawl.Graph
		for i := 0; i < 15; i++ {
			g, _, err := c.CrawlPage(ctx, site.VideoURL(i))
			if err != nil {
				log.Fatal(err)
			}
			graphs = append(graphs, g)
		}
		return ajaxcrawl.NewEngine(fetcher, graphs, nil, 0)
	}

	noForms := crawl(nil)
	withForms := crawl([]string{"wo", "am", "ch", "fu"})
	fmt.Printf("without form probing: %d states indexed\n", noForms.NumStates())
	fmt.Printf("with form probing:    %d states indexed\n", withForms.NumStates())

	// "american idol" appears in the suggestion list for prefix "am";
	// only the probing crawler surfaces those suggestion states.
	rs := withForms.Search(ctx, "american idol", 0)
	rsPlain := noForms.Search(ctx, "american idol", 0)
	fmt.Printf("\nquery \"american idol\":\n")
	fmt.Printf("  with probing:    %d hits (comments + suggestion states)\n", len(rs))
	fmt.Printf("  without probing: %d hits (comment text only)\n", len(rsPlain))
	if len(rs) <= len(rsPlain) {
		log.Fatal("form probing surfaced nothing new")
	}
}
