// A second application shape: the crawler on a news site whose articles
// carry expandable sections. Unlike the YouTube comment box (a linear
// chain of states), expanding sections in any order forms a lattice of
// states with two distinct hot-node functions — the crawler handles both
// without any site-specific code.
//
//	go run ./examples/newsapp
package main

import (
	"context"
	"fmt"
	"log"

	"ajaxcrawl"
)

func main() {
	ctx := context.Background()
	news := ajaxcrawl.NewNewsSite(12, 3)
	eng, err := ajaxcrawl.BuildEngine(ctx, ajaxcrawl.Config{
		Fetcher:  ajaxcrawl.NewHandlerFetcher(news.Handler()),
		StartURL: news.ArticleURL(0),
		MaxPages: 10,
		Crawl:    ajaxcrawl.CrawlOptions{UseHotNode: true, MaxStates: 16},
	})
	if err != nil {
		log.Fatal(err)
	}
	m := eng.Metrics
	fmt.Printf("crawled %d articles into %d states (lattices of expanded sections)\n",
		m.Pages, m.States)
	fmt.Printf("events: %d triggered, %d needed the network\n", m.EventsTriggered, m.NetworkEvents)

	// Content behind "Read section" clicks is searchable.
	found := 0
	for _, q := range []string{"wow", "dance", "funny", "kiss", "music"} {
		rs := eng.Search(ctx, q, 1)
		if len(rs) == 0 {
			continue
		}
		found++
		fmt.Printf("\n%q -> %s (state %d)\n  %s\n", q, rs[0].URL, rs[0].State, eng.Snippet(q, rs[0]))
	}
	if found == 0 {
		log.Fatal("no hidden-section content found")
	}
}
