package core

import (
	"context"
	"strings"
	"testing"

	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/webapp"
)

func TestPrecrawlerBuildsLinkGraph(t *testing.T) {
	site, f := newSiteFetcher(40, 7)
	p := &Precrawler{
		Fetcher:  f,
		StartURL: webapp.WatchURL(site.Video(0).ID),
		MaxPages: 20,
		KeepURL:  func(u string) bool { return strings.Contains(u, "/watch?v=") },
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.URLs) != 20 {
		t.Fatalf("precrawled %d pages, want 20", len(res.URLs))
	}
	if res.URLs[0] != p.StartURL {
		t.Fatalf("first URL should be the start: %s", res.URLs[0])
	}
	// Every crawled page has recorded outlinks (related videos).
	if len(res.Links[p.StartURL]) == 0 {
		t.Fatalf("start page has no outlinks")
	}
	// PageRank covers all crawled pages and sums to ~1.
	sum := 0.0
	for _, u := range res.URLs {
		pr, ok := res.PageRank[u]
		if !ok {
			t.Fatalf("no PageRank for %s", u)
		}
		sum += pr
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("PageRank sums to %v", sum)
	}
	// No duplicates in URL list.
	seen := map[string]bool{}
	for _, u := range res.URLs {
		if seen[u] {
			t.Fatalf("duplicate URL %s", u)
		}
		seen[u] = true
	}
}

func TestPrecrawlerMaxPagesOne(t *testing.T) {
	site, f := newSiteFetcher(5, 7)
	p := &Precrawler{Fetcher: f, StartURL: webapp.WatchURL(site.Video(0).ID), MaxPages: 1}
	res, err := p.Run(context.Background())
	if err != nil || len(res.URLs) != 1 {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if _, err := (&Precrawler{Fetcher: f, StartURL: "/", MaxPages: 0}).Run(context.Background()); err == nil {
		t.Fatalf("MaxPages 0 should error")
	}
}

func TestPrecrawlSkipsBrokenPages(t *testing.T) {
	_, f := newSiteFetcher(5, 7)
	p := &Precrawler{Fetcher: f, StartURL: "/watch?v=missing", MaxPages: 5}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.URLs) != 0 {
		t.Fatalf("broken start page should yield empty crawl, got %v", res.URLs)
	}
}

func TestPrecrawlSaveLoad(t *testing.T) {
	site, f := newSiteFetcher(20, 7)
	p := &Precrawler{Fetcher: f, StartURL: webapp.WatchURL(site.Video(0).ID), MaxPages: 10}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPrecrawl(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.URLs) != len(res.URLs) || len(loaded.PageRank) != len(res.PageRank) {
		t.Fatalf("round trip lost data")
	}
	if _, err := LoadPrecrawl(t.TempDir()); err == nil {
		t.Fatalf("loading missing precrawl should fail")
	}
}

func TestMPCrawlerProcessesAllPartitions(t *testing.T) {
	site, _ := newSiteFetcher(12, 9)
	var urls []string
	for i := 0; i < 12; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	mp := &MPCrawler{
		NewCrawler: func() *Crawler {
			return New(&fetch.HandlerFetcher{Handler: site.Handler()}, Options{UseHotNode: true, MaxStates: 3})
		},
		ProcLines: 4,
		URLs:      urls,
	}
	res := mp.Run(context.Background())
	if err := res.Err; err != nil {
		t.Fatal(err)
	}
	graphs := res.Graphs
	if len(graphs) != 12 {
		t.Fatalf("crawled %d pages, want 12", len(graphs))
	}
	if res.Metrics.Pages != 12 {
		t.Fatalf("metrics pages = %d", res.Metrics.Pages)
	}
	// Graph order is URL order: graph i is for urls[i].
	for i, g := range graphs {
		if g.URL != urls[i] {
			t.Fatalf("graph %d url = %s, want %s", i, g.URL, urls[i])
		}
	}
}

func TestMPCrawlerSerialEqualsParallelModels(t *testing.T) {
	site, _ := newSiteFetcher(8, 10)
	var urls []string
	for i := 0; i < 8; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	mk := func(lines int) []string {
		mp := &MPCrawler{
			NewCrawler: func() *Crawler {
				return New(&fetch.HandlerFetcher{Handler: site.Handler()}, Options{UseHotNode: true, MaxStates: 4})
			},
			ProcLines: lines,
			URLs:      urls,
		}
		res := mp.Run(context.Background())
		if err := res.Err; err != nil {
			t.Fatal(err)
		}
		var sigs []string
		for _, g := range res.Graphs {
			sigs = append(sigs, g.URL+":"+itoa(g.NumStates()))
		}
		return sigs
	}
	serial := mk(1)
	parallel := mk(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("parallel crawl diverged at %d: %s vs %s", i, serial[i], parallel[i])
		}
	}
}

func TestMPCrawlerPerPageOrderDeterministic(t *testing.T) {
	// Metrics.PerPage must follow URL order, not goroutine completion
	// order.
	site, _ := newSiteFetcher(12, 13)
	var urls []string
	for i := 0; i < 12; i++ {
		urls = append(urls, webapp.WatchURL(site.Video(i).ID))
	}
	run := func() []string {
		mp := &MPCrawler{
			NewCrawler: func() *Crawler {
				return New(&fetch.HandlerFetcher{Handler: site.Handler()}, Options{MaxStates: 3})
			},
			ProcLines: 4,
			URLs:      urls,
		}
		res := mp.Run(context.Background())
		if err := res.Err; err != nil {
			t.Fatal(err)
		}
		order := make([]string, 0, len(res.Metrics.PerPage))
		for _, pm := range res.Metrics.PerPage {
			order = append(order, pm.URL)
		}
		return order
	}
	first := run()
	if len(first) != len(urls) {
		t.Fatalf("PerPage has %d rows, want %d", len(first), len(urls))
	}
	for i, u := range first {
		if u != urls[i] {
			t.Fatalf("PerPage[%d] = %s, want %s (URL order)", i, u, urls[i])
		}
	}
	for trial := 0; trial < 3; trial++ {
		got := run()
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("trial %d diverged at %d: %s vs %s", trial, i, got[i], first[i])
			}
		}
	}
}

func TestMPCrawlerPartitionErrorReported(t *testing.T) {
	urls := []string{"/watch?v=broken"}
	_, f := newSiteFetcher(3, 11)
	// Under the default SkipAndCount policy the crawl completes with the
	// bad page counted, not failed.
	mp := &MPCrawler{
		NewCrawler: func() *Crawler { return New(f, Options{}) },
		ProcLines:  2,
		URLs:       urls,
	}
	res := mp.Run(context.Background())
	if err := res.Err; err != nil {
		t.Fatalf("SkipAndCount crawl errored: %v", err)
	}
	if res.Metrics.PagesFailed != 1 {
		t.Fatalf("want PagesFailed=1, got %d", res.Metrics.PagesFailed)
	}
	// FailFast surfaces it as the crawl's error.
	mp.NewCrawler = func() *Crawler { return New(f, Options{OnError: FailFast}) }
	if res := mp.Run(context.Background()); res.Err == nil {
		t.Fatalf("broken page should surface an error under FailFast")
	}
}
