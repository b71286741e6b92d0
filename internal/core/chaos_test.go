package core

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/webapp"
)

// stateSets maps each crawled URL to its sorted state hashes, the
// crawl-result fingerprint the chaos test compares.
func stateSets(graphs []*model.Graph) map[string][]dom.Hash {
	out := make(map[string][]dom.Hash, len(graphs))
	for _, g := range graphs {
		hashes := make([]dom.Hash, 0, len(g.States))
		for _, s := range g.States {
			hashes = append(hashes, s.Hash)
		}
		sort.Slice(hashes, func(i, j int) bool {
			return bytes.Compare(hashes[i][:], hashes[j][:]) < 0
		})
		out[g.URL] = hashes
	}
	return out
}

// TestChaosCrawlMatchesFaultFreeBaseline is the headline fault-tolerance
// property: a crawl under 30% injected transient faults (connection
// resets and truncated bodies), run through the retry layer, discovers
// exactly the state set of a fault-free crawl — zero pages lost. All
// backoff sleeps run on the VirtualClock, so the whole chaos schedule
// costs no wall time.
func TestChaosCrawlMatchesFaultFreeBaseline(t *testing.T) {
	site := webapp.New(webapp.DefaultConfig(10, 2008))
	var urls []string
	for i := 0; i < 6; i++ {
		urls = append(urls, webapp.WatchURL(site.VideoID(i)))
	}
	ctx := context.Background()

	// Fault-free baseline.
	baseClock := &fetch.VirtualClock{}
	baseFetcher := fetch.NewInstrumented(
		&fetch.HandlerFetcher{Handler: site.Handler()}, baseClock, 10*time.Millisecond, time.Millisecond)
	baseGraphs, baseMetrics, err := New(baseFetcher, Options{UseHotNode: true, Clock: baseClock}).CrawlAll(ctx, urls)
	if err != nil {
		t.Fatalf("baseline crawl: %v", err)
	}

	// Chaos run: 30% of fetches fault (25% resets + 5% truncations),
	// capped at 3 consecutive faults per URL so a 5-attempt retry budget
	// provably recovers every page.
	clock := &fetch.VirtualClock{}
	fetcher := fetch.NewInstrumented(
		fetch.NewFaultFetcher(
			&fetch.HandlerFetcher{Handler: site.Handler()},
			fetch.FaultConfig{ErrorRate: 0.25, TruncateRate: 0.05, MaxConsecutive: 3, Seed: 7},
			clock),
		clock, 10*time.Millisecond, time.Millisecond)
	opts := Options{
		UseHotNode:  true,
		Clock:       clock,
		RetryPolicy: &fetch.RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond},
	}
	graphs, metrics, err := New(fetcher, opts).CrawlAll(ctx, urls)
	if err != nil {
		t.Fatalf("chaos crawl: %v", err)
	}

	if metrics.PagesFailed != 0 {
		t.Errorf("PagesFailed = %d, want 0 (retries must recover every page)", metrics.PagesFailed)
	}
	if metrics.Retries == 0 {
		t.Error("Retries = 0: the fault injector never fired — the test is vacuous")
	}
	if metrics.PagesRecovered == 0 {
		t.Error("PagesRecovered = 0, want at least one page that needed a retry")
	}

	base, chaos := stateSets(baseGraphs), stateSets(graphs)
	if len(chaos) != len(base) {
		t.Fatalf("chaos crawl produced %d graphs, baseline %d", len(chaos), len(base))
	}
	for url, want := range base {
		got, ok := chaos[url]
		if !ok {
			t.Errorf("chaos crawl lost page %s", url)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d states under chaos, %d fault-free", url, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: state hash set diverges from baseline at %d", url, i)
				break
			}
		}
	}
	if baseMetrics.States != metrics.States {
		t.Errorf("total states = %d under chaos, %d fault-free", metrics.States, baseMetrics.States)
	}

	// Checkpointed chaos run: journaling every page must never change the
	// crawl's outcome. Same fault seed, same retry budget — the journal
	// only observes the crawl.
	ckDir := t.TempDir()
	ckClock := &fetch.VirtualClock{}
	ckFetcher := fetch.NewInstrumented(
		fetch.NewFaultFetcher(
			&fetch.HandlerFetcher{Handler: site.Handler()},
			fetch.FaultConfig{ErrorRate: 0.25, TruncateRate: 0.05, MaxConsecutive: 3, Seed: 7},
			ckClock),
		ckClock, 10*time.Millisecond, time.Millisecond)
	cp, err := OpenCheckpoint(ctx, ckDir, false)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	ckOpts := Options{
		UseHotNode:  true,
		Clock:       ckClock,
		RetryPolicy: &fetch.RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond},
		Checkpoint:  cp,
	}
	ckGraphs, ckMetrics, err := New(ckFetcher, ckOpts).CrawlAll(ctx, urls)
	if err != nil {
		t.Fatalf("checkpointed chaos crawl: %v", err)
	}
	if err := cp.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}
	if ckMetrics.States != baseMetrics.States {
		t.Errorf("checkpointed chaos crawl found %d states, baseline %d", ckMetrics.States, baseMetrics.States)
	}
	ck := stateSets(ckGraphs)
	for url, want := range base {
		got := ck[url]
		if len(got) != len(want) {
			t.Errorf("%s: %d states with checkpointing, %d baseline", url, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: checkpointed state hash set diverges from baseline at %d", url, i)
				break
			}
		}
	}

	// Resume from the complete journal against a dead fetcher: every page
	// must replay from disk without a single network call.
	cp2, err := OpenCheckpoint(ctx, ckDir, true)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	dead := fetch.Func(func(context.Context, string) (*fetch.Response, error) {
		t.Error("resume of a complete journal hit the network")
		return nil, fmt.Errorf("no network in resume")
	})
	resGraphs, resMetrics, err := New(dead, Options{UseHotNode: true, Checkpoint: cp2}).CrawlAll(ctx, urls)
	if err != nil {
		t.Fatalf("resume crawl: %v", err)
	}
	if err := cp2.Close(); err != nil {
		t.Fatalf("close reopened journal: %v", err)
	}
	if resMetrics.PagesResumed != len(urls) || resMetrics.Pages != len(urls) {
		t.Errorf("resume replayed %d/%d pages, want all %d from the journal",
			resMetrics.PagesResumed, resMetrics.Pages, len(urls))
	}
	res := stateSets(resGraphs)
	for url, want := range base {
		got := res[url]
		if len(got) != len(want) {
			t.Errorf("%s: %d states after resume, %d baseline", url, len(got), len(want))
		}
	}
}

// TestParallelDeadHostIsolation pins the chapter-6 requirement that
// pages pointed at a dead host cannot sink their siblings: the dead
// host's pages land in PagesFailed, while the healthy host's pages crawl
// to completion.
func TestParallelDeadHostIsolation(t *testing.T) {
	const page = `<html><body><p id="c">hello</p></body></html>`
	fetcher := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		if strings.HasPrefix(rawurl, "http://bad.host") {
			return nil, fmt.Errorf("fetch %s: connection refused", rawurl)
		}
		return &fetch.Response{Status: 200, Body: []byte(page), ContentType: "text/html"}, nil
	})

	urls := []string{
		"http://bad.host/a", "http://bad.host/b", "http://bad.host/c", "http://bad.host/d",
		"http://good.host/a", "http://good.host/b", "http://good.host/c",
	}
	mp := &MPCrawler{
		NewCrawler: func() *Crawler { return New(fetcher, Options{Clock: &fetch.VirtualClock{}}) },
		ProcLines:  2,
		URLs:       urls,
	}
	res := mp.Run(context.Background())

	if err := res.Err; err != nil {
		t.Fatalf("crawl error under skip-and-count: %v", err)
	}
	perHost := map[string]int{}
	for _, g := range res.Graphs {
		perHost[g.URL[:len("http://good.host")]]++
	}
	if got := perHost["http://good.host"]; got != 3 {
		t.Errorf("good host crawled %d pages, want 3 — its pages were not isolated", got)
	}
	if got := len(res.Graphs) - perHost["http://good.host"]; got != 0 {
		t.Errorf("bad host produced %d graphs, want 0", got)
	}
	if res.Metrics.PagesFailed != 4 {
		t.Errorf("PagesFailed = %d, want 4 (the dead host's pages)", res.Metrics.PagesFailed)
	}
}
