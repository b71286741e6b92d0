package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/webapp"
)

// spansByName indexes emitted span records by span name.
func spansByName(recs []obs.SpanRecord) map[string][]obs.SpanRecord {
	out := make(map[string][]obs.SpanRecord)
	for _, r := range recs {
		out[r.Name] = append(out[r.Name], r)
	}
	return out
}

// pageCounters is the catalogue of crawl.* counters CrawlPage publishes
// at page end, whatever happened on the page; the facts counted live
// (events, hot-node outcomes, states) are not repeated among them.
var pageCounters = []string{
	"crawl.page.xhr_sends",
	"crawl.page.network_calls",
	"crawl.page.handler_errors",
	"crawl.page.retries",
	"crawl.page.pages_recovered",
}

// TestCrawlEmitsSpansAndCounters crawls one page with telemetry on the
// context, once with JavaScript and once traditionally, and checks the
// trace and registry see every layer: the page span, event dispatches
// nested under it, XHR sends, hot-node cache outcomes, and one registry
// name per crawl fact, each agreeing with the page's PageMetrics.
func TestCrawlEmitsSpansAndCounters(t *testing.T) {
	site, f := newSiteFetcher(20, 1)
	v := multiPageVideo(t, site, 3)
	url := webapp.WatchURL(v.ID)

	crawl := func(t *testing.T, opts Options) (PageMetrics, map[string][]obs.SpanRecord, obs.Snapshot) {
		t.Helper()
		reg := obs.NewRegistry()
		ring := obs.NewRingSink(4096)
		ctx := obs.With(context.Background(), obs.New(reg, ring))
		_, pm, err := New(f, opts).CrawlPage(ctx, url)
		if err != nil {
			t.Fatal(err)
		}
		by := spansByName(ring.Recent(0))
		pages := by[obs.SpanPageCrawl]
		if len(pages) != 1 {
			t.Fatalf("page.crawl spans = %d, want 1", len(pages))
		}
		if pages[0].Err != "" {
			t.Fatalf("page.crawl span has error %q", pages[0].Err)
		}
		if got := pages[0].Attrs.Get("url"); got != url {
			t.Fatalf("page.crawl url attr = %q", got)
		}
		return pm, by, reg.Snapshot()
	}
	// checkCatalogue asserts the snapshot's crawl.* counters are exactly
	// pageCounters plus live, and that each fact reads what PageMetrics
	// says.
	checkCatalogue := func(t *testing.T, snap obs.Snapshot, pm PageMetrics, live ...string) {
		t.Helper()
		want := append(append([]string(nil), pageCounters...), live...)
		var got []string
		for name := range snap.Counters {
			if strings.HasPrefix(name, "crawl.") {
				got = append(got, name)
			}
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("crawl.* counters = %v\nwant %v", got, want)
		}
		for name, want := range map[string]int{
			"crawl.events.triggered":  pm.EventsTriggered,
			"crawl.hotnode.hits":      pm.HotNodeHits,
			"crawl.states.discovered": pm.States,
			"crawl.page.xhr_sends":    pm.XHRSends,
		} {
			if got := snap.Counters[name]; got != int64(want) {
				t.Errorf("counter %s = %d, want %d (registry drifted from PageMetrics)", name, got, want)
			}
		}
		if g := snap.Gauges["crawl.pages.inflight"]; g != 0 {
			t.Errorf("crawl.pages.inflight = %d after crawl, want 0", g)
		}
		if n := snap.Histograms["crawl.page.latency"].Count; n != 1 {
			t.Errorf("crawl.page.latency count = %d, want 1", n)
		}
	}

	t.Run("AJAX", func(t *testing.T) {
		pm, by, snap := crawl(t, Options{UseHotNode: true})
		page := by[obs.SpanPageCrawl][0]
		if len(by[obs.SpanEventDispatch]) == 0 {
			t.Fatal("no event.dispatch spans emitted")
		}
		for _, d := range by[obs.SpanEventDispatch] {
			if d.Parent != page.ID {
				t.Fatalf("event.dispatch parent = %d, want page span %d", d.Parent, page.ID)
			}
		}
		if len(by[obs.SpanXHRSend]) == 0 {
			t.Fatal("no xhr.send spans emitted")
		}
		if pm.HotNodeHits == 0 || len(by[obs.SpanHotNodeHit]) != pm.HotNodeHits {
			t.Fatalf("hotnode.hit events = %d, want %d (> 0)", len(by[obs.SpanHotNodeHit]), pm.HotNodeHits)
		}
		checkCatalogue(t, snap, pm, "crawl.events.triggered", "crawl.hotnode.hits",
			"crawl.hotnode.misses", "crawl.states.discovered", "crawl.states.deduped")
	})

	t.Run("Traditional", func(t *testing.T) {
		pm, by, snap := crawl(t, Options{Traditional: true})
		if pm.States != 1 || len(by[obs.SpanEventDispatch]) != 0 {
			t.Fatalf("traditional crawl: %d states, %d dispatches; want 1 and 0",
				pm.States, len(by[obs.SpanEventDispatch]))
		}
		checkCatalogue(t, snap, pm, "crawl.states.discovered")
	})
}

// TestPageTimeoutStillEmitsPageSpan is the cancellation half of the
// trace-layer contract: when the per-page budget expires mid-crawl, the
// open page.crawl span must still be closed and emitted, carrying the
// context error — an aborted page may not vanish from the trace.
func TestPageTimeoutStillEmitsPageSpan(t *testing.T) {
	site, f := newSiteFetcher(20, 1)
	v := multiPageVideo(t, site, 3)

	// AJAX calls hang until the context dies, so the page blows its
	// budget mid-crawl with the span still open.
	hanging := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		if strings.Contains(rawurl, "comments") {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return f.Fetch(ctx, rawurl)
	})

	ring := obs.NewRingSink(256)
	ctx := obs.With(context.Background(), obs.New(obs.NewRegistry(), ring))

	c := New(hanging, Options{PageTimeout: 50 * time.Millisecond})
	_, _, err := c.CrawlPage(ctx, webapp.WatchURL(v.ID))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}

	pages := spansByName(ring.Recent(0))[obs.SpanPageCrawl]
	if len(pages) != 1 {
		t.Fatalf("page.crawl spans after abort = %d, want 1", len(pages))
	}
	if pages[0].Err == "" {
		t.Fatal("aborted page.crawl span should carry the context error")
	}
	if pages[0].Dur() <= 0 {
		t.Fatal("aborted span has no duration")
	}
}
