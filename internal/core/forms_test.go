package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"ajaxcrawl/internal/browser"
	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/webapp"
)

// formSite builds a synthetic site with the Google-Suggest-style search
// box enabled.
func formSite(videos int) (*webapp.Site, fetch.Fetcher) {
	cfg := webapp.DefaultConfig(videos, 13)
	cfg.WithSearchBox = true
	site := webapp.New(cfg)
	return site, &fetch.HandlerFetcher{Handler: site.Handler()}
}

func TestBrowserFormEvents(t *testing.T) {
	site, f := formSite(10)
	p := browser.NewPage(f)
	if err := p.Load(context.Background(), webapp.WatchURL(site.VideoID(0))); err != nil {
		t.Fatal(err)
	}
	fevs := p.FormEvents()
	if len(fevs) != 1 {
		t.Fatalf("form events = %d, want 1 (the search box)", len(fevs))
	}
	fe := fevs[0]
	if fe.Type != "onkeyup" || fe.ID != "search" {
		t.Fatalf("form event = %+v", fe)
	}
	// Probing with a prefix fills the suggestions div.
	changed, err := p.TriggerWithValue(context.Background(), fe, "wo")
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatalf("probe did not change the DOM")
	}
	sugg := p.Doc.ElementByID("suggestions")
	if sugg == nil || !strings.Contains(sugg.TextContent(), "wow") {
		t.Fatalf("suggestions missing 'wow': %q", sugg.TextContent())
	}
	// An empty probe does nothing (the handler guards on it).
	p2 := browser.NewPage(f)
	if err := p2.Load(context.Background(), webapp.WatchURL(site.VideoID(0))); err != nil {
		t.Fatal(err)
	}
	changed, err = p2.TriggerWithValue(context.Background(), p2.FormEvents()[0], "")
	if err != nil || changed {
		t.Fatalf("empty probe should not change DOM: %v %v", changed, err)
	}
}

func TestFormCrawlingDiscoversSuggestStates(t *testing.T) {
	site, f := formSite(10)
	url := webapp.WatchURL(site.VideoID(0))

	// Without probes, the search box contributes no states.
	plain := New(f, Options{UseHotNode: true, MaxStates: 30})
	gPlain, _, err := plain.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	// With probes, each distinct prefix yields a suggestion state.
	probing := New(f, Options{
		UseHotNode: true,
		MaxStates:  30,
		FormProbes: []string{"wo", "da", "zz"},
	})
	gForm, pm, err := probing.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if gForm.NumStates() <= gPlain.NumStates() {
		t.Fatalf("form probing found no extra states: %d vs %d",
			gForm.NumStates(), gPlain.NumStates())
	}
	// The suggestion content is indexed state text.
	foundWow := false
	for _, s := range gForm.States {
		if strings.Contains(s.Text, "wow") && strings.Contains(s.Text, "no suggestions") == false {
			foundWow = true
		}
	}
	if !foundWow {
		t.Fatalf("no state carries the 'wow' suggestion")
	}
	// Form transitions are annotated with their probe.
	probed := 0
	for _, tr := range gForm.Transitions {
		if tr.Probe != "" {
			probed++
			if tr.Event != "onkeyup" || tr.Source != "search" {
				t.Fatalf("bad form transition: %+v", tr)
			}
		}
	}
	if probed == 0 {
		t.Fatalf("no probe-annotated transitions")
	}
	if pm.EventsTriggered <= gPlain.NumStates() {
		t.Fatalf("probe events not counted")
	}
}

func TestFormStateReplay(t *testing.T) {
	site, f := formSite(10)
	url := webapp.WatchURL(site.VideoID(0))
	c := New(f, Options{UseHotNode: true, MaxStates: 30, FormProbes: []string{"wo"}})
	g, _, err := c.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	// Find a state reached via a probe and replay it.
	var target *model.Transition
	for _, tr := range g.Transitions {
		if tr.Probe != "" {
			target = tr
			break
		}
	}
	if target == nil {
		t.Fatalf("no form transition recorded")
	}
	path := g.PathTo(target.To)
	if path == nil {
		t.Fatalf("form state unreachable")
	}
	doc, err := ReplayPath(context.Background(), f, url, path)
	if err != nil {
		t.Fatal(err)
	}
	if got := dom.CanonicalHash(doc); got != g.State(target.To).Hash {
		t.Fatalf("replayed form state differs from crawled state")
	}
}

func TestFormProbesRespectMaxStates(t *testing.T) {
	site, f := formSite(10)
	url := webapp.WatchURL(site.VideoID(0))
	c := New(f, Options{
		UseHotNode: true,
		MaxStates:  2,
		FormProbes: []string{"wo", "da", "fu", "ki", "lo"},
	})
	g, _, err := c.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 2 {
		t.Fatalf("MaxStates not honored with probes: %d", g.NumStates())
	}
}

// TestFormProbesRespectStateFilter: under focused crawling a state the
// filter rejects stays in the model but is expanded by no event and no
// form probe.
func TestFormProbesRespectStateFilter(t *testing.T) {
	site, f := formSite(10)
	c := New(f, Options{
		UseHotNode:  true,
		MaxStates:   30,
		FormProbes:  []string{"wo", "da"},
		StateFilter: func(text string) bool { return !strings.Contains(text, "wow") },
	})
	g, pm, err := c.CrawlPage(context.Background(), webapp.WatchURL(site.VideoID(0)))
	if err != nil {
		t.Fatal(err)
	}
	rejected := map[model.StateID]bool{}
	for _, s := range g.States {
		if s.ID != g.Initial && strings.Contains(s.Text, "wow") {
			rejected[s.ID] = true
		}
	}
	if len(rejected) == 0 || pm.StatesPruned == 0 {
		t.Fatalf("%d rejected states, StatesPruned %d: the filter rejected nothing", len(rejected), pm.StatesPruned)
	}
	for _, tr := range g.Transitions {
		if rejected[tr.From] {
			t.Errorf("transition %s (probe %q) leaves state %d, which the filter rejected", tr.Event, tr.Probe, tr.From)
		}
	}
}

// TestFormProbesAccountXHRTraffic: a form probe's XHR sends are charged
// like an event's — each one is either a network call or a hot-node hit,
// so the hit ratio HotNodeHits / XHRSends cannot pass 1.
func TestFormProbesAccountXHRTraffic(t *testing.T) {
	site, f := formSite(10)
	c := New(f, Options{UseHotNode: true, MaxStates: 30, FormProbes: []string{"wo", "da", "wo", "zz"}})
	_, pm, err := c.CrawlPage(context.Background(), webapp.WatchURL(site.VideoID(0)))
	if err != nil {
		t.Fatal(err)
	}
	if pm.HotNodeHits == 0 || pm.NetworkCalls == 0 {
		t.Fatalf("want both hits and network calls, got %d and %d", pm.HotNodeHits, pm.NetworkCalls)
	}
	if pm.HotNodeHits+pm.NetworkCalls != pm.XHRSends {
		t.Fatalf("HotNodeHits %d + NetworkCalls %d != XHRSends %d", pm.HotNodeHits, pm.NetworkCalls, pm.XHRSends)
	}
}

// TestFormProbeURLEncodesLikeABrowser: the search box's handler builds
// its XHR URL with encodeURIComponent, which escapes a space as %20
// (ECMA-262 §15.1.3.4), so the crawl requests the URL a browser would.
func TestFormProbeURLEncodesLikeABrowser(t *testing.T) {
	site, f := formSite(10)
	var urls []string
	recording := fetch.Func(func(ctx context.Context, rawurl string) (*fetch.Response, error) {
		urls = append(urls, rawurl)
		return f.Fetch(ctx, rawurl)
	})
	c := New(recording, Options{MaxStates: 30, FormProbes: []string{"american idol"}})
	if _, _, err := c.CrawlPage(context.Background(), webapp.WatchURL(site.VideoID(0))); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(urls, "/suggest?q=american%20idol") {
		t.Fatalf("fetched %q, want /suggest?q=american%%20idol among them", urls)
	}
}
