package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"ajaxcrawl/internal/browser"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/webapp"
)

// TestCrawlNewsApplication crawls the second synthetic application — a
// news site with expandable sections whose states form a lattice, not a
// chain — proving the crawler is not specialized to the YouTube shape.
func TestCrawlNewsApplication(t *testing.T) {
	news := webapp.NewNews(webapp.NewsConfig{Articles: 4, Seed: 5, Sections: 3})
	f := &fetch.HandlerFetcher{Handler: news.Handler()}

	c := New(f, Options{UseHotNode: true, MaxStates: 16})
	g, _, err := c.CrawlPage(context.Background(), news.ArticleURL(0))
	if err != nil {
		t.Fatal(err)
	}
	// 3 sections + reactions = 4 independent toggles; the lattice has
	// 2^4 = 16 states, all reachable within the budget.
	if g.NumStates() != 16 {
		t.Fatalf("lattice states = %d, want 16", g.NumStates())
	}
	// The fully-expanded state exists: no collapsed controls remain in
	// its text (every "Read section N" and "Reader reactions" control
	// was replaced by content).
	fullyExpanded := false
	for _, s := range g.States {
		if !strings.Contains(s.Text, "Read section") && !strings.Contains(s.Text, "Reader reactions") {
			fullyExpanded = true
			break
		}
	}
	if !fullyExpanded {
		t.Fatalf("fully-expanded lattice state not reached")
	}
	// The deepest states sit 4 clicks from the initial state.
	maxDepth := 0
	for _, s := range g.States {
		if s.Depth > maxDepth {
			maxDepth = s.Depth
		}
	}
	if maxDepth != 4 {
		t.Fatalf("max depth = %d, want 4", maxDepth)
	}
}

// TestNewsTwoHotNodes verifies the thesis's "applications with more than
// one hot node" scenario (§7.3): the news page's XHRs originate from two
// distinct functions, and the cache detects both.
func TestNewsTwoHotNodes(t *testing.T) {
	news := webapp.NewNews(webapp.NewsConfig{Articles: 2, Seed: 5, Sections: 2})
	f := &fetch.HandlerFetcher{Handler: news.Handler()}

	cache := NewHotNodeCache()
	p := browser.NewPage(f)
	p.XHR = cache.Hook()
	if err := p.Load(context.Background(), news.ArticleURL(0)); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	for _, which := range []string{"expandSection(0, 0)", "loadReactions(0)"} {
		p.Restore(snap)
		fired := false
		for _, ev := range p.Events(nil) {
			if strings.Contains(ev.Code, which) {
				if _, err := p.Trigger(context.Background(), ev); err != nil {
					t.Fatal(err)
				}
				fired = true
				break
			}
		}
		if !fired {
			t.Fatalf("event %q not found", which)
		}
	}
	want := []string{"fetchInto", "loadReactions"}
	if got := hotNodes(cache); !reflect.DeepEqual(got, want) {
		t.Fatalf("hot nodes = %v, want %v", got, want)
	}
	// Repeating either event hits the cache.
	p.Restore(snap)
	for _, ev := range p.Events(nil) {
		if strings.Contains(ev.Code, "expandSection(0, 0)") {
			if _, err := p.Trigger(context.Background(), ev); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if cache.Hits == 0 {
		t.Fatalf("repeat hot call not served from cache")
	}
}

// TestNewsSearchFindsExpandedContent indexes a news crawl and verifies
// that section text hidden behind expand clicks is retrievable — the
// recall story on the second application.
func TestNewsSearchFindsExpandedContent(t *testing.T) {
	news := webapp.NewNews(webapp.NewsConfig{Articles: 6, Seed: 5, Sections: 3})
	f := &fetch.HandlerFetcher{Handler: news.Handler()}
	c := New(f, Options{UseHotNode: true, MaxStates: 16})

	var urls []string
	for i := 0; i < news.NumArticles(); i++ {
		urls = append(urls, news.ArticleURL(i))
	}
	graphs, _, err := crawlSerial(context.Background(), c, urls)
	if err != nil {
		t.Fatal(err)
	}
	full := query.NewBroker(index.Build(graphs, nil, 0))
	trad := query.NewBroker(index.Build(graphs, nil, 1))

	gain := false
	for _, q := range webapp.Queries()[:20] {
		tn, an := len(trad.Search(q)), len(full.Search(q))
		if an > tn {
			gain = true
		}
		if an < tn {
			t.Fatalf("q=%q: AJAX index lost results (%d < %d)", q, an, tn)
		}
	}
	if !gain {
		t.Fatalf("no recall gain from expanded sections (planting too sparse?)")
	}
}

// TestReplayNewsState reconstructs a lattice state via event replay.
func TestReplayNewsState(t *testing.T) {
	news := webapp.NewNews(webapp.NewsConfig{Articles: 2, Seed: 5, Sections: 2})
	f := &fetch.HandlerFetcher{Handler: news.Handler()}
	c := New(f, Options{UseHotNode: true, MaxStates: 8})
	g, _, err := c.CrawlPage(context.Background(), news.ArticleURL(1))
	if err != nil {
		t.Fatal(err)
	}
	target := g.States[g.NumStates()-1]
	path := g.PathTo(target.ID)
	if path == nil {
		t.Fatalf("deepest state unreachable")
	}
	doc, err := ReplayPath(context.Background(), f, g.URL, path)
	if err != nil {
		t.Fatal(err)
	}
	if dom2 := doc.VisibleText(); dom2 == "" {
		t.Fatalf("empty replayed document")
	}
}
