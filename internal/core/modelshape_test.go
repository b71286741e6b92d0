package core

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/webapp"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/modelshape.golden from this tree's crawl")

// modelShape renders what the crawler decided, without the state-hash
// values: per page the states in ID order (depth, text fingerprint) and
// the transitions in discovery order (endpoints, source, event, targets).
func modelShape(graphs []*model.Graph) string {
	var b strings.Builder
	for _, g := range graphs {
		fmt.Fprintf(&b, "page %s states=%d transitions=%d\n", g.URL, g.NumStates(), len(g.Transitions))
		for _, s := range g.States {
			h := fnv.New64a()
			h.Write([]byte(s.Text))
			fmt.Fprintf(&b, "  s%d depth=%d text=%d:%016x\n", s.ID, s.Depth, len(s.Text), h.Sum64())
		}
		for _, tr := range g.Transitions {
			fmt.Fprintf(&b, "  t %d->%d %s %s targets=%s\n", tr.From, tr.To, tr.Source, tr.Event, strings.Join(tr.Targets, ","))
		}
	}
	return b.String()
}

// TestModelShapeGolden pins the crawl's decisions — DOM-changed
// detection, state dedup, near-dup merging and transition targets — to a
// golden captured before state hashing moved to cached subtree digests
// (ISSUE 17). Hash values are per-page identities and free to change;
// the model they induce is not.
func TestModelShapeGolden(t *testing.T) {
	var got strings.Builder
	for _, nearDup := range []float64{0, 0.9} {
		opts := Options{UseHotNode: true, MaxStates: 12, NearDupThreshold: nearDup}

		site, f := noisySite(12)
		var urls []string
		for i := 0; i < 6; i++ {
			urls = append(urls, webapp.WatchURL(site.Video(i).ID))
		}
		graphs, _, err := New(f, opts).CrawlAll(context.Background(), urls)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== webapp neardup=%v\n%s", nearDup, modelShape(graphs))

		news := webapp.NewNews(webapp.NewsConfig{Articles: 4, Seed: 5, Sections: 3})
		urls = urls[:0]
		for i := 0; i < news.NumArticles(); i++ {
			urls = append(urls, news.ArticleURL(i))
		}
		opts.MaxStates = 16
		graphs, _, err = New(&fetch.HandlerFetcher{Handler: news.Handler()}, opts).CrawlAll(context.Background(), urls)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== newsapp neardup=%v\n%s", nearDup, modelShape(graphs))
	}

	golden := filepath.Join("testdata", "modelshape.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("model shape diverges from golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("model shape has %d lines, golden %d", len(gl), len(wl))
	}
}
