package model_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/webapp"
)

// FuzzDecodeGraph feeds the journal's graph reader arbitrary bytes,
// seeded with a crawled page's encoding, its truncations and the gob-era
// encoding it must refuse. A graph it accepts must hold its StateID invariants, survive PathTo to every
// state and indexing, and re-encode to bytes that decode to the same
// encoding.
func FuzzDecodeGraph(f *testing.F) {
	site := webapp.New(webapp.DefaultConfig(4, 7))
	g, _, err := core.New(&fetch.HandlerFetcher{Handler: site.Handler()}, core.Options{UseHotNode: true, MaxStates: 4}).
		CrawlPage(context.Background(), webapp.WatchURL(site.VideoID(0)))
	if err != nil {
		f.Fatal(err)
	}
	seed, err := model.EncodeGraph(g)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(seed), len(seed) - 1, len(seed) / 2, 16, 0} {
		f.Add(seed[:n])
	}
	gobEra, err := os.ReadFile(filepath.Join("testdata", "gob-era.graph"))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := model.DecodeGraph(gobEra); err == nil {
		f.Fatal("gob-era graph encoding accepted")
	}
	f.Add(gobEra)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := model.DecodeGraph(data)
		if err != nil {
			return
		}
		for i, s := range g.States {
			if s.ID != model.StateID(i) {
				t.Fatalf("state %d decoded with ID %d", i, s.ID)
			}
			g.PathTo(s.ID)
		}
		if g.State(g.Initial) == nil {
			t.Fatalf("initial state %d of %d decoded", g.Initial, len(g.States))
		}
		for _, tr := range g.Transitions {
			if g.State(tr.From) == nil || g.State(tr.To) == nil {
				t.Fatalf("transition %d -> %d of %d states decoded", tr.From, tr.To, len(g.States))
			}
		}
		index.New().AddGraph(g, 0, 0)
		again, err := model.EncodeGraph(g)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		g2, err := model.DecodeGraph(again)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if third, _ := model.EncodeGraph(g2); !bytes.Equal(third, again) {
			t.Fatal("a decoded graph does not round-trip")
		}
	})
}
