package main

import (
	"testing"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/query"
)

// TestLocalIDFAblation checks the ablation is not inert: on an
// unbalanced shard split the local-idf top score diverges from the
// single-index one for at least one query, while the global-idf broker
// always agrees with the single index.
func TestLocalIDFAblation(t *testing.T) {
	var hashes byte
	build := func(pages map[string][]string) *index.Index {
		var graphs []*model.Graph
		for _, url := range []string{"u1", "u2", "u3", "u4"} {
			if pages[url] == nil {
				continue
			}
			g := model.NewGraph(url)
			for depth, text := range pages[url] {
				hashes++
				g.AddState(dom.Hash{hashes}, text, depth)
			}
			graphs = append(graphs, g)
		}
		return index.Build(graphs, nil, 0)
	}
	pagesA := map[string][]string{"u1": {"rare word here", "word filler pad"}}
	pagesB := map[string][]string{
		"u2": {"word word word common"},
		"u3": {"word again common"},
		"u4": {"word and more common words"},
	}
	merged := map[string][]string{"u1": pagesA["u1"]}
	for url, states := range pagesB {
		merged[url] = states
	}
	single := query.NewBroker([]*index.Index{build(merged)})
	shards := []*index.Index{build(pagesA), build(pagesB)}
	global := query.NewBroker(shards)

	diverged := false
	for _, q := range []string{"rare", "word", "common"} {
		want, got := single.SearchTopK(q, 1), global.SearchTopK(q, 1)
		if len(want) != 1 || len(got) != 1 || got[0] != want[0] {
			t.Fatalf("q=%q: global-idf broker top %+v, single index %+v", q, got, want)
		}
		local := localIDFTop(shards, q)
		if len(local) != 1 {
			t.Fatalf("q=%q: local-idf ablation found nothing", q)
		}
		if local[0].Score != want[0].Score {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("local-idf ablation never diverged from the single index; ablation inert?")
	}
}
