package main

import (
	"context"
	"testing"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/query"
)

// TestLocalIDFAblation checks the ablation is not inert: on an
// unbalanced shard split the local-idf top score diverges from the
// single-index one for at least one query, while the global-idf fold
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
	single := query.NewBroker(build(merged))
	shards := []*index.Index{build(pagesA), build(pagesB)}
	global, err := localFleet(shards)
	if err != nil {
		t.Fatal(err)
	}

	diverged := false
	for _, q := range []string{"rare", "word", "common"} {
		want := single.SearchTopKCtx(context.Background(), q, 1)
		got, err := global.Search(context.Background(), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 1 || len(got.Results) != 1 || got.Results[0].Result != want[0] {
			t.Fatalf("q=%q: global-idf fold top %+v, single index %+v", q, got.Results, want)
		}
		local := localIDFTop(context.Background(), shards, q)
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
