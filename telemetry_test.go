package ajaxcrawl

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ajaxcrawl/internal/obs"
)

// TestPipelineTraceCoversEveryUnit runs the full pipeline — precrawl,
// parallel crawl, indexing, query — with a JSONL trace sink on the
// context and checks the trace file is parseable and covers every unit
// of work the observability layer promises: page, event, XHR, line,
// index build, and query execution.
func TestPipelineTraceCoversEveryUnit(t *testing.T) {
	site := NewSimSite(12, 3)
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	sink, err := obs.NewFileSink(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, sink))

	eng, err := BuildEngine(ctx, Config{
		Fetcher:   NewHandlerFetcher(site.Handler()),
		StartURL:  site.VideoURL(0),
		MaxPages:  6,
		ProcLines: 2,
		Crawl:     CrawlOptions{UseHotNode: true, MaxStates: 3},
		KeepURL:   IsWatchURL,
	})
	if err != nil {
		t.Fatal(err)
	}
	results := eng.Search(ctx, site.VideoTitle(0), 0)
	if len(results) == 0 {
		t.Fatalf("no results for %q", site.VideoTitle(0))
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := make(map[string]int)
	for dec := json.NewDecoder(f); dec.More(); {
		var r obs.SpanRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("trace file not parseable: %v", err)
		}
		seen[r.Name]++
	}
	for _, unit := range []string{
		obs.SpanPageCrawl,
		obs.SpanEventDispatch,
		obs.SpanXHRSend,
		obs.SpanLineCrawl,
		obs.SpanIndexBuild,
		obs.SpanQueryExec,
	} {
		if seen[unit] == 0 {
			t.Errorf("trace has no %s spans (units seen: %v)", unit, seen)
		}
	}
	if seen[obs.SpanLineCrawl] != 2 {
		t.Errorf("line.crawl spans = %d, want 2", seen[obs.SpanLineCrawl])
	}

	// The registry saw the same run: its summary counters must agree
	// with the engine's crawl metrics.
	snap := reg.Snapshot()
	if got, want := snap.Counters["crawl.states.discovered"], int64(eng.Metrics.States); got != want {
		t.Errorf("registry crawl.states.discovered = %d, want %d", got, want)
	}
	if snap.Counters["query.count"] != 1 {
		t.Errorf("query.count = %d, want 1", snap.Counters["query.count"])
	}
	if snap.Histograms["query.latency"].Count != 1 {
		t.Errorf("query.latency count = %d, want 1", snap.Histograms["query.latency"].Count)
	}
}
