package ajaxcrawl

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/snapshot_layout.golden from this tree's pipeline")

// TestSnapshotLayoutGolden pins what the pipeline publishes for one
// seeded site: the snapshot manifest's shard inventory (docs, states,
// postings, terms per shard, in broker order) and the top-10
// (url, state, score) of the 100-query workload. The golden was captured
// by running this test with -update on the commit before the partition
// machinery was deleted (ISSUE 20), when shards were built one per
// on-disk partition directory of 20 URLs — so the layout is pinned
// against that build, not against this build's own output. It must come
// out identical for 1 and for 4 process lines.
func TestSnapshotLayoutGolden(t *testing.T) {
	site := NewSimSite(50, 2008)
	var first string
	for _, lines := range []int{1, 4} {
		eng, err := BuildEngine(context.Background(), Config{
			Fetcher:   NewHandlerFetcher(site.Handler()),
			StartURL:  site.VideoURL(0),
			MaxPages:  50,
			ProcLines: lines,
			KeepURL:   IsWatchURL,
			Crawl:     CrawlOptions{UseHotNode: true},
		})
		if err != nil {
			t.Fatalf("%d lines: %v", lines, err)
		}
		man, err := eng.SaveSnapshot(t.TempDir())
		if err != nil {
			t.Fatalf("%d lines: %v", lines, err)
		}
		var got strings.Builder
		for i, s := range man.Shards {
			fmt.Fprintf(&got, "shard %d docs=%d states=%d postings=%d terms=%d\n", i, s.Docs, s.States, s.Postings, s.Terms)
		}
		for _, q := range site.Queries() {
			for rank, r := range eng.SearchTopK(q, 10) {
				fmt.Fprintf(&got, "%q %d %s %d %.12g\n", q, rank+1, r.URL, r.State, r.Score)
			}
		}
		if first == "" {
			first = got.String()
		} else if got.String() != first {
			t.Fatalf("%d lines publish a different layout than 1 line", lines)
		}
	}

	golden := filepath.Join("testdata", "snapshot_layout.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(first), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if first != string(want) {
		gl, wl := strings.Split(first, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("layout diverges from golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%d layout lines, golden has %d", len(gl), len(wl))
	}
}
