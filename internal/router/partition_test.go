package router

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/webapp"
)

// splitSnapshot splits the published snapshot in dir into n partition
// directories, the way scripts/paper-scale.sh builds its fleet with jq:
// partition p hard-links shard files p, p+n, … and gets a manifest.json
// holding just those entries, no models and re-summed totals.
func splitSnapshot(t *testing.T, dir string, n int) []string {
	t.Helper()
	man, err := index.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]string, n)
	for p := range parts {
		parts[p] = t.TempDir()
		sub := &index.Manifest{Version: man.Version, ID: man.ID, CreatedAt: man.CreatedAt}
		for i := p; i < len(man.Shards); i += n {
			e := man.Shards[i]
			if err := os.Link(filepath.Join(dir, e.File), filepath.Join(parts[p], e.File)); err != nil {
				t.Fatal(err)
			}
			sub.Shards = append(sub.Shards, e)
			sub.TotalDocs += e.Docs
			sub.TotalStates += e.States
			sub.TotalTerms += e.Terms
		}
		if err := index.WriteManifest(parts[p], sub); err != nil {
			t.Fatal(err)
		}
	}
	return parts
}

// TestSplitSnapshotFleetMatchesSingleServer is the partition contract
// the paper-scale fleet relies on: one published multi-file snapshot,
// split by file into two partitions of two replicas each behind the
// router, answers the whole query workload — cold, then hinted — with
// the bodies one server over the whole snapshot answers, byte for byte.
func TestSplitSnapshotFleetMatchesSingleServer(t *testing.T) {
	const k, filePages = 10, 4
	graphs, pr := crawlCorpus(t, 24, 101)
	var files []*index.Index
	for lo := 0; lo < len(graphs); lo += filePages {
		files = append(files, index.Build(graphs[lo:min(lo+filePages, len(graphs))], pr, 0))
	}
	dir := t.TempDir()
	if _, err := index.SaveSnapshot(dir, files, graphs); err != nil {
		t.Fatal(err)
	}
	single := newServeServer(t, dir)

	parts := splitSnapshot(t, dir, 2)
	topo := make([][]Backend, len(parts))
	for i, part := range parts {
		for range 2 {
			topo[i] = append(topo[i], &HTTPBackend{BaseURL: newServeServer(t, part).URL})
		}
	}
	rt, err := New(Config{Shards: topo})
	if err != nil {
		t.Fatal(err)
	}
	fleet := httptest.NewServer(NewServer(rt, ServerConfig{}, obs.New(nil, nil)).Handler())
	defer fleet.Close()

	queries := webapp.Queries()
	for _, q := range slices.Concat(queries, queries) {
		wantResp, want := httpGet(t, single.URL+searchPath(q, k))
		resp, got := httpGet(t, fleet.URL+searchPath(q, k))
		if wantResp.StatusCode != http.StatusOK || resp.StatusCode != http.StatusOK {
			t.Fatalf("q=%q: single %d, fleet %d", q, wantResp.StatusCode, resp.StatusCode)
		}
		if string(got) != string(want) {
			t.Fatalf("q=%q: the split fleet diverged from the single server:\n%s\nvs\n%s", q, got, want)
		}
	}
}
