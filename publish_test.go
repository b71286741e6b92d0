package ajaxcrawl

import (
	"bytes"
	"context"
	"errors"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
)

// chunkedSnapshot publishes graphs, given in crawl-list order with every
// listed URL crawled, as one index.Build shard per index.ShardPages of
// them through index.SaveSnapshot: the shards a crawl publishes, built
// whole and saved in one go.
func chunkedSnapshot(t *testing.T, dir string, graphs []*model.Graph, pageRank map[string]float64) *Manifest {
	t.Helper()
	var shards []*Index
	for lo := 0; lo < len(graphs); lo += index.ShardPages {
		shards = append(shards, index.Build(graphs[lo:min(lo+index.ShardPages, len(graphs))], pageRank, 0))
	}
	man, err := index.SaveSnapshot(dir, shards, graphs)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// sameSnapshotBytes fails unless got's snapshot in gotDir holds want's
// shard bytes, file by file in manifest order, and want's models bytes.
func sameSnapshotBytes(t *testing.T, name, gotDir string, got *Manifest, wantDir string, want *Manifest) {
	t.Helper()
	if len(got.Shards) != len(want.Shards) || got.Models != want.Models {
		t.Fatalf("%s: %d shard files and models %q, want %d and %q", name, len(got.Shards), got.Models, len(want.Shards), want.Models)
	}
	read := func(dir, file string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for i := range want.Shards {
		if !bytes.Equal(read(gotDir, got.Shards[i].File), read(wantDir, want.Shards[i].File)) {
			t.Fatalf("%s: shard file %d differs from the chunked build's", name, i)
		}
	}
	if !bytes.Equal(read(gotDir, got.Models), read(wantDir, want.Models)) {
		t.Fatalf("%s: models file differs from the chunked build's", name)
	}
}

// crawledInOrder returns the engine's graphs in crawl-list order; it
// fails unless every listed page was crawled.
func crawledInOrder(t *testing.T, eng *Engine) []*model.Graph {
	t.Helper()
	var graphs []*model.Graph
	for _, pm := range eng.Metrics.PerPage {
		graphs = append(graphs, eng.Graph(pm.URL))
	}
	if eng.Metrics.PagesFailed != 0 || len(graphs) != eng.Metrics.Pages || slices.Contains(graphs, nil) {
		t.Fatalf("%d pages, %d failed, %d rows: want every listed page crawled", eng.Metrics.Pages, eng.Metrics.PagesFailed, len(graphs))
	}
	return graphs
}

func publishTestConfig(site *SimSite) Config {
	return Config{
		Fetcher:   NewHandlerFetcher(site.Handler()),
		StartURL:  site.VideoURL(0),
		MaxPages:  45,
		ProcLines: 2,
		Crawl:     CrawlOptions{UseHotNode: true, MaxStates: 5},
		KeepURL:   IsWatchURL,
	}
}

// TestEnginePublishesChunkedBuildBytes: whether the crawl's shards wait
// in WorkDir or in memory, SaveSnapshot publishes exactly the shard and
// models bytes of index.Build per chunk saved by index.SaveSnapshot —
// twice, and with WorkDir itself as the target too; from WorkDir, as hard
// links. The engine holds no index through any of it.
func TestEnginePublishesChunkedBuildBytes(t *testing.T) {
	site := NewSimSite(60, 77)
	for _, withWorkDir := range []bool{true, false} {
		cfg := publishTestConfig(site)
		name := "in memory"
		if withWorkDir {
			cfg.WorkDir, name = filepath.Join(t.TempDir(), "work"), "WorkDir"
		}
		eng, err := BuildEngine(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		refDir := t.TempDir()
		want := chunkedSnapshot(t, refDir, crawledInOrder(t, eng), eng.PageRank)
		if len(want.Shards) != 3 {
			t.Fatalf("%s: %d chunks, want 3", name, len(want.Shards))
		}
		targets := []string{t.TempDir(), t.TempDir()}
		if withWorkDir {
			targets = append(targets, cfg.WorkDir)
		}
		for _, dir := range append(targets, targets[0]) {
			got, err := eng.SaveSnapshot(dir)
			if err != nil {
				t.Fatalf("%s: save into %s: %v", name, dir, err)
			}
			sameSnapshotBytes(t, name, dir, got, refDir, want)
			for _, e := range got.Shards {
				if !withWorkDir {
					break
				}
				work, err1 := os.Stat(filepath.Join(cfg.WorkDir, e.File))
				published, err2 := os.Stat(filepath.Join(dir, e.File))
				if err1 != nil || err2 != nil || !os.SameFile(work, published) {
					t.Fatalf("%s: %s in %s is not a hard link of WorkDir's (%v, %v)", name, e.File, dir, err1, err2)
				}
			}
			if got.TotalStates != eng.NumStates() {
				t.Fatalf("%s: manifest has %d states, NumStates %d", name, got.TotalStates, eng.NumStates())
			}
		}
		if eng.broker.Index != nil {
			t.Fatalf("%s: the engine built an index without a search", name)
		}
	}
}

// TestFirstSearchBuildsTheIndex: a crawled engine holds no index after
// BuildEngine and SaveSnapshot; its first searches, concurrent ones
// included, build one, whose top-10 over the site's queries equals that
// of the engine loaded from its own snapshot, scores and tie-breaks
// included.
func TestFirstSearchBuildsTheIndex(t *testing.T) {
	site := NewSimSite(60, 77)
	cfg := publishTestConfig(site)
	cfg.WorkDir = t.TempDir()
	eng, err := BuildEngine(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := eng.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if eng.broker.Index != nil {
		t.Fatal("the engine holds an index before its first search")
	}
	loaded, err := LoadEngineSnapshot(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The first searches race to build the index: they must all get it.
	q0 := site.Queries()[0]
	firsts := make([][]Result, 4)
	var wg sync.WaitGroup
	for i := range firsts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			firsts[i] = eng.Search(context.Background(), q0, 10)
		}()
	}
	wg.Wait()
	for _, got := range firsts {
		if want := loaded.Search(context.Background(), q0, 10); len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: a concurrent first search answers\n%v\nthe snapshot answers\n%v", q0, got, want)
		}
	}
	hits := 0
	for _, q := range site.Queries() {
		got, want := eng.Search(context.Background(), q, 10), loaded.Search(context.Background(), q, 10)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: the engine answers\n%v\nits snapshot answers\n%v", q, got, want)
		}
		hits += len(got)
	}
	if eng.broker.Index == nil || hits == 0 {
		t.Fatalf("after the searches: index built %v, %d hits", eng.broker.Index != nil, hits)
	}
}

// TestCancelledBuildLeavesShardFilesAndNoManifest: a crawl cancelled
// mid-way leaves the shard files of what it crawled in WorkDir and no
// manifest; the partial engine publishes a snapshot that loads, with
// every crawled page in it.
func TestCancelledBuildLeavesShardFilesAndNoManifest(t *testing.T) {
	site := NewSimSite(60, 77)
	cfg := publishTestConfig(site)
	cfg.WorkDir = t.TempDir()
	inner := cfg.Fetcher
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var xhrs atomic.Int64
	cfg.Fetcher = fetch.Func(func(c context.Context, rawurl string) (*fetch.Response, error) {
		if strings.HasPrefix(rawurl, "/comments") && xhrs.Add(1) == 90 {
			cancel()
		}
		return inner.Fetch(c, rawurl)
	})
	eng, err := BuildEngine(ctx, cfg)
	if !errors.Is(err, context.Canceled) || eng == nil {
		t.Fatalf("want a partial engine and context.Canceled, got %v", err)
	}
	if eng.Metrics.Pages <= index.ShardPages || eng.Metrics.Pages >= cfg.MaxPages {
		t.Fatalf("want a crawl cut past its first chunk, got %d pages", eng.Metrics.Pages)
	}
	files, err := os.ReadDir(cfg.WorkDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, f.Name())
	}
	if len(names) != len(eng.shards.Entries()) || len(names) < 2 {
		t.Fatalf("WorkDir holds %v, want the %d shard files alone", names, len(eng.shards.Entries()))
	}
	for _, n := range names {
		if n == index.ManifestFileName || !strings.HasPrefix(n, "shard-") {
			t.Fatalf("WorkDir holds %v, want shard files and no manifest", names)
		}
	}
	dir := t.TempDir()
	if _, err := eng.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	man, _, err := index.LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.TotalDocs != eng.Metrics.Pages {
		t.Fatalf("the snapshot holds %d docs, the crawl %d pages", man.TotalDocs, eng.Metrics.Pages)
	}
}

// TestBuildEngineIndexesWhileCrawling: process lines take pages in URL
// order, so BuildEngine's stream releases a shard's pages while later
// ones are still crawling, and the shard is encoded then. At one line,
// the first shard file is in WorkDir by the time the crawl fetches for
// the page at position 40, two shards on. The indexing goroutine gets a
// grace period to catch up; a crawl that has not crawled position 0 yet
// cannot have written the file at all.
func TestBuildEngineIndexesWhileCrawling(t *testing.T) {
	const probe = 2 * index.ShardPages
	site := NewSimSite(60, 123)
	inner := NewHandlerFetcher(site.Handler())
	workDir := t.TempDir()
	var (
		mu      sync.Mutex
		pos     = map[string]int{} // video ID → precrawl position
		probed  bool
		written bool
	)
	firstShard := func() bool {
		m, _ := filepath.Glob(filepath.Join(workDir, "shard-*-0000.bin"))
		return len(m) > 0
	}
	f := fetch.Func(func(c context.Context, rawurl string) (*fetch.Response, error) {
		u, err := url.Parse(rawurl)
		if err != nil {
			return nil, err
		}
		v := u.Query().Get("v")
		mu.Lock()
		defer mu.Unlock()
		// One line precrawls one page at a time, so the order of the
		// watch-page fetches is the URL list; the crawl's own fetches are
		// the pages' XHRs, which carry the video too.
		if u.Path == "/watch" {
			if _, ok := pos[v]; !ok {
				pos[v] = len(pos)
			}
		} else if p, ok := pos[v]; ok && p >= probe && !probed {
			probed = true
			for deadline := time.Now().Add(5 * time.Second); !firstShard() && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
			}
			written = firstShard()
		}
		return inner.Fetch(c, rawurl)
	})
	eng, err := BuildEngine(context.Background(), Config{
		Fetcher:   f,
		StartURL:  site.VideoURL(0),
		MaxPages:  50,
		ProcLines: 1,
		Crawl:     CrawlOptions{UseHotNode: true, MaxStates: 3},
		KeepURL:   IsWatchURL,
		WorkDir:   workDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Metrics.Pages != 50 || !probed {
		t.Fatalf("crawled %d pages, fetched for position >= %d: %v; the probe never ran", eng.Metrics.Pages, probe, probed)
	}
	if !written {
		t.Fatalf("no shard file in WorkDir when the crawl reached position %d: indexing waited for the crawl", probe)
	}
}
