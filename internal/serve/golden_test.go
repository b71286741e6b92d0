package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/webapp"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/bodies.golden from this tree's responses")

// goldenQueries is the paper's 100-query workload plus the shapes it
// lacks: mixed case and punctuation, an absent term beside a present
// one, a duplicated term, a query with no terms.
func goldenQueries() []string {
	return append(webapp.Queries(), "Funny  DANCE!", "wow zzzabsent", "love love", "!!!")
}

// goldenGraphs crawls the 200-video corpus the golden bodies were
// captured on, once per test binary.
var goldenGraphs = sync.OnceValues(func() ([]*model.Graph, error) {
	const videos = 200
	site := webapp.New(webapp.DefaultConfig(videos, 2008))
	urls := make([]string, videos)
	for i := range urls {
		urls[i] = webapp.WatchURL(site.VideoID(i))
	}
	c := core.New(&fetch.HandlerFetcher{Handler: site.Handler()}, core.Options{UseHotNode: true})
	res := (&core.MPCrawler{NewCrawler: func() *core.Crawler { return c }, ProcLines: 1, URLs: urls}).Run(context.Background())
	return res.Graphs, res.Err
})

// publishCut publishes graphs into a new directory as shard files of
// every chunk consecutive graphs (one file when chunk is 0).
func publishCut(t *testing.T, graphs []*model.Graph, chunk int) string {
	t.Helper()
	if chunk == 0 {
		chunk = len(graphs)
	}
	var shards []*index.Index
	for lo := 0; lo < len(graphs); lo += chunk {
		shards = append(shards, index.Build(graphs[lo:min(lo+chunk, len(graphs))], nil, 0))
	}
	dir := t.TempDir()
	if _, err := index.SaveSnapshot(dir, shards, graphs); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestBodiesGolden pins every serving body — /search, /shard/search
// unhinted, /shard/search under the shard's own statistics with k=10 —
// for the golden queries on the crawled 200-video corpus to
// testdata/bodies.golden, one length and SHA-256 prefix per body. The
// golden was captured by running this test with -update on the commit
// before scan-based snippets and the streamed top-k selector (ISSUE
// 19), so byte-identity is pinned against that build, not against this
// build's own reference server. A hinted shard response is hashed with
// its candidates in (url, state) order: their order on the wire is not
// part of the contract (DESIGN.md §5i), their content is. The corpus is
// served from two layouts against the one golden: a single shard file,
// and the graphs cut every index.ShardPages, as a crawl publishes them.
func TestBodiesGolden(t *testing.T) {
	graphs, err := goldenGraphs()
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []struct {
		name  string
		chunk int
	}{{"one file", 0}, {"a file per index.ShardPages graphs", index.ShardPages}} {
		t.Run(layout.name, func(t *testing.T) {
			checkBodiesGolden(t, publishCut(t, graphs, layout.chunk))
		})
	}
}

// checkBodiesGolden compares the bodies the snapshot in dir serves with
// testdata/bodies.golden (or rewrites the golden under -update).
func checkBodiesGolden(t *testing.T, dir string) {
	s, _ := newTestServer(t, Config{SnapshotDir: dir})
	h := s.Handler()
	body := func(path string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}

	var got strings.Builder
	line := func(kind, q string, b []byte) {
		sum := sha256.Sum256(b)
		fmt.Fprintf(&got, "%s %q %d %x\n", kind, q, len(b), sum[:12])
	}
	for _, q := range goldenQueries() {
		esc := url.QueryEscape(q)
		line("search", q, body("/search?q="+esc+"&k=10"))

		full := body("/shard/search?q=" + esc)
		line("shard", q, full)
		var res query.ShardResult
		if err := json.Unmarshal(full, &res); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		dfs := make([]string, len(res.DF))
		for i, df := range res.DF {
			dfs[i] = strconv.Itoa(df)
		}
		hinted := body("/shard/search?q=" + esc + "&k=10&n=" + strconv.Itoa(res.TotalStates) + "&df=" + strings.Join(dfs, ","))
		var cut query.ShardResult
		if err := json.Unmarshal(hinted, &cut); err != nil {
			t.Fatalf("%q hinted: %v", q, err)
		}
		if !bytes.Contains(hinted, []byte(`"candidates":[`)) {
			t.Fatalf("%q hinted: candidates is not an array: %s", q, hinted)
		}
		sort.Slice(cut.Candidates, func(i, j int) bool {
			a, b := cut.Candidates[i], cut.Candidates[j]
			if a.URL != b.URL {
				return a.URL < b.URL
			}
			return a.State < b.State
		})
		canon, err := json.Marshal(cut)
		if err != nil {
			t.Fatal(err)
		}
		line("shard-k10", q, canon)
	}

	golden := filepath.Join("testdata", "bodies.golden")
	if *updateGolden {
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
				t.Fatalf("bodies diverge from golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%d body lines, golden has %d", len(gl), len(wl))
	}
}

// TestMergedLoadMatchesPerFileBroker: over the golden corpus cut every
// index.ShardPages graphs, the one index LoadSnapshot holds answers each
// golden query with what the files, loaded one by one and their shard
// answers folded as the router folds them, answer: URL, state, float64
// score and order. Two graphs of one text
// sit on either side of a file boundary, so their score ties across it.
func TestMergedLoadMatchesPerFileBroker(t *testing.T) {
	graphs, err := goldenGraphs()
	if err != nil {
		t.Fatal(err)
	}
	twin := func(url string) *model.Graph {
		g := model.NewGraph(url)
		g.AddState(testHash(9), "zzztwin morcheeba", 0)
		return g
	}
	cut := slices.Concat(graphs[:index.ShardPages-1], []*model.Graph{twin("site/twin-b"), twin("site/twin-a")}, graphs[index.ShardPages-1:])
	dir := publishCut(t, cut, index.ShardPages)

	snap, man, err := LoadSnapshot(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var files []*index.Index
	for _, e := range man.Shards {
		data, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			t.Fatal(err)
		}
		ix, err := index.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, ix)
	}
	if len(files) != len(cut)/index.ShardPages+1 {
		t.Fatalf("%d files", len(files))
	}
	perFile := func(q string) []query.Result {
		responses := make([]*query.ShardResult, len(files))
		for i, ix := range files {
			srv := query.NewServer(&query.ServeSnapshot{Broker: query.NewBroker(ix)}, query.CacheOptions{})
			responses[i] = srv.ShardSearch(context.Background(), q)
		}
		var out []query.Result
		for _, r := range query.Fold(query.Parse(q), query.DefaultWeights, responses, 0) {
			out = append(out, r.Result)
		}
		return out
	}
	for _, q := range append(goldenQueries(), "zzztwin") {
		if got, want := snap.Broker.Search(q), perFile(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: the one index answers\n%v\nthe files answer\n%v", q, got, want)
		}
	}
	tie := snap.Broker.Search("zzztwin")
	if len(tie) != 2 || tie[0].Score != tie[1].Score || tie[0].URL != "site/twin-a" {
		t.Fatalf("the twins across the file boundary rank %v, want a tie broken by URL", tie)
	}
}
