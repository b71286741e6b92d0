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
	"sort"
	"strconv"
	"strings"
	"testing"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/index"
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

// TestBodiesGolden pins every serving body — /search, /shard/search
// unhinted, /shard/search under the shard's own statistics with k=10 —
// for the golden queries on the crawled 200-video corpus to
// testdata/bodies.golden, one length and SHA-256 prefix per body. The
// golden was captured by running this test with -update on the commit
// before scan-based snippets and the streamed top-k selector (ISSUE
// 19), so byte-identity is pinned against that build, not against this
// build's own reference server. A hinted shard response is hashed with
// its candidates in (url, state) order: their order on the wire is not
// part of the contract (DESIGN.md §5i), their content is.
func TestBodiesGolden(t *testing.T) {
	const videos = 200
	site := webapp.New(webapp.DefaultConfig(videos, 2008))
	urls := make([]string, videos)
	for i := range urls {
		urls[i] = webapp.WatchURL(site.VideoID(i))
	}
	c := core.New(&fetch.HandlerFetcher{Handler: site.Handler()}, core.Options{UseHotNode: true})
	graphs, _, err := c.CrawlAll(context.Background(), urls)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := index.SaveSnapshot(dir, []*index.Index{index.Build(graphs, nil, 0)}, graphs); err != nil {
		t.Fatal(err)
	}
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
