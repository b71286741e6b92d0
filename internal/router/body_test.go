package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/serve"
)

// shardBody is a /shard/search body of n candidates for "morcheeba
// singer", its strings tagged with tag so two bodies differ everywhere.
func shardBody(t testing.TB, tag string, n int) []byte {
	t.Helper()
	var cands []query.ShardCandidate
	for i := range n {
		c := cand(fmt.Sprintf("http://%s.example/watch?v=%03d", tag, i), i%3, 0.5+float64(i)/100, 0.25, 0.5)
		c.Snippet = fmt.Sprintf("%s snippet %d: the new <b>singer</b> ...", tag, i)
		cands = append(cands, c)
	}
	b, err := json.Marshal(canned([]string{"morcheeba", "singer"}, 40+n, cands...))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reference decodes body the way every decode went before bodies were
// read into pooled buffers: into a fresh ShardResult.
func reference(t *testing.T, body []byte) *query.ShardResult {
	t.Helper()
	var sr query.ShardResult
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return &sr
}

// TestDecodeShardResultOwnsItsStrings: the body buffer goes back to the
// pool when the decode returns, so nothing decoded may alias it. A
// second, different body decoded through the same buffer must leave the
// first result's terms, URLs and snippets as they were, and concurrent
// decodes (run under -race in CI) must each get their own body back.
func TestDecodeShardResultOwnsItsStrings(t *testing.T) {
	a, b := shardBody(t, "aaaa", 10), shardBody(t, "bbbb", 10)
	want := reference(t, a)
	got, err := DecodeShardResult(bytes.NewReader(a), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 10, 3} { // reuse the buffer, hinted or not
		if _, err := decodeShardResult(bytes.NewReader(b), 0, k); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoding another body changed the first result:\n got %+v\nwant %+v", got, want)
	}

	var wg sync.WaitGroup
	for g := range 4 {
		body := shardBody(t, strings.Repeat(string(rune('c'+g)), 1+g), 5+g)
		want := reference(t, body)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				res, err := decodeShardResult(bytes.NewReader(body), 0, i%2*10)
				if err != nil || !reflect.DeepEqual(res.Candidates, want.Candidates) || !reflect.DeepEqual(res.Terms, want.Terms) {
					t.Errorf("goroutine %d decode %d: %v %+v", g, i, err, res)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestHintedDecodeMatchesUnsized: a hinted decode pre-sizes the
// candidate slice, so "candidates":null and a missing field no longer
// both leave it nil. They must still reach the same checkShardResult
// verdict and the same Fold as a decode into a fresh ShardResult.
func TestHintedDecodeMatchesUnsized(t *testing.T) {
	terms := []string{"morcheeba", "singer"}
	hint := query.Hint{K: 10, N: 80, DF: []int{4, 2}}
	for _, body := range []string{
		`{"terms":["morcheeba","singer"],"total_states":40,"df":[2,1],"gen":1,"docs":1,"states":40,"candidates":null}`,
		`{"terms":["morcheeba","singer"],"total_states":40,"df":[2,1],"gen":1,"docs":1,"states":40}`,
		`{"terms":["morcheeba","singer"],"total_states":40,"df":[2,1],"candidates":[]}`,
		`{"terms":["morcheeba"],"df":[2]}`,
		string(shardBody(t, "x", 10)),
		string(shardBody(t, "y", 11)), // more than the cut: refused either way
	} {
		want := reference(t, []byte(body))
		got, err := decodeShardResult(strings.NewReader(body), 0, hint.K)
		if err != nil {
			t.Fatalf("%.60s: %v", body, err)
		}
		gotErr, wantErr := checkShardResult(got, terms, hint), checkShardResult(want, terms, hint)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%.60s: checkShardResult %v, unsized decode %v", body, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		fold := func(res *query.ShardResult) []query.ResultWithSnippet {
			return query.Fold(terms, query.DefaultWeights, []*query.ShardResult{res, canned(terms, 40)}, 10)
		}
		if g, w := fold(got), fold(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%.60s: Fold %+v, unsized decode %+v", body, g, w)
		}
	}

	// A k far beyond what the body can hold sizes the slice by the body.
	body := shardBody(t, "z", 2)
	res, err := decodeShardResult(bytes.NewReader(body), 0, 1<<40)
	if err != nil || cap(res.Candidates) > len(body) {
		t.Fatalf("k = 2^40: %v, candidate capacity %d for a %d-byte body", err, cap(res.Candidates), len(body))
	}
}

// TestRouterHealthBodyMatchesMarshal: the router's /healthz bodies, both
// the 200 and the degraded 503, are json.Marshal's bytes plus a newline.
func TestRouterHealthBodyMatchesMarshal(t *testing.T) {
	for _, h := range []healthResponse{
		{Status: "ok", Shards: 2, Replicas: []int{2, 2}, Healthy: []int{2, 1}, Partial: true},
		{Status: "degraded", Shards: 1, Replicas: []int{1}, Healthy: []int{0}},
	} {
		rec := httptest.NewRecorder()
		serve.WriteJSON(rec, http.StatusServiceUnavailable, h)
		want, _ := json.Marshal(h)
		if got := rec.Body.String(); got != string(want)+"\n" {
			t.Fatalf("body %s, want %s", got, want)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so an
// allocation count sees WriteJSON alone.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w discardWriter) WriteHeader(int)             {}

// TestServingHopAllocs pins the allocations of the two body hops at
// what they measured when their buffers came from the pool: a
// 10-result /search body written through WriteJSON, and the hinted
// decode of a recorded 10-candidate shard body.
func TestServingHopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	results := query.Fold([]string{"morcheeba", "singer"}, query.DefaultWeights, []*query.ShardResult{reference(t, shardBody(t, "w", 10))}, 10)
	if len(results) != 10 {
		t.Fatalf("fixture has %d results", len(results))
	}
	w := discardWriter{h: http.Header{}}
	write := testing.AllocsPerRun(100, func() { serve.WriteSearch(w, "morcheeba singer", 10, results) })

	body := shardBody(t, "d", 10)
	r := bytes.NewReader(body)
	decode := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		if res, err := decodeShardResult(r, 0, 10); err != nil || len(res.Candidates) != 10 {
			t.Fatalf("decode: %v", err)
		}
	})
	t.Logf("WriteSearch (10 results): %v allocs; hinted decode (10 candidates, %d bytes): %v allocs", write, len(body), decode)
	const writeAllocs, decodeAllocs = 4, 66
	if write > writeAllocs || decode > decodeAllocs {
		t.Fatalf("WriteSearch %v allocs (ceiling %d), hinted decode %v (ceiling %d)", write, writeAllocs, decode, decodeAllocs)
	}
}
