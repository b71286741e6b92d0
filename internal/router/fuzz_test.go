package router

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/serve"
)

// FuzzRouterMergeResponse hammers the network-facing half of the
// router: a hostile shard body goes through DecodeShardResult (size
// cap, panic containment; twice, the second time through the pooled
// buffer the first gave back), checkShardResult (vector alignment,
// finite floats), and — when it survives both — a self-merge through
// dropDuplicates and query.Fold. The invariants: decode the same twice,
// never panic, never emit a duplicate (URL, state), never emit a
// non-finite score, always emit the deterministic order, never exceed
// the input's own candidate count, and always marshal into a /search
// body.
func FuzzRouterMergeResponse(f *testing.F) {
	valid := `{"terms":["video"],"total_states":5,"df":[1],"gen":1,"docs":1,"states":5,` +
		`"candidates":[{"url":"http://a","state":0,"base":1,"tfs":[1],"snippet":"s"}]}`
	f.Add([]byte(valid), "video")
	f.Add([]byte(valid), "video music")             // term-count mismatch
	f.Add([]byte(`{"terms":[],"df":[]}`), "")       // empty everything
	f.Add([]byte(`{"terms":["a"],"df":[-1]}`), "a") // negative df
	f.Add([]byte(`{"terms":["a"],"df":[1],"total_states":1,"candidates":[{"url":"","tfs":[1]}]}`), "a")
	f.Add([]byte(`{"candidates":[{"url":"x","tfs":[1e308,1e308]}]}`), "a b")
	f.Add([]byte(strings.Repeat("[", 100)), "a") // malformed nesting
	f.Add([]byte(`{"terms":["a"],"df":[1],"total_states":9223372036854775807,`+
		`"candidates":[{"url":"x","state":2147483647,"base":-1e300,"tfs":[1e300]}]}`), "a")
	f.Add([]byte(`{"terms":["a"],"df":[1],"total_states":1000,"candidates":[{"url":"x","base":1,"tfs":[1e308]}]}`), "a") // tf outside eq. 5.1's [0,1]: folds to +Inf
	f.Add([]byte("{"), "a")
	f.Add([]byte(""), "a")

	f.Fuzz(func(t *testing.T, data []byte, q string) {
		terms := query.Parse(q)
		// A tight cap exercises the truncation branch on large inputs;
		// decoding must fail cleanly, never panic or over-buffer.
		res, err := DecodeShardResult(bytes.NewReader(data), 1<<16)
		// The second decode reads through the buffer the first one handed
		// back to the pool: it must come out the same.
		again, errAgain := DecodeShardResult(bytes.NewReader(data), 1<<16)
		if (err == nil) != (errAgain == nil) || !reflect.DeepEqual(res, again) {
			t.Fatalf("decoding twice differs: %v %+v, then %v %+v", err, res, errAgain, again)
		}
		if err != nil {
			return
		}
		if err := checkShardResult(res, terms, query.Hint{}); err != nil {
			return
		}
		// The response passed validation: merging it (twice, to force the
		// dedup path) must uphold every merge invariant.
		out, dups := merge(terms, []*query.ShardResult{res, res}, 0)
		if len(out) > len(res.Candidates) {
			t.Fatalf("self-merge emitted %d results from %d candidates", len(out), len(res.Candidates))
		}
		if dups < len(res.Candidates) {
			// Every candidate of the second copy collides with the first
			// (and intra-response duplicates collide too).
			t.Fatalf("self-merge deduped only %d of %d duplicate candidates", dups, len(res.Candidates))
		}
		seen := make(map[string]bool, len(out))
		for i, r := range out {
			if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
				t.Fatalf("result %d has non-finite score %v", i, r.Score)
			}
			key := resultKey(r)
			if seen[key] {
				t.Fatalf("duplicate %s in merged output", key)
			}
			seen[key] = true
			if i == 0 {
				continue
			}
			p := out[i-1]
			if r.Score > p.Score ||
				(r.Score == p.Score && r.URL < p.URL) ||
				(r.Score == p.Score && r.URL == p.URL && r.State < p.State) {
				t.Fatalf("merge order violated at %d: %+v before %+v", i, p, r)
			}
		}
		// The merged results must make a /search body: json.Marshal
		// refuses a non-finite float, and the client gets a 500.
		rec := httptest.NewRecorder()
		serve.WriteSearch(rec, q, len(out), out)
		if rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("merged body does not marshal: %d %s", rec.Code, rec.Body.Bytes())
		}
		// Truncation must respect k.
		top, _ := merge(terms, []*query.ShardResult{res}, 1)
		if len(top) > 1 {
			t.Fatalf("k=1 merge returned %d results", len(top))
		}
	})
}

// TestDecodeShardResultCaps pins the size-cap and panic-containment
// behavior outside the fuzzer (so -run=Test catches regressions too).
func TestDecodeShardResultCaps(t *testing.T) {
	big := `{"terms":["a"],"pad":"` + strings.Repeat("x", 4096) + `"}`
	if _, err := DecodeShardResult(strings.NewReader(big), 1024); err == nil {
		t.Fatal("oversized body decoded")
	}
	// Exactly at the cap is fine.
	small := `{"terms":["a"],"df":[0]}`
	if _, err := DecodeShardResult(strings.NewReader(small), int64(len(small))); err != nil {
		t.Fatalf("cap-sized body rejected: %v", err)
	}
	if _, err := DecodeShardResult(strings.NewReader("{nope"), 0); err == nil {
		t.Fatal("malformed body decoded")
	}
	// Unknown fields are tolerated (forward compatibility).
	fwd := `{"terms":["a"],"df":[1],"total_states":1,"future_field":{"x":1}}`
	res, err := DecodeShardResult(strings.NewReader(fwd), 0)
	if err != nil || len(res.Terms) != 1 {
		t.Fatalf("forward-compatible body rejected: %v %+v", err, res)
	}
}
