package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"ajaxcrawl/internal/query"
)

// TestShardSearchEndpoint pins the shard half of the fan-out protocol:
// /shard/search returns the pre-idf candidate payload with the snapshot
// metadata headers, rejects missing q, and honors the shed gate — a
// router hedging into a saturated replica must see 429 immediately.
func TestShardSearchEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, bad := range []string{"/shard/search", "/shard/search?q="} {
		resp, _ := get(t, ts.URL+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}

	resp, body := get(t, ts.URL+"/shard/search?q=morcheeba")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get(HeaderGeneration) != "1" || resp.Header.Get(HeaderDocs) != "2" {
		t.Fatalf("metadata headers = gen %q, docs %q",
			resp.Header.Get(HeaderGeneration), resp.Header.Get(HeaderDocs))
	}
	var res query.ShardResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(res.Terms) != 1 || res.Terms[0] != "morcheeba" {
		t.Fatalf("terms = %v", res.Terms)
	}
	if len(res.DF) != 1 || res.DF[0] != len(res.Candidates) {
		t.Fatalf("df = %v with %d candidates", res.DF, len(res.Candidates))
	}
	if res.TotalStates == 0 || len(res.Candidates) == 0 {
		t.Fatalf("empty shard response: %+v", res)
	}
	for i, c := range res.Candidates {
		if c.URL == "" || len(c.TFs) != 1 || c.Snippet == "" {
			t.Fatalf("candidate %d incomplete: %+v", i, c)
		}
	}
}

func TestShardSearchSheds(t *testing.T) {
	s, reg := newTestServer(t, Config{MaxInflight: 1})
	tok, err := s.Limiter().Acquire(context.Background())
	if err != nil {
		t.Fatal("could not saturate the limiter")
	}
	defer tok.Cancel()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/shard/search?q=morcheeba", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", rec.Header().Get("Retry-After"))
	}
	if reg.Counter("query.serve.shed").Value() != 1 {
		t.Fatalf("shed counter = %d", reg.Counter("query.serve.shed").Value())
	}
	if reg.Counter("query.shard.requests").Value() != 0 {
		t.Fatal("shed request still evaluated the shard query")
	}
}

// shardGet answers path on s's handler with no socket and decodes a 200.
func shardGet(t *testing.T, s *Server, path string) (int, query.ShardResult) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	var res query.ShardResult
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("%s: bad JSON: %v\n%s", path, err, rec.Body)
		}
	}
	return rec.Code, res
}

// TestShardSearchHint: with the global statistics on the query string
// the shard ships its k best — k being the router's cut bound, so NOT
// clamped to this server's MaxK — still with its own df and state count
// beside them. A hint that disagrees with those is the stale case: it
// answers 200 all the same, and the actual statistics in the body are
// how the router notices.
func TestShardSearchHint(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxK: 1})
	_, all := shardGet(t, s, "/shard/search?q=morcheeba")
	if len(all.Candidates) != 3 {
		t.Fatalf("unhinted candidates = %d, want all 3", len(all.Candidates))
	}
	for _, path := range []string{
		"/shard/search?q=morcheeba&k=2&n=3&df=3",    // the truth
		"/shard/search?q=morcheeba&k=2&n=999&df=77", // stale, not malformed
	} {
		code, res := shardGet(t, s, path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", path, code)
		}
		if len(res.Candidates) != 2 {
			t.Fatalf("%s: %d candidates, want the cut to k=2 (MaxK must not clamp it)", path, len(res.Candidates))
		}
		if res.TotalStates != all.TotalStates || len(res.DF) != 1 || res.DF[0] != all.DF[0] {
			t.Fatalf("%s: statistics %d/%v are not the shard's own %d/%v", path, res.TotalStates, res.DF, all.TotalStates, all.DF)
		}
		for _, c := range res.Candidates {
			if c.Snippet == "" {
				t.Fatalf("%s: kept candidate %s#%d lost its snippet", path, c.URL, c.State)
			}
		}
	}
	// k with neither n nor df is no hint: ignored, as it always was.
	if _, res := shardGet(t, s, "/shard/search?q=morcheeba&k=1"); len(res.Candidates) != 3 {
		t.Fatalf("bare k cut the response to %d candidates", len(res.Candidates))
	}
}

// TestShardSearchHintRejections: n and df are bytes from the network.
// A malformed hint is refused with 400 before anything is evaluated,
// and the admission slot it held is handed back.
func TestShardSearchHintRejections(t *testing.T) {
	s, reg := newTestServer(t, Config{MaxInflight: 4})
	for _, bad := range []string{
		"q=morcheeba&k=2&n=3&df=3,1",        // df longer than the query
		"q=morcheeba+video&k=2&n=3&df=3",    // df shorter than the query
		"q=morcheeba&k=2&n=3&df=",           // empty df, one term
		"q=morcheeba&k=2&n=3",               // n without df
		"q=morcheeba&k=2&n=3&df=-1",         // negative df
		"q=morcheeba&k=2&n=-3&df=3",         // negative n
		"q=morcheeba&k=2&n=3&df=1.5",        // non-integer df
		"q=morcheeba&k=2&n=3&df=abc",        //
		"q=morcheeba&k=2&n=3.0&df=3",        // non-integer n
		"q=morcheeba&k=2&n=3&df=3,",         // trailing separator
		"q=morcheeba&k=2&n=3&df=2147483648", // over int32
		"q=morcheeba&k=2&n=4294967296&df=3", //
		"q=morcheeba&k=2&n=0&df=3",          // df of an empty collection
		"q=morcheeba&k=2&df=3",              // df without n is n = "": not an integer
		"q=morcheeba&n=3&df=3",              // a hint with no k
		"q=morcheeba&k=0&n=3&df=3",          //
		"q=morcheeba&k=-1&n=3&df=3",         //
		"q=morcheeba&k=abc&n=3&df=3",        //
	} {
		if code, _ := shardGet(t, s, "/shard/search?"+bad); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, code)
		}
	}
	if got := reg.Counter("query.shard.requests").Value(); got != 0 {
		t.Fatalf("%d rejected hints were evaluated", got)
	}
	if got := s.Limiter().Inflight(); got != 0 {
		t.Fatalf("rejected hints still hold %d admission slots", got)
	}
}

// FuzzShardHint throws arbitrary query strings at /shard/search: the
// handler must not panic, must answer 200 or 400, and a 200 must decode.
// Seeds beyond these are checked in under testdata/fuzz.
func FuzzShardHint(f *testing.F) {
	for _, seed := range []string{
		"q=morcheeba",
		"q=morcheeba&k=2&n=3&df=3",
		"q=morcheeba+video&k=10&n=40&df=4,2",
		"q=morcheeba&k=2&n=999&df=77",
		"q=morcheeba&k=2&n=3&df=3,1",
		"q=morcheeba&k=2&n=3&df=-1",
		"q=morcheeba&k=2&n=0&df=3",
		"q=morcheeba&k=99999999999999999999&n=3&df=3",
		"q=...&k=1&n=0&df=",
		"q=%zz&df=%zz;n=1",
		"df=1&n=1&k=1",
		"",
	} {
		f.Add(seed)
	}
	s, _ := newTestServer(f, Config{})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, rawQuery string) {
		req := httptest.NewRequest("GET", "/shard/search", nil)
		req.URL.RawQuery = rawQuery
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest:
		case http.StatusOK:
			var res query.ShardResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatalf("?%s: 200 with an undecodable body: %v\n%s", rawQuery, err, rec.Body)
			}
			if len(res.DF) != len(res.Terms) {
				t.Fatalf("?%s: %d df entries for %d terms", rawQuery, len(res.DF), len(res.Terms))
			}
		default:
			t.Fatalf("?%s: status %d, want 200 or 400", rawQuery, rec.Code)
		}
	})
}
