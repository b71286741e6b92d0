package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ajaxcrawl/internal/query"
)

// marshalLine is the body every tier wrote before WriteJSON encoded
// through the pool: json.Marshal(v) and a newline.
func marshalLine(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func writeBody(v any) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, v)
	return rec
}

// TestWriteJSONMatchesMarshal pins every body WriteJSON writes to the
// bytes of json.Marshal plus a newline, /search included against the
// per-request copy it used to encode, and checks that the pooled buffer
// never leaks one body's bytes into the next or keeps an outsized one.
func TestWriteJSONMatchesMarshal(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ctx := context.Background()
	full := s.QueryServer().ShardSearch(ctx, "morcheeba")
	hinted := s.QueryServer().ShardSearchTop(ctx, "morcheeba", query.Hint{K: 1, N: full.TotalStates, DF: full.DF})
	if len(full.Candidates) != 3 || len(hinted.Candidates) != 1 {
		t.Fatalf("fixture: %d unhinted, %d hinted candidates", len(full.Candidates), len(hinted.Candidates))
	}
	health := healthResponse{Status: "ok", ManifestID: "m<1>", Generation: 2, Docs: 2, States: 3, Shards: 1}
	for name, v := range map[string]any{
		"shard":        full,
		"shard hinted": hinted,
		"shard empty":  s.QueryServer().ShardSearch(ctx, "zzzabsent"),
		"healthz":      health,
		"error":        struct{ Error string }{`bad "q" <&>`},
	} {
		if got, want := writeBody(v).Body.Bytes(), marshalLine(t, v); !bytes.Equal(got, want) {
			t.Errorf("%s: WriteJSON wrote\n%s\nwant\n%s", name, got, want)
		}
	}

	// /search: the fields, order and escaping of the struct it copied
	// every result into before results were encoded in place.
	type copied struct {
		URL     string  `json:"url"`
		State   int     `json:"state"`
		Score   float64 `json:"score"`
		Snippet string  `json:"snippet,omitempty"`
	}
	type copiedResponse struct {
		Query   string   `json:"query"`
		K       int      `json:"k"`
		Count   int      `json:"count"`
		Results []copied `json:"results"`
	}
	results := []query.ResultWithSnippet{
		{Result: query.Result{URL: "http://a/?v=1&x=<2>", State: 3, Score: 1.25e-7}, Snippet: "the <b>singer</b> ...  "},
		{Result: query.Result{URL: "http://b", State: 0, Score: 12}},
	}
	for _, rs := range [][]query.ResultWithSnippet{results, nil, {}} {
		want := copiedResponse{Query: "morcheeba singer", K: 7, Count: len(rs), Results: []copied{}}
		for _, r := range rs {
			want.Results = append(want.Results, copied{r.URL, int(r.State), r.Score, r.Snippet})
		}
		rec := httptest.NewRecorder()
		WriteSearch(rec, "Morcheeba SINGER!", 7, rs)
		if got := rec.Body.Bytes(); !bytes.Equal(got, marshalLine(t, want)) {
			t.Errorf("%d results: WriteSearch wrote\n%s\nwant\n%s", len(rs), got, marshalLine(t, want))
		}
	}

	// A long body then a short one through the same pool: no stale tail.
	long := strings.Repeat("x", 4<<10)
	writeBody(struct{ Error string }{long})
	if got := writeBody(health).Body.Bytes(); !bytes.Equal(got, marshalLine(t, health)) {
		t.Fatalf("short body after a long one: %s", got)
	}

	// Over the retention bound: written whole, and its buffer not kept.
	huge := struct{ Error string }{strings.Repeat("y", maxPooledBuffer+1)}
	if got := writeBody(huge).Body.Bytes(); !bytes.Equal(got, marshalLine(t, huge)) {
		t.Fatalf("body over %d bytes differs from json.Marshal", maxPooledBuffer)
	}
	for range 8 {
		b := GetBuffer()
		if b.Cap() > maxPooledBuffer || b.Len() != 0 {
			t.Fatalf("pool handed out a buffer of cap %d, len %d", b.Cap(), b.Len())
		}
		defer PutBuffer(b)
	}
	big := new(bytes.Buffer)
	big.Grow(maxPooledBuffer + 1)
	PutBuffer(big)
	if b := GetBuffer(); b == big {
		t.Fatal("PutBuffer kept a buffer over the retention bound")
	}
}

// TestWriteJSONEncodeFailureIsJSON: a body that does not encode (a NaN
// score) is answered like every other failure, a JSON error body with
// status 500 — not a text/plain one.
func TestWriteJSONEncodeFailureIsJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteSearch(rec, "q", 1, []query.ResultWithSnippet{{Result: query.Result{URL: "u", Score: math.NaN()}}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	want := `{"error":"json: unsupported value: NaN"}` + "\n"
	if got := rec.Body.String(); got != want {
		t.Fatalf("body %q, want %q", got, want)
	}
}
