package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestSpanNestingAndAttrs(t *testing.T) {
	ring := NewRingSink(16)
	tel := New(nil, ring)
	ctx := With(context.Background(), tel)

	ctx1, parent := StartSpan(ctx, SpanPageCrawl, A("url", "/watch?v=a"))
	_, child := StartSpan(ctx1, SpanEventDispatch)
	child.SetAttr("event", "onclick")
	child.End(nil)
	parent.End(nil)

	spans := ring.Recent(0)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Children end (and emit) first.
	c, p := spans[0], spans[1]
	if c.Name != SpanEventDispatch || p.Name != SpanPageCrawl {
		t.Fatalf("span order: %q then %q", c.Name, p.Name)
	}
	if c.Parent != p.ID {
		t.Fatalf("child parent=%d, want parent's id %d", c.Parent, p.ID)
	}
	if p.Parent != 0 {
		t.Fatalf("root span has parent %d", p.Parent)
	}
	if c.Attrs.Get("event") != "onclick" || p.Attrs.Get("url") != "/watch?v=a" {
		t.Fatalf("attrs lost: child=%v parent=%v", c.Attrs, p.Attrs)
	}
}

func TestSpanEmittedAfterContextCancel(t *testing.T) {
	// A span opened before a cancellation must still be closed and
	// emitted by the deferred End on the unwind path — the trace-layer
	// half of the PageTimeout guarantee (the crawler-level half lives in
	// internal/core).
	ring := NewRingSink(4)
	ctx := With(context.Background(), New(nil, ring))
	cctx, cancel := context.WithCancel(ctx)
	_, sp := StartSpan(cctx, SpanPageCrawl)
	cancel()
	sp.End(cctx.Err())
	spans := ring.Recent(0)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if spans[0].Err != context.Canceled.Error() {
		t.Fatalf("span err = %q, want context.Canceled", spans[0].Err)
	}
}

func TestSpanEndIdempotentAndNilSafe(t *testing.T) {
	var sp *Span
	sp.End(nil) // must not panic
	sp.SetAttr("k", "v")

	ring := NewRingSink(4)
	ctx := With(context.Background(), New(nil, ring))
	_, sp2 := StartSpan(ctx, "x")
	sp2.End(errors.New("boom"))
	sp2.End(nil)
	if got := len(ring.Recent(0)); got != 1 {
		t.Fatalf("double End emitted %d spans, want 1", got)
	}
}

func TestNoTelemetryMeansNoSpan(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "x")
	if sp != nil {
		t.Fatal("expected nil span without telemetry")
	}
	if From(ctx) != nil {
		t.Fatal("ctx must stay telemetry-free")
	}
	// Metrics-only telemetry (nil sink) also yields nil spans.
	ctx2 := With(context.Background(), New(NewRegistry(), nil))
	if _, sp := StartSpan(ctx2, "x"); sp != nil {
		t.Fatal("expected nil span with nil sink")
	}
}

func TestJSONLSinkParseable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	sink, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := With(context.Background(), New(nil, sink))
	for i := 0; i < 3; i++ {
		Event(ctx, SpanHotNodeHit, A("key", "f(1)"))
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(buf))
	n := 0
	for sc.Scan() {
		var rec SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", n, err)
		}
		if rec.Name != SpanHotNodeHit || rec.Attrs.Get("key") != "f(1)" {
			t.Fatalf("bad record: %+v", rec)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("got %d JSONL lines, want 3", n)
	}
}

func TestFileSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	sink, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := With(context.Background(), New(nil, sink))
	Event(ctx, SpanQueryExec)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Name != SpanQueryExec {
		t.Fatalf("file sink contents: %+v", recs)
	}
}

func TestRingSinkWraps(t *testing.T) {
	ring := NewRingSink(3)
	ctx := With(context.Background(), New(nil, ring))
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		Event(ctx, name)
	}
	got := ring.Recent(0)
	if len(got) != 3 || got[0].Name != "c" || got[2].Name != "e" {
		t.Fatalf("ring contents: %+v", got)
	}
	if last := ring.Recent(1); len(last) != 1 || last[0].Name != "e" {
		t.Fatalf("Recent(1): %+v", last)
	}
}

// ReadJSONL loads every span of a JSONL trace file (the FileSink
// format) — the read side used by tests and trace post-processing.
func ReadJSONL(path string) ([]SpanRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: read trace: %w", err)
	}
	defer f.Close()
	var out []SpanRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return out, fmt.Errorf("obs: read trace: %w", err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// TestAttrsMarshalAsMap: a record keeps its span's attributes in SetAttr
// order, Get and the JSON object take a key's last value, and the bytes
// are the map[string]string's they replaced; unmarshalling reads them
// back in key order. An attribute set after End does not reach the
// record.
func TestAttrsMarshalAsMap(t *testing.T) {
	ring := NewRingSink(1)
	ctx := With(context.Background(), New(nil, ring))
	_, sp := StartSpan(ctx, SpanQueryExec, A("q", "<b> & \xff"), A("z", "1"))
	sp.SetAttr("a", "first")
	sp.SetAttr("z", "2")
	sp.SetAttr("a", "last")
	sp.End(nil)
	sp.SetAttr("a", "after end")
	rec := ring.Recent(0)[0]
	if rec.Attrs.Get("a") != "last" {
		t.Fatalf("Get(a) = %q, want the last value", rec.Attrs.Get("a"))
	}
	if want := (Attrs{A("q", "<b> & \xff"), A("z", "1"), A("a", "first"), A("z", "2"), A("a", "last")}); !slices.Equal(rec.Attrs, want) {
		t.Fatalf("attrs %v, want %v", rec.Attrs, want)
	}
	got, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	asMap := struct {
		ID     uint64            `json:"id"`
		Parent uint64            `json:"parent,omitempty"`
		Name   string            `json:"name"`
		Start  time.Time         `json:"start"`
		DurNS  int64             `json:"dur_ns"`
		Attrs  map[string]string `json:"attrs,omitempty"`
		Err    string            `json:"err,omitempty"`
	}{rec.ID, rec.Parent, rec.Name, rec.Start, rec.DurNS, map[string]string{"q": "<b> & \xff", "z": "2", "a": "last"}, rec.Err}
	want, _ := json.Marshal(asMap)
	if !bytes.Equal(got, want) {
		t.Fatalf("marshal\n got %s\nwant %s", got, want)
	}
	var back SpanRecord
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if want := (Attrs{A("a", "last"), A("q", "<b> & \ufffd"), A("z", "2")}); !slices.Equal(back.Attrs, want) {
		t.Fatalf("unmarshalled attrs %v", back.Attrs)
	}
	if b, _ := json.Marshal(SpanRecord{Name: "x"}); bytes.Contains(b, []byte("attrs")) {
		t.Fatalf("a record without attributes marshals them: %s", b)
	}
}
