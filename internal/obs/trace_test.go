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
	"testing"
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
	if c.Attrs["event"] != "onclick" || p.Attrs["url"] != "/watch?v=a" {
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
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	ctx := With(context.Background(), New(nil, sink))
	for i := 0; i < 3; i++ {
		Event(ctx, SpanHotNodeHit, A("key", "f(1)"))
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var rec SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", n, err)
		}
		if rec.Name != SpanHotNodeHit || rec.Attrs["key"] != "f(1)" {
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
