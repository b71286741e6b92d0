package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Span names used across the pipeline — the span taxonomy of the crawl
// stack, one unit of work per name (see DESIGN.md §Observability).
const (
	SpanPageCrawl     = "page.crawl"     // one page's full AJAX crawl (core)
	SpanEventDispatch = "event.dispatch" // one handler invocation (browser)
	SpanXHRSend       = "xhr.send"       // one XMLHttpRequest send (browser)
	SpanHotNodeHit    = "hotnode.hit"    // a send served from the hot-node cache
	SpanHotNodeMiss   = "hotnode.miss"   // a send that had to hit the network
	SpanLineCrawl     = "line.crawl"     // one process line's lifetime on the shared URL list (core)
	SpanIndexBuild    = "index.build"    // one shard's index construction
	SpanQueryExec     = "query.exec"     // one query evaluation
	SpanFetchRetry    = "fetch.retry"    // one backoff-and-retry decision (fetch)

	SpanCheckpointWrite   = "checkpoint.write"   // one page durably journaled (checkpoint)
	SpanCheckpointRecover = "checkpoint.recover" // journal replayed on open (checkpoint)

	SpanShardEval    = "query.shard"   // one shard-local evaluation for a distributed merge (query)
	SpanRouterFanout = "router.fanout" // one routed query's full fan-out and global merge (router)
	SpanRouterShard  = "router.shard"  // one shard's call, including failovers (router)
)

// SpanRecord is one finished span as emitted to a Sink. Start is wall
// time; Dur is measured on the monotonic clock.
type SpanRecord struct {
	ID     uint64            `json:"id"`
	Parent uint64            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Start  time.Time         `json:"start"`
	DurNS  int64             `json:"dur_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	Err    string            `json:"err,omitempty"`
}

// Dur returns the span duration.
func (r SpanRecord) Dur() time.Duration { return time.Duration(r.DurNS) }

// Sink receives finished spans. Implementations must be safe for
// concurrent use: process lines emit concurrently.
type Sink interface {
	Emit(SpanRecord)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(SpanRecord)

// Emit implements Sink.
func (f SinkFunc) Emit(r SpanRecord) { f(r) }

// MultiSink fans one span out to several sinks.
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(r SpanRecord) {
	for _, s := range m {
		if s != nil {
			s.Emit(r)
		}
	}
}

// JSONLSink writes one JSON object per line to an io.Writer.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLSink returns a sink writing JSONL to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit implements Sink. Encoding errors are dropped: tracing must never
// fail the traced operation.
func (s *JSONLSink) Emit(r SpanRecord) {
	s.mu.Lock()
	_ = s.enc.Encode(r)
	s.mu.Unlock()
}

// FileSink is a buffered JSONL sink over a file — the `-trace out.jsonl`
// backend of the CLIs. Close flushes and closes the file.
type FileSink struct {
	mu sync.Mutex
	f  *os.File
	bw *bufio.Writer
	j  *JSONLSink
}

// NewFileSink creates (truncating) the file at path.
func NewFileSink(path string) (*FileSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: trace sink: %w", err)
	}
	bw := bufio.NewWriter(f)
	return &FileSink{f: f, bw: bw, j: NewJSONLSink(bw)}, nil
}

// Emit implements Sink.
func (s *FileSink) Emit(r SpanRecord) { s.j.Emit(r) }

// Close flushes buffered spans and closes the file.
func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bw.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// RingSink keeps the most recent spans in memory — the backend of
// /debug/trace/recent and of tests.
type RingSink struct {
	mu   sync.Mutex
	buf  []SpanRecord
	next int
	full bool
}

// NewRingSink returns a ring holding the latest capacity spans.
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		capacity = 1024
	}
	return &RingSink{buf: make([]SpanRecord, capacity)}
}

// Emit implements Sink.
func (s *RingSink) Emit(r SpanRecord) {
	s.mu.Lock()
	s.buf[s.next] = r
	s.next++
	if s.next == len(s.buf) {
		s.next, s.full = 0, true
	}
	s.mu.Unlock()
}

// Recent returns up to n spans, oldest first (all retained spans when
// n <= 0).
func (s *RingSink) Recent(n int) []SpanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []SpanRecord
	if s.full {
		out = append(out, s.buf[s.next:]...)
	}
	out = append(out, s.buf[:s.next]...)
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// ProgressSink prints one human line per finished span whose name is in
// the filter — the backend of the CLIs' -v flag. A nil/empty filter
// passes everything.
type ProgressSink struct {
	mu     sync.Mutex
	w      io.Writer
	filter map[string]bool
}

// NewProgressSink returns a progress printer for the given span names.
func NewProgressSink(w io.Writer, names ...string) *ProgressSink {
	s := &ProgressSink{w: w}
	if len(names) > 0 {
		s.filter = make(map[string]bool, len(names))
		for _, n := range names {
			s.filter[n] = true
		}
	}
	return s
}

// Emit implements Sink.
func (s *ProgressSink) Emit(r SpanRecord) {
	if s.filter != nil && !s.filter[r.Name] {
		return
	}
	var attrs string
	for k, v := range r.Attrs {
		attrs += " " + k + "=" + v
	}
	errs := ""
	if r.Err != "" {
		errs = " err=" + r.Err
	}
	s.mu.Lock()
	fmt.Fprintf(s.w, "[%8s] %s%s%s\n", r.Dur().Round(time.Microsecond), r.Name, attrs, errs)
	s.mu.Unlock()
}

// Attr is one key/value span annotation.
type Attr struct {
	Key, Value string
}

// A builds an Attr.
func A(k, v string) Attr { return Attr{Key: k, Value: v} }

// Span is an in-flight traced operation. A nil *Span (telemetry
// disabled) is valid: every method is a no-op.
type Span struct {
	tel    *Telemetry
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []Attr
	ended  bool
}

// SetAttr annotates the span. Safe on nil.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: k, Value: v})
}

// End closes the span and emits it to the sink, recording err when
// non-nil. End is idempotent and safe on nil, so `defer sp.End(...)`
// always runs — a span opened before a cancellation or timeout abort is
// still closed and emitted on the unwind path.
func (s *Span) End(err error) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	rec := SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		DurNS:  int64(time.Since(s.start)),
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			rec.Attrs[a.Key] = a.Value
		}
	}
	if err != nil {
		rec.Err = err.Error()
	}
	s.tel.sink.Emit(rec)
}
