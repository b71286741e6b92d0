package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// Op; Parent is the span that caused this one (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records the benchmark's own spans in memory; they are written
// out once, when the traced run ends. All methods are safe on a nil
// tracer and do nothing, so the untraced run shares the code path and
// pays one nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, op int, fn func()) {
	id := t.start(name, parent, op)
	fn()
	t.end(id)
}

// spanKey carries the current span id through contexts the program
// under test derives its own contexts from, so a fetch made deep inside
// the crawler is recorded as a child of the benchmark span that caused it.
type spanKey struct{}

func withSpan(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int {
	id, _ := ctx.Value(spanKey{}).(int)
	return id
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Count int
	Total time.Duration // Σ duration
	Self  time.Duration // Σ (duration − time covered by child spans)
}

// selfUS is the mean self time per span in microseconds.
func (s layerStat) selfUS() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Self) / float64(time.Microsecond) / float64(s.Count)
}

// stats folds the spans into per-name aggregates. A span's self time is
// its duration minus its direct children's durations (children of one
// parent run sequentially in this harness, except fetches of parallel
// lines, whose parent is the pipeline span and is never read for self
// time).
func (t *tracer) stats() map[string]layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerStat)
	for _, s := range t.spans {
		d := s.End - s.Start
		self := d - child[s.ID]
		if self < 0 {
			self = 0
		}
		st := out[s.Name]
		st.Count++
		st.Total += time.Duration(d)
		st.Self += time.Duration(self)
		out[s.Name] = st
	}
	return out
}

// write dumps every span plus the per-layer summary as JSON.
func (t *tracer) write(path string, workload string, seed int64, layers map[string]metric) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type summary struct {
		Name    string  `json:"name"`
		Count   int     `json:"count"`
		TotalMS float64 `json:"total_ms"`
		SelfMS  float64 `json:"self_ms"`
	}
	stats := t.stats()
	var sums []summary
	for name, s := range stats {
		sums = append(sums, summary{name, s.Count,
			float64(s.Total) / float64(time.Millisecond), float64(s.Self) / float64(time.Millisecond)})
	}
	sort.Slice(sums, func(i, j int) bool { return sums[i].Name < sums[j].Name })
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Layers   map[string]metric `json:"layer_metrics"`
		Summary  []summary         `json:"span_summary"`
		Spans    []span            `json:"spans"`
	}{workload, seed, layers, sums, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedRounds is how many rounds a traced run measures with spans on.
const tracedRounds = 2

// layerSet collects a traced run's layer metrics; names not set stay 0,
// which on a given workload means "this layer is not exercised here".
type layerSet map[string]float64

// runTraced is the per-layer run: one set-up; untraced rounds for the
// measuring window, which give the timed layer metrics (ops_per_s,
// p50_ms, p90_ms, cpu_ms_per_op — no tracer exists yet while they run);
// tracedRounds rounds with spans on (trace.overhead_share is their wall
// against the untraced rounds'); then the layer-by-layer replay of the
// captured inputs. The gated metrics are never taken from this run.
func runTraced(ctx context.Context, def *workloadDef, newWorkload func() workload, seed int64, seconds float64, outDir string, logf func(string, ...any)) (*runResult, error) {
	w := newWorkload()
	defer w.teardown()
	if err := w.setup(ctx); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	layers := layerSet{}
	calBefore := calibrationKernel()

	t, err := measureWindow(ctx, w, seconds, tracedRounds)
	if err != nil {
		return nil, err
	}
	for name, m := range t.timedMetrics() {
		layers[name] = m.Value
	}
	untraced := median(t.walls)

	tr := newTracer()
	var traced roundTotals
	switch w := w.(type) {
	case *crawlWorkload:
		err = traceCrawl(ctx, w, tr, layers, &traced)
	case *serveWorkload:
		err = traceServe(ctx, w, tr, layers, &traced)
	default:
		err = fmt.Errorf("workload %s has no traced run", def.Name)
	}
	if err != nil {
		return nil, err
	}
	if untraced > 0 {
		layers["trace.overhead_share"] = median(traced.walls)/untraced - 1
	}
	layers["host.calibration_drift"] = float64(calibrationKernel())/float64(calBefore) - 1

	res := &runResult{
		Correct:   t.failed+traced.failed == 0,
		Attempted: t.ops + traced.ops,
		Failed:    t.failed + traced.failed,
		rounds:    len(t.walls) + len(traced.walls),
		firstErr:  t.firstErr,
		Metrics:   make(map[string]metric, len(perLayer)),
	}
	if res.firstErr == nil {
		res.firstErr = traced.firstErr
	}
	for _, m := range perLayer {
		res.Metrics[m.Name] = metric{layers[m.Name], m.Unit}
	}
	for name := range layers {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("layer metric %q is not in the catalogue", name)
		}
	}
	path := filepath.Join(outDir, "trace_"+def.Name+".json")
	if err := tr.write(path, def.Name, seed, res.Metrics); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	logf("trace: %d spans written to %s", len(tr.spans), path)
	return res, nil
}
