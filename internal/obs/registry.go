// Package obs is the crawl telemetry subsystem: a dependency-free,
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// latency histograms), a structured trace layer whose spans travel on
// context.Context and drain into pluggable sinks, and HTTP exposure for
// both (/debug/metrics in JSON and Prometheus text, /debug/trace/recent,
// net/http/pprof).
//
// The package is engineered so that *disabled* telemetry costs almost
// nothing: every helper is nil-safe, so instrumented code does
//
//	tel := obs.From(ctx)                        // nil when no telemetry installed
//	tel.Counter("crawl.events.triggered").Inc() // no-op on nil
//	ctx, sp := obs.StartSpan(ctx, obs.SpanPageCrawl)
//	defer sp.End(nil)                           // no-op on nil span
//
// unconditionally, and the whole chain folds into a context lookup plus
// a few nil checks when no Telemetry was installed with obs.With.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 metric (e.g. in-flight process lines).
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (negative to decrement). Safe on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefBuckets are the default latency histogram bucket upper bounds, in
// seconds — a log-ish ladder from 250µs to 10s that covers everything
// from an in-process handler fetch to a slow real network round trip.
var DefBuckets = []float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket distribution metric. Observations are
// float64s (latencies are recorded in seconds); quantiles are estimated
// from the bucket counts by linear interpolation, the same estimate a
// Prometheus histogram_quantile would produce.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; implicit +Inf tail bucket
	counts []int64   // len(bounds)+1
	sum    float64
	count  int64
	min    float64 // smallest observation; +Inf until the first sample
	max    float64 // largest observation; -Inf until the first sample
}

// Observe records one sample. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// HistogramSnapshot is a point-in-time summary of a Histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	// Min and Max are the smallest and largest observations ever
	// recorded (0 while the histogram is empty). Quantile estimates are
	// clamped to [Min, Max], so a distribution whose mass sits in the
	// +Inf overflow bucket reports its true extreme rather than the
	// largest finite bucket bound.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	// Buckets holds the cumulative count per upper bound; the final
	// entry's Le is +Inf and its Count equals Count.
	Buckets []Bucket `json:"buckets"`
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	Le    float64 `json:"le"` // upper bound; math.Inf(1) for the tail
	Count int64   `json:"count"`
}

// bucketWire is the JSON image of a Bucket: encoding/json rejects +Inf,
// so Le travels as the string Prometheus uses ("+Inf" for the tail).
type bucketWire struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// MarshalJSON implements json.Marshaler.
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.Le, 1) {
		le = strconv.FormatFloat(b.Le, 'g', -1, 64)
	}
	return json.Marshal(bucketWire{Le: le, Count: b.Count})
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var w bucketWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Le == "+Inf" {
		b.Le = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(w.Le, 64)
		if err != nil {
			return fmt.Errorf("obs: bucket le %q: %w", w.Le, err)
		}
		b.Le = v
	}
	b.Count = w.Count
	return nil
}

// snapshot summarizes the histogram under its lock.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum}
	if h.count > 0 {
		s.Min, s.Max = h.min, h.max
	}
	cum := int64(0)
	for i, c := range h.counts {
		cum += c
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, Bucket{Le: le, Count: cum})
	}
	s.P50 = h.quantileLocked(0.50)
	s.P95 = h.quantileLocked(0.95)
	s.P99 = h.quantileLocked(0.99)
	return s
}

// quantileLocked estimates quantile q by interpolating within the bucket
// that contains the q·count-th sample, clamping the estimate to the
// observed [min, max] — in particular, mass in the +Inf overflow bucket
// reports the true maximum instead of saturating at the largest finite
// bucket bound. Callers hold h.mu.
func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := q * float64(h.count)
	est := h.max
	cum := 0.0
	for i, c := range h.counts {
		prev := cum
		cum += float64(c)
		if cum < target || c == 0 {
			continue
		}
		if i >= len(h.bounds) {
			// Overflow bucket: no finite upper bound to interpolate to;
			// the observed maximum is the best (and a true) upper bound.
			return h.max
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		est = lo + (hi-lo)*(target-prev)/float64(c)
		break
	}
	return math.Min(math.Max(est, h.min), h.max)
}

// Registry is a concurrent metrics registry. Metrics are created on
// first use and live for the registry's lifetime; all methods are safe
// for concurrent use and nil-safe (a nil *Registry hands out nil
// metrics, whose methods are no-ops).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	now      func() time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// SetClock installs the time source stamped onto Snapshot.TakenAt (nil
// restores the wall clock). Injected by tests so snapshots and the
// status document can be pinned.
func (r *Registry) SetClock(now func() time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.now = now
	r.mu.Unlock()
}

// Now returns the registry's current time: the injected clock when one
// was set with SetClock, the wall clock otherwise.
func (r *Registry) Now() time.Time {
	if r == nil {
		return time.Now()
	}
	r.mu.RLock()
	now := r.now
	r.mu.RUnlock()
	if now != nil {
		return now()
	}
	return time.Now()
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (DefBuckets when none are given). Bounds
// are fixed at creation; later calls ignore the argument.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{
			bounds: b, counts: make([]int64, len(b)+1),
			min: math.Inf(1), max: math.Inf(-1),
		}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a consistent-enough point-in-time view of a Registry:
// each metric is read atomically (counters/gauges) or under its own
// lock (histograms). It marshals to JSON directly and renders the
// Prometheus text exposition format with WritePrometheus.
type Snapshot struct {
	TakenAt    time.Time                    `json:"taken_at"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every metric's current value. TakenAt comes from
// the registry clock (SetClock), so golden-tested snapshots can be
// pinned.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		TakenAt:    r.Now(),
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		s.Histograms[k] = h.snapshot()
	}
	return s
}

// MarshalJSONIndent renders the snapshot as pretty-printed JSON.
func (s Snapshot) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// promName converts a dotted metric name to a Prometheus-legal one:
// "fetch.latency" -> "ajaxcrawl_fetch_latency".
func promName(name string) string {
	mangled := strings.NewReplacer(".", "_", "-", "_", " ", "_").Replace(name)
	return "ajaxcrawl_" + mangled
}

// promFloat renders a float the way the exposition format expects.
func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return promNum(v)
}

// promNum renders a finite float; %g keeps integers bare ("5") and small
// decimals exact ("0.005").
func promNum(v float64) string {
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4), metrics sorted by name so output is stable.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var names []string
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		h := s.Histograms[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, promFloat(b.Le), b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", pn, promNum(h.Sum), pn, h.Count); err != nil {
			return err
		}
		// Observed extremes travel as companion gauges (no histogram
		// sub-series exists for them in the exposition format).
		if _, err := fmt.Fprintf(w, "# TYPE %s_min gauge\n%s_min %s\n# TYPE %s_max gauge\n%s_max %s\n",
			pn, pn, promNum(h.Min), pn, pn, promNum(h.Max)); err != nil {
			return err
		}
	}
	return nil
}
