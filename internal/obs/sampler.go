package obs

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Clock is the sampler's injectable time source. *fetch.VirtualClock and
// fetch.RealClock both satisfy it; obs redeclares the single method it
// needs so the dependency arrow keeps pointing fetch -> obs.
type Clock interface {
	Now() time.Time
}

// realClock is the default wall-time Clock.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Point is one time-series sample.
type Point struct {
	T time.Time `json:"t"`
	V int64     `json:"v"`
}

// SeriesSnapshot is the retained window of one sampled series, oldest
// point first.
type SeriesSnapshot struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// ring is a fixed-size point buffer: the newest Cap samples win.
type ring struct {
	buf  []Point
	next int
	full bool
}

func (r *ring) push(p Point) {
	r.buf[r.next] = p
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

func (r *ring) points() []Point {
	var out []Point
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// DefaultCrawlGauges and DefaultCrawlCounters are the crawl-progress
// series the CLIs sample by default: frontier depth and line utilization
// (gauges), pages retired (counter).
var (
	DefaultCrawlGauges   = []string{"frontier.depth", "crawl.lines.busy"}
	DefaultCrawlCounters = []string{"crawl.pages.done"}
)

// SamplerConfig configures a Sampler.
type SamplerConfig struct {
	// Clock is the time source stamped onto points (wall clock when nil).
	Clock Clock
	// Cap bounds each series' retained points (default 512); older
	// points are evicted ring-buffer style.
	Cap int
	// Gauges and Counters name the registry metrics to sample. Empty
	// slices select the crawl defaults; sampling a metric that does not
	// exist yet records zeros until it appears.
	Gauges   []string
	Counters []string
	// NoRuntime disables the Go runtime series (heap bytes, GC cycles,
	// goroutines), which are sampled by default.
	NoRuntime bool
}

// Runtime series names recorded unless SamplerConfig.NoRuntime is set.
const (
	SeriesHeapAlloc  = "runtime.heap_alloc_bytes"
	SeriesGCCycles   = "runtime.gc_cycles"
	SeriesGoroutines = "runtime.goroutines"
)

// Sampler periodically snapshots chosen registry gauges/counters and Go
// runtime stats into fixed-size ring series — the time dimension the
// point-in-time registry Snapshot lacks. Drive it either with Run (a
// wall-clock loop, the CLI `-sample` backend) or by calling Sample
// directly on an injected Clock (tests).
type Sampler struct {
	reg      *Registry
	clock    Clock
	capacity int
	gauges   []string
	counters []string
	runtime  bool

	mu     sync.Mutex
	series map[string]*ring
	order  []string
}

// NewSampler builds a sampler over reg. reg may be nil (runtime series
// only).
func NewSampler(reg *Registry, cfg SamplerConfig) *Sampler {
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	if cfg.Cap <= 0 {
		cfg.Cap = 512
	}
	if cfg.Gauges == nil {
		cfg.Gauges = DefaultCrawlGauges
	}
	if cfg.Counters == nil {
		cfg.Counters = DefaultCrawlCounters
	}
	return &Sampler{
		reg:      reg,
		clock:    cfg.Clock,
		capacity: cfg.Cap,
		gauges:   append([]string(nil), cfg.Gauges...),
		counters: append([]string(nil), cfg.Counters...),
		runtime:  !cfg.NoRuntime,
		series:   make(map[string]*ring),
	}
}

// record appends one point to the named series, creating it on first use.
func (s *Sampler) record(name string, t time.Time, v int64) {
	r := s.series[name]
	if r == nil {
		r = &ring{buf: make([]Point, s.capacity)}
		s.series[name] = r
		s.order = append(s.order, name)
	}
	r.push(Point{T: t, V: v})
}

// Sample takes one sample of every tracked series at the clock's current
// time. Safe on a nil receiver (no-op) so wiring can be optional.
func (s *Sampler) Sample() {
	if s == nil {
		return
	}
	t := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.gauges {
		s.record(g, t, s.reg.Gauge(g).Value())
	}
	for _, c := range s.counters {
		s.record(c, t, s.reg.Counter(c).Value())
	}
	if s.runtime {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.record(SeriesHeapAlloc, t, int64(ms.HeapAlloc))
		s.record(SeriesGCCycles, t, int64(ms.NumGC))
		s.record(SeriesGoroutines, t, int64(runtime.NumGoroutine()))
	}
}

// Run samples every interval until ctx ends. The cadence runs on the
// wall clock (time.Ticker); points are stamped with the injected Clock.
// Safe on a nil receiver.
func (s *Sampler) Run(ctx context.Context, interval time.Duration) {
	if s == nil || interval <= 0 {
		return
	}
	s.Sample() // an immediate first point, so short runs still chart
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.Sample()
		}
	}
}

// Snapshot returns every series' retained window, in first-recorded
// order. Nil receiver returns nil.
func (s *Sampler) Snapshot() []SeriesSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SeriesSnapshot, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, SeriesSnapshot{Name: name, Points: s.series[name].points()})
	}
	return out
}

// Series returns one named series' retained window (nil when the series
// has no points yet or the receiver is nil).
func (s *Sampler) Series(name string) []Point {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.series[name]
	if r == nil {
		return nil
	}
	return r.points()
}
