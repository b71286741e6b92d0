package router

import (
	"math"
	"sort"
	"sync"
	"time"
)

const (
	// latencyWindow is how many recent shard-response latencies feed the
	// hedge-quantile estimate.
	latencyWindow = 256
	// minHedgeSamples gates quantile hedging: below this many samples
	// the estimate is noise, so the fixed HedgeAfter (or nothing) is
	// used instead.
	minHedgeSamples = 8
)

// latencyRing is a fixed-capacity ring of recent shard-response
// latencies, answering quantile queries for the adaptive hedge delay.
// One ring serves the whole router: the hedge delay should reflect what
// "slow" means fleet-wide, and per-shard rings would each warm up
// 8× slower.
type latencyRing struct {
	mu  sync.Mutex
	buf []time.Duration
	n   int // filled entries, <= len(buf)
	idx int // next write position
}

func newLatencyRing(capacity int) *latencyRing {
	return &latencyRing{buf: make([]time.Duration, capacity)}
}

// Observe records one response latency, evicting the oldest when full.
func (l *latencyRing) Observe(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf[l.idx] = d
	l.idx = (l.idx + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
}

// Quantile returns the q-quantile (0 < q <= 1) of the recorded
// latencies, or false while fewer than minHedgeSamples exist. The
// estimate is the ceil(q·n)-th smallest sample — for q=0.95 over 20
// samples, the 19th — so it is an actual observed latency, never an
// interpolation.
func (l *latencyRing) Quantile(q float64) (time.Duration, bool) {
	l.mu.Lock()
	if l.n < minHedgeSamples {
		l.mu.Unlock()
		return 0, false
	}
	s := append([]time.Duration(nil), l.buf[:l.n]...)
	l.mu.Unlock()
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx], true
}
