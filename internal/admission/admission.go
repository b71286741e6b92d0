// Package admission is the serving fleet's adaptive overload-control
// layer: a concurrency limiter that discovers how many in-flight
// requests the process can sustain by watching its own latency, instead
// of trusting a hand-tuned -max-inflight to stay correct across
// snapshot sizes, query mixes and noisy neighbors.
//
// The controller is AIMD on a latency gradient. A windowed moving
// minimum of observed request latencies estimates the uncongested
// baseline; when the recent batch average climbs past Tolerance× that
// baseline the limit is cut multiplicatively (the process is queueing
// somewhere — CPU run queue, allocator, page cache), and when the limit
// was actually saturated while latency stayed flat the limit creeps up
// additively. The result tracks the knee of the latency/throughput
// curve the way TCP tracks bottleneck bandwidth.
//
// In front of the limit sits a bounded CoDel-style wait queue: short
// bursts absorb into the queue instead of shedding, but a waiter that
// has sat longer than QueueTarget when its turn comes is dropped —
// serving it would spend capacity on a request whose client has likely
// given up, which is how overload spirals start. Requests that cannot
// even queue are shed immediately with a computed Retry-After hint
// (estimated drain time of the queue ahead of them), so well-behaved
// clients back off in proportion to the actual overload rather than a
// hardcoded "1".
//
// Everything is timed on an injectable fetch.Clock and the limiter
// never sleeps on it (waiters block on channels granted by releases),
// so virtual-time tests can script exact admission schedules.
package admission

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/obs"
)

// ErrSaturated is returned when a request cannot be admitted: the
// limit is reached and the wait queue is full (or disabled), or the
// waiter was CoDel-dropped after queueing too long. Callers should shed
// the request with 429 and the RetryAfterSeconds hint.
var ErrSaturated = errors.New("admission: saturated")

// Config parameterizes a Limiter. The zero value of every field gets a
// sensible default from New.
type Config struct {
	// Initial is the starting concurrency limit (default Max: start
	// permissive and let congestion walk the limit down, so an idle
	// server never rejects its first burst).
	Initial int
	// Min and Max bound the adaptive limit (defaults 1 and 64). Max is
	// the old static MaxInflight: the hard ceiling the operator trusts.
	Min, Max int
	// Queue bounds the wait queue (0 = no queue: shed immediately at
	// the limit, the legacy semaphore behavior).
	Queue int
	// QueueTarget is the CoDel-style sojourn bound: a waiter that
	// queued longer than this is dropped when its turn comes instead of
	// admitted (0 = 50ms).
	QueueTarget time.Duration
	// Window is the moving-minimum window for the baseline latency
	// estimate (0 = 30s). Two half-window buckets rotate, so the
	// baseline forgets a transiently idle past within one window.
	Window time.Duration
	// Tolerance is the congestion trigger: a batch whose average
	// latency exceeds Tolerance× the baseline minimum cuts the limit
	// (0 = 2.0).
	Tolerance float64
	// DecreaseFactor is the multiplicative cut (0 = 0.75).
	DecreaseFactor float64
	// UpdateEvery is how many latency samples feed one controller
	// decision (0 = 16).
	UpdateEvery int
	// Clock supplies timestamps (nil = wall clock). The limiter only
	// calls Now, never Sleep.
	Clock fetch.Clock
	// Tel receives the admission.* metrics (nil = none).
	Tel *obs.Telemetry
}

func (c Config) withDefaults() Config {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 64
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.Initial <= 0 {
		c.Initial = c.Max
	}
	if c.Initial < c.Min {
		c.Initial = c.Min
	}
	if c.Initial > c.Max {
		c.Initial = c.Max
	}
	if c.QueueTarget <= 0 {
		c.QueueTarget = 50 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 30 * time.Second
	}
	if c.Tolerance <= 1 {
		c.Tolerance = 2.0
	}
	if c.DecreaseFactor <= 0 || c.DecreaseFactor >= 1 {
		c.DecreaseFactor = 0.75
	}
	if c.UpdateEvery <= 0 {
		c.UpdateEvery = 16
	}
	if c.Clock == nil {
		c.Clock = fetch.RealClock{}
	}
	return c
}

// waiter is one queued Acquire. granted carries the verdict exactly
// once: true admits (the releaser transferred its slot), false is a
// CoDel drop.
type waiter struct {
	granted chan bool
	enq     time.Time
}

// minBucket is one half-window of the moving-minimum baseline.
type minBucket struct {
	start time.Time
	min   time.Duration
	ok    bool
}

// Limiter is an adaptive concurrency limiter. Use New.
type Limiter struct {
	cfg   Config
	clock fetch.Clock
	tel   *obs.Telemetry

	mu       sync.Mutex
	limit    int
	inflight int
	queue    []*waiter

	// Controller state (under mu).
	saturated  bool          // an acquire hit the limit since the last decision
	batchN     int           // samples in the current batch
	batchSum   time.Duration // their latency sum
	ewmaLat    float64       // smoothed latency in seconds, for the Retry-After hint
	cur, prev  minBucket     // rotating half-window minimum buckets
	increases  int64
	decreases  int64
	queueDrops int64
}

// New returns a ready Limiter.
func New(cfg Config) *Limiter {
	cfg = cfg.withDefaults()
	l := &Limiter{cfg: cfg, clock: cfg.Clock, tel: cfg.Tel, limit: cfg.Initial}
	l.tel.Gauge("admission.limit").Set(int64(l.limit))
	return l
}

// Token is one admitted request's slot. Exactly one of Release or
// Cancel must be called when the request ends.
type Token struct {
	l     *Limiter
	start time.Time
	done  bool
	// Waited reports that this request sat in the queue before
	// admission — the serving layer's brownout signal.
	Waited bool
	// QueueDepth is the queue length observed at admission time.
	QueueDepth int
}

// Acquire admits the caller, queues it (bounded, CoDel-dropped on
// excessive sojourn), or rejects it with ErrSaturated. A ctx that ends
// while queued returns ctx.Err().
func (l *Limiter) Acquire(ctx context.Context) (*Token, error) {
	l.mu.Lock()
	now := l.clock.Now()
	if l.inflight < l.limit {
		l.inflight++
		depth := len(l.queue)
		l.publishOccupancyLocked()
		l.mu.Unlock()
		l.tel.Counter("admission.admitted").Inc()
		return &Token{l: l, start: now, QueueDepth: depth}, nil
	}
	l.saturated = true
	if len(l.queue) >= l.cfg.Queue {
		l.publishOccupancyLocked()
		l.mu.Unlock()
		l.tel.Counter("admission.shed").Inc()
		return nil, ErrSaturated
	}
	w := &waiter{granted: make(chan bool, 1), enq: now}
	l.queue = append(l.queue, w)
	l.publishOccupancyLocked()
	l.mu.Unlock()
	l.tel.Counter("admission.queued").Inc()

	select {
	case ok := <-w.granted:
		if !ok {
			// CoDel drop: the slot came up after the waiter had already
			// overstayed QueueTarget.
			l.tel.Counter("admission.shed").Inc()
			return nil, ErrSaturated
		}
		l.mu.Lock()
		depth := len(l.queue)
		start := l.clock.Now()
		l.mu.Unlock()
		l.tel.Counter("admission.admitted").Inc()
		return &Token{l: l, start: start, Waited: true, QueueDepth: depth}, nil
	case <-ctx.Done():
		l.mu.Lock()
		removed := l.removeWaiterLocked(w)
		l.publishOccupancyLocked()
		l.mu.Unlock()
		if !removed {
			// The grant raced the cancellation: the verdict is already in
			// the buffered channel and the slot (on true) is ours to give
			// back untouched.
			if ok := <-w.granted; ok {
				l.mu.Lock()
				l.releaseSlotLocked()
				l.mu.Unlock()
			}
		}
		return nil, ctx.Err()
	}
}

// Release ends the request and feeds its latency to the controller.
func (t *Token) Release() {
	if t == nil || t.done {
		return
	}
	t.done = true
	l := t.l
	l.mu.Lock()
	now := l.clock.Now()
	l.onSampleLocked(now.Sub(t.start), now)
	l.releaseSlotLocked()
	l.mu.Unlock()
}

// Cancel ends the request without recording a latency sample — for
// requests that never did representative work (validation failures,
// fast rejects), whose microsecond "latencies" would poison the
// baseline minimum and make healthy queries look congested.
func (t *Token) Cancel() {
	if t == nil || t.done {
		return
	}
	t.done = true
	t.l.mu.Lock()
	t.l.releaseSlotLocked()
	t.l.mu.Unlock()
}

// releaseSlotLocked frees one slot: hand it to the first queued waiter
// that has not overstayed QueueTarget (CoDel-dropping the ones that
// have), or shrink inflight.
func (l *Limiter) releaseSlotLocked() {
	now := l.clock.Now()
	// A shrunken limit drains before the queue refills: slots above the
	// limit are retired, not recycled.
	if l.inflight > l.limit {
		l.inflight--
		l.publishOccupancyLocked()
		return
	}
	for len(l.queue) > 0 {
		w := l.queue[0]
		l.queue = l.queue[1:]
		if now.Sub(w.enq) > l.cfg.QueueTarget {
			l.queueDrops++
			l.tel.Counter("admission.queue_dropped").Inc()
			w.granted <- false
			continue
		}
		// Slot transfer: one out, one in, inflight unchanged.
		w.granted <- true
		l.publishOccupancyLocked()
		return
	}
	l.inflight--
	l.publishOccupancyLocked()
}

// removeWaiterLocked unlinks w; false means it was already granted.
func (l *Limiter) removeWaiterLocked(w *waiter) bool {
	for i, o := range l.queue {
		if o == w {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			return true
		}
	}
	return false
}

// onSampleLocked feeds one completed request's latency to the AIMD
// controller.
func (l *Limiter) onSampleLocked(lat time.Duration, now time.Time) {
	if lat < 0 {
		lat = 0
	}
	// Rotate the half-window minimum buckets.
	half := l.cfg.Window / 2
	if !l.cur.ok {
		l.cur = minBucket{start: now, min: lat, ok: true}
	} else if now.Sub(l.cur.start) >= half {
		l.prev = l.cur
		l.cur = minBucket{start: now, min: lat, ok: true}
	} else if lat < l.cur.min {
		l.cur.min = lat
	}
	if l.prev.ok && now.Sub(l.prev.start) >= l.cfg.Window {
		l.prev.ok = false
	}

	const alpha = 0.2
	if l.ewmaLat == 0 {
		l.ewmaLat = lat.Seconds()
	} else {
		l.ewmaLat = (1-alpha)*l.ewmaLat + alpha*lat.Seconds()
	}

	l.batchN++
	l.batchSum += lat
	if l.batchN < l.cfg.UpdateEvery {
		return
	}
	avg := l.batchSum / time.Duration(l.batchN)
	base := l.baselineLocked()
	switch {
	case base > 0 && avg > time.Duration(l.cfg.Tolerance*float64(base)) && l.limit > l.cfg.Min:
		next := int(math.Floor(float64(l.limit) * l.cfg.DecreaseFactor))
		if next >= l.limit {
			next = l.limit - 1
		}
		if next < l.cfg.Min {
			next = l.cfg.Min
		}
		l.limit = next
		l.decreases++
		l.tel.Counter("admission.decrease").Inc()
		l.tel.Gauge("admission.limit").Set(int64(l.limit))
	case l.saturated && l.limit < l.cfg.Max:
		l.limit++
		l.increases++
		l.tel.Counter("admission.increase").Inc()
		l.tel.Gauge("admission.limit").Set(int64(l.limit))
		l.grantUpToLimitLocked()
	}
	l.batchN, l.batchSum, l.saturated = 0, 0, false
}

// baselineLocked is the windowed moving minimum.
func (l *Limiter) baselineLocked() time.Duration {
	switch {
	case l.cur.ok && l.prev.ok:
		if l.prev.min < l.cur.min {
			return l.prev.min
		}
		return l.cur.min
	case l.cur.ok:
		return l.cur.min
	case l.prev.ok:
		return l.prev.min
	}
	return 0
}

// grantUpToLimitLocked admits queued waiters into newly opened slots
// (limit increase or SetLimit growth), CoDel-dropping stale ones.
func (l *Limiter) grantUpToLimitLocked() {
	now := l.clock.Now()
	for l.inflight < l.limit && len(l.queue) > 0 {
		w := l.queue[0]
		l.queue = l.queue[1:]
		if now.Sub(w.enq) > l.cfg.QueueTarget {
			l.queueDrops++
			l.tel.Counter("admission.queue_dropped").Inc()
			w.granted <- false
			continue
		}
		l.inflight++
		w.granted <- true
	}
	l.publishOccupancyLocked()
}

// SetLimit pins the limit to n (clamped to [Min, Max]) — an operator
// override or a test hook. Growth admits queued waiters immediately;
// shrink drains as in-flight requests complete.
func (l *Limiter) SetLimit(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < l.cfg.Min {
		n = l.cfg.Min
	}
	if n > l.cfg.Max {
		n = l.cfg.Max
	}
	l.limit = n
	l.tel.Gauge("admission.limit").Set(int64(n))
	l.grantUpToLimitLocked()
}

// Limit returns the current adaptive limit.
func (l *Limiter) Limit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limit
}

// Inflight returns the admitted-request count.
func (l *Limiter) Inflight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

// QueueDepth returns the current wait-queue length.
func (l *Limiter) QueueDepth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue)
}

// QueueLimit returns the configured queue bound.
func (l *Limiter) QueueLimit() int { return l.cfg.Queue }

// RetryAfterSeconds computes the Retry-After hint for a shed request:
// the estimated time for the queue ahead of a new arrival to drain at
// the current limit and smoothed latency, ceiled to whole seconds and
// clamped to [1, 60]. A cold limiter (no samples yet) answers 1.
func (l *Limiter) RetryAfterSeconds() int {
	l.mu.Lock()
	lat := l.ewmaLat
	depth := len(l.queue)
	limit := l.limit
	l.mu.Unlock()
	if lat <= 0 || limit <= 0 {
		return 1
	}
	wait := lat * float64(depth+1) / float64(limit)
	secs := int(math.Ceil(wait))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// publishOccupancyLocked refreshes the inflight/queue gauges.
func (l *Limiter) publishOccupancyLocked() {
	l.tel.Gauge("admission.inflight").Set(int64(l.inflight))
	l.tel.Gauge("admission.queue").Set(int64(len(l.queue)))
}
